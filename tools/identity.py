"""Check that two commits write byte-identical artifacts over a fixed corpus.

    python3 tools/identity.py PARENT CHANGE

Both commits are exported with `git archive` from the repository this script
lives in, and each is run in one fresh process, the two side by side. The
corpus is every preset at desk and paper scale, at that side's
`DEFAULT_SEEDS`, each run as `chainmesh preset` runs it, and every run of
`tests/corpus.py` at each of its seeds: the pinned configs, the extra runs
and the seeded fuzz configs, whose configs that fail validation are
compared by error type and message.

Each run is compared by `artifact_digest`, the SHA-256 over its six
artifacts, by its attached and confirmed block counts, and by
`states_digest`, a SHA-256 over the final ledger states of its
`RunResult.states`, which no artifact prints. Every run whose digests or
counts differ, or that exists or fails on one side only, is printed; the
exit code is then 1. It is 0 when every run matches, and 2 when a commit
cannot be exported or a side fails as a whole. The corpus and the digests
come from this script's checkout, so both sides are measured alike.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tests"))

from corpus import RUNS, artifact_digest, states_digest    # noqa: E402
from run import DEADLINE_S                                  # noqa: E402


# -- one side ---------------------------------------------------------------

def run_side(tree: Path, work: Path, runs: list) -> dict[str, list]:
    """Run every preset and corpus run on the checkout at `tree`; name ->
    [artifact digest, attached, confirmed, states digest], or ["error",
    message]."""
    sys.path.insert(0, str(tree / "src"))
    import chainmesh
    from chainmesh.config import config_from_mapping, replace
    from chainmesh.engine import run_scenario
    from chainmesh.presets import DEFAULT_SEEDS, build_preset, preset_names
    if Path(chainmesh.__file__).resolve().parent != \
            (tree / "src" / "chainmesh").resolve():
        raise SystemExit(f"chainmesh imported from {chainmesh.__file__}, "
                         f"not from {tree}")

    results: dict[str, list] = {}
    todo = []       # (name, config thunk, scenario name), in run order
    for scale in ("desk", "paper"):
        for preset in preset_names():
            name = f"preset/{scale}/{preset}"
            try:
                built = build_preset(preset, scale == "paper")
            except Exception as exc:    # a failing preset is a difference
                results[name] = ["error", f"{type(exc).__name__}: {exc}"]
                continue
            todo += [(f"{name}/{label}/seed-{s:03d}",
                      partial(replace, cfg, seed=s), label)
                     for label, cfg in built.items() for s in DEFAULT_SEEDS]
    todo += [(name, partial(config_from_mapping, {**overrides, "seed": seed}),
              "scenario") for name, overrides, seed in runs]
    for i, (name, config, scenario) in enumerate(todo):
        out = work / str(i)
        try:
            result = run_scenario(config(), scenario, out)
        except Exception as exc:        # a failing run is a difference
            results[name] = ["error", f"{type(exc).__name__}: {exc}"]
            continue
        results[name] = [artifact_digest(out), result.report.attached_blocks,
                         result.report.confirmed_blocks,
                         states_digest(result.states)]
    return results


# -- driver -----------------------------------------------------------------

def export(rev: str, dest: Path) -> str:
    """Extract the tree of `rev` into `dest`; returns the commit's SHA."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                          f"{rev}^{{commit}}"], capture_output=True,
                         text=True, check=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", sha],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait():
        raise subprocess.CalledProcessError(archive.returncode, "git archive")
    return sha


def compare(parent: dict, change: dict) -> list[str]:
    """One line per run whose result differs or exists on one side only."""
    lines = []
    for name in sorted(parent.keys() | change.keys()):
        a, b = parent.get(name, ["missing"]), change.get(name, ["missing"])
        if a != b:
            lines.append(f"DIFF {name}: parent {a} change {b}")
    return lines


def main() -> int:
    if sys.argv[1:2] == ["--side"]:     # one side, started below
        tree, work, runs = map(Path, sys.argv[2:5])
        results = run_side(tree, work, json.loads(runs.read_text()))
        (work / "results.json").write_text(json.dumps(results))
        return 0
    parser = argparse.ArgumentParser(
        description="Compare the artifacts of two commits over a fixed "
                    "corpus.")
    parser.add_argument("parent", help="parent commit")
    parser.add_argument("change", help="changed commit")
    args = parser.parse_args()

    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="chainmesh-identity-") as tmp:
        tmp = Path(tmp)
        (tmp / "runs.json").write_text(json.dumps(
            [(f"{run.name}/seed-{seed}", run.overrides, seed)
             for run in RUNS for seed in run.seeds]))
        sides: dict[str, subprocess.Popen] = {}
        results = {}
        try:
            for label, rev in (("parent", args.parent),
                               ("change", args.change)):
                try:
                    sha = export(rev, tmp / label / "tree")
                except subprocess.CalledProcessError as exc:
                    print(f"error: cannot export {rev!r}: {exc}",
                          file=sys.stderr)
                    return 2
                print(f"{label}: {rev} = {sha}")
                (tmp / label / "work").mkdir()
                sides[label] = subprocess.Popen(
                    [sys.executable, str(Path(__file__).resolve()), "--side",
                     str(tmp / label / "tree"), str(tmp / label / "work"),
                     str(tmp / "runs.json")],
                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                    text=True)
            for label, proc in sides.items():
                _, err = proc.communicate(
                    timeout=max(1.0, DEADLINE_S - (time.monotonic() - start)))
                if proc.returncode:
                    print(f"error: the {label} side failed:\n{err}",
                          file=sys.stderr)
                    return 2
                results[label] = json.loads(
                    (tmp / label / "work" / "results.json").read_text())
        except subprocess.TimeoutExpired:
            print(f"error: not done within {DEADLINE_S:.0f} s",
                  file=sys.stderr)
            return 2
        finally:
            for proc in sides.values():     # no side outlives the command
                proc.kill()
                proc.wait()
    diffs = compare(results["parent"], results["change"])
    for line in diffs:
        print(line)
    change = results["change"].values()
    print(f"{len(change)} runs ({sum(len(r) == 4 for r in change)} with "
          f"ledger states), {len(diffs)} differ, "
          f"{time.monotonic() - start:.1f} s")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
