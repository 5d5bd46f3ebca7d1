"""Check that two commits write byte-identical artifacts over a fixed corpus.

    python3 tools/identity.py PARENT CHANGE

Both commits are exported with `git archive` from the repository this script
lives in, and each is run in one fresh process, the two side by side. The
corpus:

- every preset at desk and paper scale, seeds 0-2, run through each side's
  own `chainmesh preset` command;
- every `PINS` config of `tests/test_paper_scale_digests.py` at seeds 0
  and 3;
- `paper-coded-1m` at seed 6, a second seed of the paper-scale coded run:
  a run draws no coded fleet, so its group layout is seed 0's, and only
  its issuance, committee and transfer draws differ;
- 160 chains at 8 minutes;
- coded runs of 1 minute at fleet 1000 and `straggler_fraction` 0.3,
  whose 512-group has 154 frozen positions in the layout every chain reads,
  and of two stalls, where a group has no data position, so no chain has a
  layout: fleet 1 at 0.5 and fleet 20 at 1.0;
- the desk default at `tip_sample` 10000, far above its chains, so that a
  tip batch is bounded by the chains and not by `tip_sample`;
- the 100 seeded fuzz configs of `tests/fuzz_configs.py`, its int64 edges
  and its int-valued fractions, at and near each field's bounds: one
  account, blocks with no rows, spam share 1.0, named overflows and configs
  that fail validation, whose error type and message are compared.

Each run is compared by the SHA-256 over its six artifacts, computed by
`artifact_digest` of `perfbench/child.py`, and by its attached and confirmed
block counts; a run beside the presets also by a SHA-256 over the final
ledger states of its `RunResult.states`, which no artifact prints. Every run
whose digest or counts differ, or that exists or fails on one side only, is
printed; the exit code is then 1. It is 0 when every run matches, and 2
when a commit cannot be exported or a side fails as a whole. The corpus and
the digests come from this script's checkout, so both sides are measured
alike.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tests"))

from fuzz_configs import fuzz_configs           # noqa: E402
from run import DEADLINE_S                      # noqa: E402

PINS_FILE = ROOT / "tests" / "test_paper_scale_digests.py"

PRESET_SEEDS = (0, 1, 2)
PIN_SEEDS = (0, 3)
#: (name, overrides or the name of a pin, seed) of the runs beyond the pins
EXTRA_RUNS = (
    ("paper-coded-1m", "paper-coded-1m", 6),
    ("chains160-8m", {"chains": 160, "duration_min": 8.0}, 0),
    ("coded-fleet1000-r30-1m", {"fleet_size": 1000, "coding": True,
                                "straggler_fraction": 0.3,
                                "duration_min": 1.0}, 0),
    ("coded-fleet1-r50-stall", {"fleet_size": 1, "coding": True,
                                "straggler_fraction": 0.5}, 0),
    ("coded-fleet20-r100-stall", {"fleet_size": 20, "coding": True,
                                  "straggler_fraction": 1.0}, 0),
    ("tip-sample10000", {"tip_sample": 10000}, 0),
)


def _pins() -> dict[str, dict]:
    """The `PINS` overrides, read from the test file's source."""
    for node in ast.parse(PINS_FILE.read_text()).body:
        if isinstance(node, ast.Assign) and \
                getattr(node.targets[0], "id", None) == "PINS":
            return {name: pin[0]
                    for name, pin in ast.literal_eval(node.value).items()}
    raise SystemExit(f"no PINS table in {PINS_FILE}")


def corpus() -> list[tuple[str, dict, int]]:
    """The (name, config overrides, seed) runs beside the presets."""
    pins = _pins()
    runs = [(f"pin/{name}/seed-{seed}", overrides, seed)
            for name, overrides in sorted(pins.items())
            for seed in PIN_SEEDS]
    for name, overrides, seed in EXTRA_RUNS:
        if isinstance(overrides, str):
            overrides = pins[overrides]
        runs.append((f"extra/{name}/seed-{seed}", overrides, seed))
    for i, data in enumerate(fuzz_configs()):
        overrides = {k: v for k, v in data.items() if k != "seed"}
        runs.append((f"fuzz/{i:02d}", overrides, data["seed"]))
    return runs


# -- one side ---------------------------------------------------------------

def states_digest(states: dict) -> str:
    """SHA-256 over each chain's final `CumulativeState`, in chain order."""
    h = hashlib.sha256()
    for chain in sorted(states):
        state = states[chain]
        h.update(f"{chain} {state.epoch}\n".encode())
        for name in ("genesis", "w_in", "w_out", "last_proposed"):
            values = getattr(state, name)
            h.update(f"{name} {values.shape}\n".encode())
            h.update(values.astype("<i8").tobytes())
    return h.hexdigest()


def run_side(tree: Path, work: Path, runs: list) -> dict[str, list]:
    """Run the corpus on the checkout at `tree`; name -> [digest,
    attached, confirmed], with the states digest beside the presets, or
    ["error", message]."""
    sys.path.insert(0, str(tree / "src"))
    from child import artifact_digest

    import chainmesh
    from chainmesh.cli import main
    from chainmesh.config import config_from_mapping
    from chainmesh.engine import run_scenario
    from chainmesh.presets import preset_names
    if Path(chainmesh.__file__).resolve().parent != \
            (tree / "src" / "chainmesh").resolve():
        raise SystemExit(f"chainmesh imported from {chainmesh.__file__}, "
                         f"not from {tree}")

    results: dict[str, list] = {}

    def record(name: str, out: Path, *extra: str) -> None:
        metrics = json.loads((out / "metrics.json").read_text())
        results[name] = [artifact_digest(out)[0], metrics["attached_blocks"],
                         metrics["confirmed_blocks"], *extra]

    for scale in ("desk", "paper"):
        flags = ["--paper-scale"] if scale == "paper" else []
        for preset in preset_names():
            out = work / scale
            code = main(["preset", preset, "--out", str(out), "--quiet",
                         "--seeds", *map(str, PRESET_SEEDS), *flags])
            if code:
                results[f"preset/{scale}/{preset}"] = ["error",
                                                       f"exit {code}"]
            for run in sorted((out / preset).glob("*/seed-*")):
                record(f"preset/{scale}/{preset}/{run.parent.name}/"
                       f"{run.name}", run)
    for i, (name, overrides, seed) in enumerate(runs):
        out = work / "runs" / str(i)
        try:
            result = run_scenario(
                config_from_mapping({**overrides, "seed": seed}), out_dir=out)
        except Exception as exc:        # a failing run is a difference
            results[name] = ["error", f"{type(exc).__name__}: {exc}"]
            continue
        record(name, out, states_digest(result.states))
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
        (tmp / "runs.json").write_text(json.dumps(corpus()))
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
    print(f"{len(results['change'])} runs, {len(diffs)} differ, "
          f"{time.monotonic() - start:.1f} s")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
