"""Compare the run or set-up time of two commits on one benchmark workload.

    python3 tools/compare.py PARENT CHANGE --workload W [--pairs N] [--seed S]
                             [--metric run_s|setup_s]

Both commits are exported with `git archive` from the repository this script
lives in. Each pair runs the workload once on each side, every run in a fresh
`perfbench/child.py` process of that side's own checkout, one at a time; the
parent goes first in odd pairs and the change first in even ones, so a drift
in the machine's load falls on both sides alike (Kalibera and Jones,
"Rigorous Benchmarking in Reasonable Time", ISMM 2013). The workload's
config comes from this script's checkout, so both sides run the same one.

For each side it prints the median and quartiles of the metric, timed by
wall clock in the child (`run_s`, or `setup_s`: the median of the child's
set-up samples), and of the child's CPU time, user plus system, taken from
`getrusage(RUSAGE_CHILDREN)` before and after the child. CPU time counts
the whole child, imports and set-up included, and is less sensitive than wall
time to other tenants of a shared machine. Then, for both, the pairs the
change won and the ratio of the medians, change over parent. Last comes the
verdict on the metric: a gain is shown only when the change won at least
nine tenths of the pairs, ties counting for neither, and the medians differ
by more than the parent's interquartile range, computed on the unrounded
times. Times print to 4 significant digits, so a set-up of about a
millisecond reads 0.001134, not 0.0011. A pair whose two artifact digests
differ is reported, and the exit code is then 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True      # write nothing into either checkout
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tools"))

from identity import export                  # noqa: E402
from run import DEADLINE_S, THREAD_VARS     # noqa: E402
from workloads import WORKLOADS              # noqa: E402


def run_child(tree: Path, config: dict, seed: int, out: Path) -> dict:
    """One run of the checkout at `tree`: the child's JSON record, with its
    CPU time added as `cpu_s`."""
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "child.py"), "--config",
         json.dumps(config), "--seed", str(seed), "--out", str(out)],
        env=env, stdout=subprocess.PIPE, text=True, timeout=DEADLINE_S,
        check=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["cpu_s"] = ((after.ru_utime - before.ru_utime)
                       + (after.ru_stime - before.ru_stime))
    record["setup_s"] = statistics.median(record["setup_s"])
    return record


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def won(runs: dict[str, list[dict]], metric: str) -> int:
    """Pairs in which the change read lower; ties count for neither."""
    return sum(c[metric] < p[metric]
               for p, c in zip(runs["parent"], runs["change"]))


def report(runs: dict[str, list[dict]], claimed: str) -> list[str]:
    """Median and quartiles per side, pairs won and ratio of medians, of
    `claimed` and of CPU time; then the verdict on `claimed`."""
    lines = []
    pairs = len(runs["parent"])
    for metric in (claimed, "cpu_s"):
        medians = {}
        for side, records in runs.items():
            q1, median, q3 = quartiles([r[metric] for r in records])
            medians[side] = median
            lines.append(f"{side:7s} {metric}  median {median:.4g}  "
                         f"q1 {q1:.4g}  q3 {q3:.4g}  "
                         f"(q3 - q1 = {(q3 - q1) / median:.1%} of median)")
        ratio = medians["change"] / medians["parent"]
        lines.append(f"{metric}: change won {won(runs, metric)} of {pairs} "
                     f"pairs; ratio of medians {ratio:.3f} "
                     f"({ratio - 1:+.1%})")
    q1, median, q3 = quartiles([r[claimed] for r in runs["parent"]])
    gap = median - statistics.median(r[claimed] for r in runs["change"])
    wins = won(runs, claimed)
    shown = 10 * wins >= 9 * pairs and gap > q3 - q1
    lines.append(f"verdict on {claimed}: won {wins} of {pairs} pairs "
                 f"(need 9 in 10); median gap {gap:.4g} against the "
                 f"parent's q3 - q1 {q3 - q1:.4g}: gain "
                 f"{'shown' if shown else 'NOT shown'}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Compare the run or set-up time of two commits on one "
                    "workload in alternating fresh-process pairs.")
    parser.add_argument("parent", help="parent commit")
    parser.add_argument("change", help="changed commit")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--metric", choices=("run_s", "setup_s"),
                        default="run_s", help="the timing compared")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    config = WORKLOADS[args.workload]["config"]
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    mismatched = 0
    with tempfile.TemporaryDirectory(prefix="chainmesh-compare-") as tmp:
        tmp = Path(tmp)
        trees = {}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            try:
                sha = export(rev, tmp / side)
            except subprocess.CalledProcessError as exc:
                print(f"error: cannot export {rev!r}: {exc}",
                      file=sys.stderr)
                return 2
            trees[side] = tmp / side
            print(f"{side}: {rev} = {sha}")
        print(f"workload {args.workload}, seed {args.seed}, "
              f"{args.pairs} pairs")
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                runs[side].append(run_child(trees[side], config, args.seed,
                                            tmp / "out"))
            p, c = runs["parent"][-1], runs["change"][-1]
            same = p["digest"] == c["digest"]
            mismatched += not same
            m = args.metric
            print(f"pair {pair:2d}: {m} parent {p[m]:.4g} change "
                  f"{c[m]:.4g}; cpu_s parent {p['cpu_s']:.4g} change "
                  f"{c['cpu_s']:.4g}"
                  + ("" if same else "; DIGESTS DIFFER"), flush=True)
    for line in report(runs, args.metric):
        print(line)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
