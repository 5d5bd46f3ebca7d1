"""Compare the run or set-up time of two commits on one benchmark workload.

    python3 tools/compare.py PARENT CHANGE --workload W [--pairs N] [--seed S]
                             [--metric run_s|setup_s] [--record PATH]

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
time to other tenants of a shared machine. The same readings give the child's
minor and major page faults, `minflt` and `majflt`, which tell a change in
where the heap lies, trimmed and faulted back in, from a change in the code.
Then, for both, the pairs the change won and the ratio of the medians, change
over parent. Last comes the verdict on the metric: a gain is shown only when
the change won at least nine tenths of the pairs, ties counting for neither,
and the medians differ by more than the parent's interquartile range,
computed on the unrounded times. Times print to 4 significant digits, so a
set-up of about a millisecond reads 0.001134, not 0.0011. A pair whose two
artifact digests differ is reported, and the exit code is then 1.

With `--record PATH` the comparison is also written as JSON, in the layout
of `BENCH_14.json`: `what` (the change's commit subject), `parent` and
`change` (their commits), `host`, `method`, `summary` (per side the median,
quartiles and count of the metric, of CPU time, of the other timings, of
the peak RSS and of the minor faults, with the pairs won, the ratio of
medians and the verdict of each) and `runs` (every child record, with its
pair, side and whether it ran first). A record that already exists at PATH,
for the same two commits, gains this comparison as its next session, so one
file collects the workloads, seeds and metrics of one change.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
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
    CPU time added as `cpu_s` and its page faults as `minflt` and
    `majflt`."""
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
    record["minflt"] = after.ru_minflt - before.ru_minflt
    record["majflt"] = after.ru_majflt - before.ru_majflt
    record["setup_samples_s"] = record["setup_s"]
    record["setup_s"] = statistics.median(record["setup_s"])
    return record


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def won(runs: dict[str, list[dict]], metric: str) -> int:
    """Pairs in which the change read lower; ties count for neither."""
    return sum(c[metric] < p[metric]
               for p, c in zip(runs["parent"], runs["change"]))


def summarize(runs: dict[str, list[dict]], metric: str) -> dict:
    """Median, quartiles and count per side, pairs won, ratio of medians
    and the verdict on `metric`: a gain is shown when the change won at
    least nine tenths of the pairs and the medians differ by more than the
    parent's interquartile range."""
    entry: dict = {"metric": metric}
    for side, records in runs.items():
        q1, median, q3 = quartiles([r[metric] for r in records])
        entry[side] = {"median": median, "q1": q1, "q3": q3,
                       "n": len(records)}
    parent, change = entry["parent"], entry["change"]
    pairs, wins = len(runs["parent"]), won(runs, metric)
    gap = parent["median"] - change["median"]
    shown = 10 * wins >= 9 * pairs and gap > parent["q3"] - parent["q1"]
    entry.update(change_better_pairs=wins, pairs=pairs,
                 ratio=change["median"] / parent["median"], gap=gap,
                 verdict="gain shown" if shown else "gain NOT shown")
    return entry


def report(summaries: list[dict]) -> list[str]:
    """Median and quartiles per side, pairs won and ratio of medians, of
    each summary; then the verdict on the first, the claimed metric."""
    lines = []
    for entry in summaries:
        metric = entry["metric"]
        for side in ("parent", "change"):
            s = entry[side]
            lines.append(f"{side:7s} {metric}  median {s['median']:.4g}  "
                         f"q1 {s['q1']:.4g}  q3 {s['q3']:.4g}  (q3 - q1 = "
                         f"{(s['q3'] - s['q1']) / s['median']:.1%} of "
                         "median)")
        ratio = entry["ratio"]
        lines.append(f"{metric}: change won {entry['change_better_pairs']} "
                     f"of {entry['pairs']} pairs; ratio of medians "
                     f"{ratio:.3f} ({ratio - 1:+.1%})")
    claimed = summaries[0]
    parent = claimed["parent"]
    lines.append(f"verdict on {claimed['metric']}: won "
                 f"{claimed['change_better_pairs']} of {claimed['pairs']} "
                 f"pairs (need 9 in 10); median gap {claimed['gap']:.4g} "
                 f"against the parent's q3 - q1 "
                 f"{parent['q3'] - parent['q1']:.4g}: "
                 f"{claimed['verdict']}")
    return lines


#: the child's measures summarised in a record beside the claimed one;
#: not `majflt`, whose median is usually 0, so no ratio of medians exists
RECORDED = ("setup_s", "run_s", "wall_s", "peak_rss_mb", "minflt")

METHOD = ("Each session is one run of tools/compare.py: pairs of fresh "
          "perfbench/child.py processes, one per side, from git archive "
          "exports of both commits, run one at a time with every numeric "
          "library held to one thread; the parent runs first in odd pairs "
          "and the change first in even ones. A child builds the scenario "
          "up to five times (setup_s is the median of those set-ups, "
          "setup_samples_s each one), then runs it once (run_s) and writes "
          "its artifacts; cpu_s is the child's user plus system time, and "
          "minflt and majflt its minor and major page faults. A summary "
          "entry's verdict reads 'gain shown' when the change won "
          "at least nine tenths of the pairs and the medians differ by more "
          "than the parent's q3 - q1.")


def open_record(path: Path, shas: dict[str, str]) -> dict:
    """The record at `path` of the commits `shas`, or a new one."""
    if path.exists():
        data = json.loads(path.read_text())
        if {side: data[side]["sha"] for side in shas} != shas:
            raise ValueError(f"{path} records other commits")
        return data
    subject = subprocess.run(
        ["git", "-C", str(ROOT), "log", "-1", "--format=%s", shas["change"]],
        capture_output=True, text=True, check=True).stdout.strip()
    return {"what": subject, **{side: {"sha": sha}
                                for side, sha in shas.items()},
            "host": {"python": platform.python_version(),
                     "numpy": importlib.metadata.version("numpy"),
                     "cores": os.cpu_count(),
                     "machine": f"{platform.system()} {platform.machine()}"},
            "method": METHOD, "summary": [], "runs": []}


def add_session(data: dict, session: dict, summaries: list[dict],
                runs: list[dict]) -> None:
    """Append one comparison to the record as its next session."""
    session = {**session, "session": 1 + max(
        (e["session"] for e in data["summary"]), default=0)}
    data["summary"] += [{**session, **entry} for entry in summaries]
    data["runs"] += [{**session, **run} for run in runs]


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
    parser.add_argument("--record", type=Path, metavar="PATH",
                        help="also write the comparison as JSON to PATH, "
                             "or add it to the record of the same commits "
                             "there")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    config = WORKLOADS[args.workload]["config"]
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    ordered: list[dict] = []        # every run, in the order it ran
    shas: dict[str, str] = {}
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
            shas[side] = sha
            print(f"{side}: {rev} = {sha}")
        if args.record is not None:
            try:
                data = open_record(args.record, shas)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        print(f"workload {args.workload}, seed {args.seed}, "
              f"{args.pairs} pairs")
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                runs[side].append(run_child(trees[side], config, args.seed,
                                            tmp / "out"))
                ordered.append({"pair": pair, "side": side,
                                "first": side == order[0],
                                "result": runs[side][-1]})
            p, c = runs["parent"][-1], runs["change"][-1]
            same = p["digest"] == c["digest"]
            mismatched += not same
            m = args.metric
            print(f"pair {pair:2d}: {m} parent {p[m]:.4g} change "
                  f"{c[m]:.4g}; cpu_s parent {p['cpu_s']:.4g} change "
                  f"{c['cpu_s']:.4g}"
                  + ("" if same else "; DIGESTS DIFFER"), flush=True)
    summaries = [summarize(runs, metric) for metric in (args.metric, "cpu_s")]
    for line in report(summaries):
        print(line)
    if args.record is not None:
        # the record also summarises every other timing and the peak RSS
        summaries += [summarize(runs, metric) for metric in RECORDED
                      if metric != args.metric]
        add_session(data, {"workload": args.workload, "seed": args.seed,
                           "claimed": args.metric}, summaries, ordered)
        args.record.write_text(json.dumps(data, indent=1) + "\n")
        print(f"recorded in {args.record}")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
