"""chainmesh benchmark: run one workload in fresh single-threaded processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload back to back, one scenario per child process and never two
at once (a closed loop with one client), as often as fits in `--seconds`, and
at least twice. Prints every metric with its unit, sample count,
median and quartile spread, then, as the last line, one JSON object with the
end-to-end metrics of `BENCHMARK.json` (`--trace 0`) or its per-layer
metrics (`--trace 1`, which adds one traced run after the untraced ones).

A run fails if it raises, if its report says conservation broke, or if its
artifact digest or block counts differ from the other runs of the same
workload and seed. Exits non-zero without a result when no run succeeds or
the simulator's sources are missing.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from tracer import PER_LAYER_UNITS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = HERE / "_runs"

MIN_RUNS = 2                # a determinism check needs a pair
DEADLINE_S = 170.0          # the whole command must end within 180 s

E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "wall_s": "s",
    "blocks_per_s": "1/s",
    "peak_rss_mb": "MB",
    "failed_share": "ratio",
}

# Each child runs one thread, so runs are comparable on any core count.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")


def run_child(config: dict, seed: int, traced: bool, timeout: float,
              spans: Path) -> dict | None:
    """One scenario in a fresh process; None when it raised or timed out."""
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    RUNS_DIR.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix="run-", dir=RUNS_DIR))
    cmd = [sys.executable, str(HERE / "child.py"), "--config",
           json.dumps(config), "--seed", str(seed), "--out", str(out)]
    if traced:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        print(f"run timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(out, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def gate(records: list[dict | None]) -> list[bool]:
    """Per run: did it fail the correctness gate?"""
    keys = [(r["digest"], r["attached"], r["confirmed"])
            for r in records if r is not None]
    ranked = collections.Counter(keys).most_common(2)
    agreed = None
    if ranked and (len(ranked) == 1 or ranked[0][1] > ranked[1][1]):
        agreed = ranked[0][0]
    return [r is None or not r["conservation_ok"]
            or (r["digest"], r["attached"], r["confirmed"]) != agreed
            for r in records]


def describe(values: list[float]) -> str:
    n = len(values)
    med = statistics.median(values)
    if n < 2:
        return f"n={n:<3} median={med:<14.6g}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else 0.0
    return (f"n={n:<3} median={med:<14.6g} q1={q1:<12.6g} q3={q3:<12.6g} "
            f"spread={spread:.3%}")


def measure(config: dict, seed: int, seconds: float, trace: bool,
            spans: Path) -> tuple[list[dict | None], list[bool]]:
    """Run the scenario as often as fits in `seconds` (at least `MIN_RUNS`
    times), then once traced if asked; return every run's record and gate
    verdict."""
    start = perf_counter()

    def remaining() -> float:
        return DEADLINE_S - (perf_counter() - start)

    records: list[dict | None] = []
    durations: list[float] = []
    while remaining() > 0:
        elapsed = perf_counter() - start
        if (len(records) >= MIN_RUNS
                and elapsed + statistics.median(durations) > seconds):
            break
        records.append(run_child(config, seed, False, remaining(), spans))
        durations.append(perf_counter() - start - elapsed)
    if trace:
        records.append(run_child(config, seed, True, remaining(), spans))
    return records, gate(records)


def report(records: list[dict | None], failed: list[bool], trace: bool,
           listed: list[dict]) -> dict | None:
    """Print every metric and return the result object holding the `listed`
    metrics, or None when there is nothing to report."""
    for i, (r, bad) in enumerate(zip(records, failed)):
        tag = "traced" if r is not None and "layers" in r else "run"
        detail = ("raised or timed out" if r is None else
                  f"digest={r['digest']} attached={r['attached']} "
                  f"confirmed={r['confirmed']} "
                  f"conservation_ok={r['conservation_ok']} "
                  f"run_s={r['run_s']:.4f} "
                  f"peak_rss_mb={r['peak_rss_mb']:.1f}")
        print(f"{tag} {i}: {'FAILED' if bad else 'ok'} {detail}")
    ok = [r for r, bad in zip(records, failed)
          if not bad and "layers" not in r]
    if not ok:
        print("no successful untraced run", file=sys.stderr)
        return None

    samples = {
        "setup_s": [s for r in ok for s in r["setup_s"]],
        "run_s": [r["run_s"] for r in ok],
        "wall_s": [r["wall_s"] for r in ok],
        "blocks_per_s": [r["attached"] / r["run_s"] for r in ok],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
        "failed_share": [sum(failed) / len(records)],
    }
    for name, values in samples.items():
        print(f"{name:<40} {E2E_UNITS[name]:<6} {describe(values)}")
    metrics = {name: statistics.median(values)
               for name, values in samples.items()}
    units = E2E_UNITS

    if trace:
        traced = records[-1]
        if failed[-1] or "layers" not in traced:
            print("traced run failed", file=sys.stderr)
            return None
        wall = statistics.median(traced["setup_s"]) + traced["run_s"] \
            + traced["write_s"]
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = wall - statistics.median(
            samples["wall_s"])
        for name in traced["absent"]:
            print(f"absent boundary: {name}")
        for name, unit in PER_LAYER_UNITS.items():
            print(f"{name:<40} {unit:<6} n=1   value={metrics[name]:.6g}")
        units = PER_LAYER_UNITS

    return {
        "correct": not any(failed),
        "attempted": len(records),
        "failed": sum(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": units[m["name"]]} for m in listed},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "chainmesh" / "__init__.py").is_file():
        print(f"no chainmesh sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    spans = RUNS_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
    print(f"# {args.workload} seed={args.seed}: {workload['why']}")
    records, failed = measure(workload["config"], args.seed, args.seconds,
                              bool(args.trace), spans)
    result = report(records, failed, bool(args.trace),
                    declared["per_layer" if args.trace else "end_to_end"])
    if result is None:
        return 1
    if args.trace:
        print(f"spans written to {spans.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
