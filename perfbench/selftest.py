"""Self-test of the benchmark harness on a tiny desk scenario.

    python3 perfbench/selftest.py

Runs the scenario twice untraced and once traced, then checks that every
metric `BENCHMARK.json` names is emitted with its declared unit, that the
traced self times plus `engine.self_s` add up to the traced wall time, and
that all runs give the same artifact digest. Exits non-zero on a failure.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import types

import run
from tracer import BOUNDARIES, PER_LAYER_UNITS, Tracer

# desk defaults for a quarter of a simulated minute: about 0.1 s of work
SELFTEST_CONFIG = {"duration_min": 0.25}


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    spans = run.RUNS_DIR / "selftest.spans.jsonl"
    records, failed = run.measure(SELFTEST_CONFIG, seed=0, seconds=0,
                                  trace=True, spans=spans)
    problems = []
    if any(failed) or len(records) != run.MIN_RUNS + 1:
        problems.append(f"runs failed the gate: {failed}")
    digests = {r["digest"] for r in records if r is not None}
    if len(digests) != 1:
        problems.append(f"runs disagree on the artifact digest: {digests}")

    for key, trace in (("end_to_end", False), ("per_layer", True)):
        result = run.report(records, failed, trace, declared[key])
        if result is None:
            problems.append(f"no {key} result")
            continue
        emitted = result["metrics"]
        for m in declared[key]:
            got = emitted.get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                problems.append(f"{key} metric {m['name']} [{m['unit']}] "
                                f"emitted as {got}")

    traced = records[-1] if records else None
    if traced is not None and "layers" in traced:
        layers = traced["layers"]
        missing = set(PER_LAYER_UNITS) - set(layers) - {"trace.overhead_s"}
        if missing:
            problems.append(f"traced run lacks {sorted(missing)}")
        wall = (statistics.median(traced["setup_s"]) + traced["run_s"]
                + traced["write_s"])
        covered = sum(layers[f"{b}.s"] for b in BOUNDARIES)
        if not math.isclose(covered + layers["engine.self_s"], wall,
                            rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"self times {covered} + engine "
                            f"{layers['engine.self_s']} != wall {wall}")
        if traced["absent"]:
            problems.append(f"absent boundaries: {traced['absent']}")
        if not spans.is_file():
            problems.append("spans were not written")

    # a boundary a refactor removed is recorded as absent, not an error
    bare = Tracer()
    bare.install(types.SimpleNamespace(), types.SimpleNamespace())
    if set(bare.absent) != set(BOUNDARIES):
        problems.append(f"missing boundaries not all absent: {bare.absent}")

    for p in problems:
        print(f"SELFTEST FAIL: {p}")
    print("SELFTEST", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
