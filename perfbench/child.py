"""One benchmark run: build, run and write one scenario in this process.

    python3 perfbench/child.py --config JSON --seed N --out DIR [--spans FILE]

`--config` holds `ScenarioConfig` overrides; the seed becomes the scenario
seed. Only the public entry points are called: `Simulation`, its `run`, and
`write_artifacts`. With `--spans` the run is traced and its spans are written
to that file. Prints one JSON line: timings, peak RSS, the SHA-256 over the
six artifacts, block counts and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parents[1] / "src"

ARTIFACTS = ("tip_pool.csv", "finality.csv", "throughput.csv",
             "metrics.json", "dag_snapshot.txt", "events.log")

# Cheap set-ups are repeated and their median reported; one set-up that
# already takes this long is not repeated.
SETUP_REPEATS = 5
SETUP_BUDGET_S = 2.0


def artifact_digest(out: Path) -> tuple[str, int]:
    """SHA-256 over the six artifacts in a fixed order, and their size."""
    h = hashlib.sha256()
    size = 0
    for name in ARTIFACTS:
        data = (out / name).read_bytes()
        h.update(f"{name} {len(data)}\n".encode())
        h.update(data)
        size += len(data)
    return h.hexdigest(), size


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import chainmesh.engine
    import chainmesh.metrics
    from chainmesh.config import config_from_mapping
    if Path(chainmesh.engine.__file__).resolve().parent != SRC / "chainmesh":
        sys.exit(f"chainmesh imported from {chainmesh.engine.__file__}, "
                 f"not from {SRC}")

    cfg = config_from_mapping({**json.loads(args.config), "seed": args.seed})
    tracer = None
    if args.spans is not None:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(chainmesh.engine, chainmesh.metrics)

    setups: list[float] = []
    while True:
        t0 = perf_counter()
        sim = chainmesh.engine.Simulation(cfg)
        setups.append(perf_counter() - t0)
        if (tracer is not None or len(setups) >= SETUP_REPEATS
                or sum(setups) >= SETUP_BUDGET_S):
            break
        del sim                     # never hold two simulations at once
    t0 = perf_counter()
    result = sim.run()
    run_s = perf_counter() - t0
    t0 = perf_counter()
    chainmesh.metrics.write_artifacts(args.out, result.recorder, result.report,
                                      result.snapshot_lines,
                                      result.event_lines)
    write_s = perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digest, artifact_bytes = artifact_digest(args.out)

    record = {
        "setup_s": setups,
        "run_s": run_s,
        "write_s": write_s,
        "wall_s": statistics.median(setups) + run_s + write_s,
        "peak_rss_mb": rss_mb,
        "attached": result.report.attached_blocks,
        "confirmed": result.report.confirmed_blocks,
        "conservation_ok": bool(result.report.conservation_ok),
        "digest": digest,
    }
    if tracer is not None:
        # one set-up only, so every span lies inside this wall time
        record["layers"] = tracer.summary(setups[0] + run_s + write_s,
                                          result.states, artifact_bytes)
        record["absent"] = tracer.absent
        tracer.write_spans(args.spans)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
