"""Scenario workloads of the chainmesh benchmark.

Each workload is a set of `ScenarioConfig` overrides on top of the defaults
(desk scale: 10 chains, 20 workers, 100 accounts, coded). The benchmark's
workload seed becomes the scenario seed; the simulator sees nothing else.

This module is plain data so that the parent harness can read it without
importing the simulator.
"""

WORKLOADS = {
    "spam-k2-16m": {
        "config": {"tip_sample": 2, "spam_fraction": 0.55,
                   "duration_min": 16.0},
        "why": ("Tip pool grows past the critical spam share, so DAG "
                "confirmation rescans a growing pending set and dominates "
                "while balances stay small."),
    },
    "paper-plain-2m": {
        "config": {"fleet_size": 100, "accounts": 1000, "coding": False,
                   "duration_min": 2.0},
        "why": ("Dense 1000x1000 transfer and state matrices dominate time "
                "and memory; the coded planner is bypassed and the DAG is "
                "tiny."),
    },
    # Kept for manual runs and left out of BENCHMARK.json: its set-up cost
    # depends on the seed by orders of magnitude (group planner rank tests
    # on 64-worker groups: 11 to 720 over seeds 0-19; seed 6 takes 230 s to
    # set up), so no bound holds across seeds and some seeds overrun the
    # per-run time limit. Re-add it once the planner is seed-insensitive.
    "paper-coded-1m": {
        "config": {"fleet_size": 100, "accounts": 1000, "coding": True,
                   "duration_min": 1.0},
        "why": ("Coded group planning dominates set-up; same balance load as "
                "paper-plain-2m through the coded path, so a planner change "
                "shows here only."),
    },
}
