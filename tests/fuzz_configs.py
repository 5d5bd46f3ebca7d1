"""The seeded fuzz corpus of scenario configs.

`fuzz_configs()` draws 100 config mappings from one fixed seed: each field
takes one of `FUZZ_VALUES`, values at and near its bounds, and each run a
short duration and a double-spend plan whose counts reach past the
injection window of short runs. The fixed `INT64_EDGES` and
`INT_FRACTIONS` follow them. Some configs fail validation on purpose.
`tests/test_config.py` runs every config that validates, and
`tools/identity.py` adds all of them to its corpus. The module is pure
Python and imports nothing from `chainmesh`, so both sides of an identity
check run the same draws.
"""

from __future__ import annotations

import random
from typing import Iterator

#: values at and near each field's bounds; durations are drawn separately
FUZZ_VALUES = {
    "chains": (2, 3, 4, 10),
    "fleet_size": (1, 2, 3, 10, 21, 40),
    "accounts": (1, 2, 3, 10, 100),
    "tip_sample": (1, 2, 5),
    "straggler_fraction": (0.0, 0.05, 0.5, 0.95, 1.0),
    "confirm_threshold": (0.01, 0.34, 0.5, 0.5000001, 0.67, 1.0),
    "spam_fraction": (0.0, 0.0, 0.01, 0.5, 0.99, 1.0),
    "adversary_fraction": (0.0, 0.1, 0.5, 1.0),
    "invalid_tx_fraction": (0.0, 0.1, 0.5, 1.0),
    "coding": (True, False),
    "issuance_rate": (1.0, 7.0, 60.0, 240.0),
    "genesis_balance": (0, 1, 2, 1000, 2**62),
    "active_rows": (0, 1, 2, 10),
    "amount_max": (1, 2, 10, 2**40),
    "link_latency_ms": (0.001, 100.0),
    "bandwidth_mbps": (0.01, 20.0),
    "task_timeout_ms": (0.001, 500.0),
    "worker_ms_per_row": (0.001, 2.0),
    "fallback_ms_per_row": (0.001, 40.0),
    "ledger_interval_s": (0.5, 5.0),
    "tip_pool_sample_s": (0.25, 1.0),
    "seed": (0, 1, 2**40),
}


#: the int64 edges of the ledger's two sizing fields, each a short run at
#: seed 0: the largest genesis balance overflows by name, plain and with
#: spam; the largest honest amount runs; one past either fails validation
INT64_EDGES = (
    {"genesis_balance": 2**63 - 1},
    {"genesis_balance": 2**63 - 1, "spam_fraction": 0.5},
    {"amount_max": 2**63 - 2},
    {"genesis_balance": 2**63},
    {"amount_max": 2**63 - 1},
)

#: fractions given as ints, which the exact parse of a written ratio reads
#: as they are: a straggler profile and a DAG threshold, plain and with spam,
#: where validation parses the threshold too
INT_FRACTIONS = (
    {"straggler_fraction": 0, "confirm_threshold": 1},
    {"straggler_fraction": 0, "confirm_threshold": 1, "spam_fraction": 0.5},
)


def fuzz_configs(count: int = 100,
                 seed: int = 20240611) -> Iterator[dict]:
    """The fuzz corpus: `count` config mappings drawn from `seed`, then
    `INT64_EDGES` and `INT_FRACTIONS`."""
    rng = random.Random(seed)
    for _ in range(count):
        data = {name: rng.choice(values)
                for name, values in FUZZ_VALUES.items()}
        data["duration_min"] = round(rng.uniform(0.1, 0.25), 3)
        data["double_spend"] = {"pairs": rng.choice((0,) * 6 + (1, 3)),
                                "regular": rng.choice((0,) * 6 + (2, 20))}
        yield data
    for edge in INT64_EDGES + INT_FRACTIONS:
        yield {**edge, "duration_min": 0.2, "seed": 0}
