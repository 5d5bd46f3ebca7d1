"""Every named run beside the presets, and the digests that compare them.

`RUNS` holds each run as its name, its `ScenarioConfig` overrides and its
seeds, in three groups:

- `PINS`: scenarios the golden preset suite does not cover, each with the
  SHA-256 of its six artifacts (`artifact_digest`) and its attached and
  confirmed block counts at seed 0; each runs at seeds 0 and 3;
- `EXTRA_RUNS`: a second seed of the paper-scale coded run, 160 chains, a
  coded fleet of 1000, two coded stalls and a tip sample far above the
  chains;
- the seeded fuzz corpus of `fuzz_configs()`, at and near each field's
  bounds, some of which fail validation or overflow by name.

`tests/test_paper_scale_digests.py` checks the pins, `tests/test_reach.py`
runs every run at its first seed, `tests/test_config.py` runs the fuzz
configs, and `tools/identity.py` runs every run at every seed on two commits.
The module is pure Python and imports nothing from `chainmesh`, so both sides
of an identity check run the same corpus.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path
from typing import Iterator, NamedTuple

ARTIFACTS = ("tip_pool.csv", "finality.csv", "throughput.csv",
             "metrics.json", "dag_snapshot.txt", "events.log")


class Run(NamedTuple):
    name: str
    overrides: dict
    seeds: tuple[int, ...]


# -- pins -------------------------------------------------------------------

#: name -> (overrides, six-artifact digest at seed 0, attached, confirmed):
#: - the two benchmark scenarios: a 1000-account, 100-worker uncoded run
#:   and a 16-minute spam run (55% spam, two tips per sample);
#: - the coded paper-scale run, whose 100 workers form groups of 64, 32
#:   and 4;
#: - an uncoded fleet of 7 over 100 accounts at straggler rate 0.3, where
#:   the rows split unevenly (14 or 15 per worker) and the silent workers'
#:   rows fall back to central recomputation;
#: - a coded fleet of 20 at straggler rate 0.9, where the 4-group cannot
#:   freeze 4 positions, no layout exists and every honest stage stalls;
#: - a 4-minute spam run (20% spam) with three double-spend pairs and ten
#:   tagged regular transactions, which pins the ingestion of conflicting
#:   blocks into the ledger book;
#: - a 4-minute run over two chains, where every block pays the one other
#:   chain;
#: - a 4-minute spam run (30% spam) over 64 chains, whose blocks carry many
#:   distinct chain masks and so pin the stake each mask confers;
#: - two runs whose ledger-window and tip-pool cadences are not binary
#:   fractions (0.7 s and 0.3 s, 0.6 s and 0.3 s): their times accumulate
#:   rounding, and at 0.6/0.3 windows, samples and epochs fall due at equal
#:   times, so the event queue's order among them is pinned;
#: - a run with 10-second ledger windows, whose first window falls due with
#:   chain 9's first slot: both wake-ups are queued as the run starts, so
#:   the order in which the run queues its processes is pinned;
#: - a coded fleet of 21 at straggler rate 0.5, where no layout exists and
#:   every epoch of every chain is skipped: only the windows and the
#:   tip-pool samples run;
#: - a 3-minute spam run (30% spam) over 7 chains with five double-spend
#:   pairs and twenty tagged regular transactions, whose 105 honest slots
#:   split unevenly (18 or 17 per honest chain), so the carriers' chains pin
#:   the round-robin deal;
#: - a 1-minute run at 4 blocks per minute with one double-spend pair, where
#:   only 4 of the 10 honest chains get a slot and the rest issue nothing.
PINS = {
    "paper-plain-2m": (
        {"fleet_size": 100, "accounts": 1000, "coding": False,
         "duration_min": 2.0},
        "538d8c46e57a8b9a18c124e03ed93630aec48d508c741aa2f46c0efdb878e338",
        79, 43),
    "spam-k2-16m": (
        {"tip_sample": 2, "spam_fraction": 0.55, "duration_min": 16.0},
        "9b8b351bde6c08d3e4e3820b36a6b4cf0076808e5be99ca2a94288156612ea04",
        958, 42),
    "paper-coded-1m": (
        {"fleet_size": 100, "accounts": 1000, "coding": True,
         "duration_min": 1.0},
        "3029d1484566730d876f7295718ad77a6897f08cc767d5fd6feac7460f42df8b",
        57, 50),
    "plain-fleet7-uneven-fallback": (
        {"fleet_size": 7, "accounts": 100, "coding": False,
         "straggler_fraction": 0.3},
        "e5471810bd5af1c833c0ecc38aec69b70bcafebd5dbd30a61ff63e40465be42f",
        114, 94),
    "coded-fleet20-no-layout": (
        {"fleet_size": 20, "straggler_fraction": 0.9},
        "cf4273a5905e9dd9ff13c646778e40e400041f535468089464e11044f4674f36",
        0, 0),
    "spam-doublespend-4m": (
        {"spam_fraction": 0.2, "duration_min": 4.0,
         "double_spend": {"pairs": 3, "regular": 10}},
        "fd8c58f279f8b052d524ca423b41b812d75df9bb1591a52e6beeaf2520faee69",
        237, 167),
    "two-chains-4m": (
        {"chains": 2, "duration_min": 4.0},
        "68b0a997e091be5a9738cd8b882969ec26f3337e1a2f1c4790d7a77b5346e949",
        238, 237),
    "chains64-spam-4m": (
        {"chains": 64, "spam_fraction": 0.3, "duration_min": 4.0},
        "277ba9829d053c8478f64e9b0b1505cf22fc220bcf0aa54b3624d6add189139b",
        237, 124),
    "intervals-0.7-0.3": (
        {"ledger_interval_s": 0.7, "tip_pool_sample_s": 0.3},
        "cf95e228314b3b4b013a2ab78aafd1a2d6f99a849b70d324a10c4ea220b0bb9a",
        118, 112),
    "intervals-0.6-0.3": (
        {"ledger_interval_s": 0.6, "tip_pool_sample_s": 0.3},
        "2893417a62683ccb0c34076a6587b7634e2242ee46c029b6f4d5f599460069b5",
        118, 112),
    "window-ties-first-slot": (
        {"ledger_interval_s": 10.0},
        "55f0e55846b5c942d4a86788f2bf8c72a89a8cb605ab022ace09ea42693241a3",
        118, 112),
    "coded-fleet21-all-skip": (
        {"fleet_size": 21, "straggler_fraction": 0.5},
        "9ffe4587f06912af83fb972b5fca379b158f020811dd37dcc4b318ec0fc75408",
        0, 0),
    "chains7-uneven-slots-doublespend-3m": (
        {"chains": 7, "spam_fraction": 0.3, "issuance_rate": 50.0,
         "duration_min": 3.0, "double_spend": {"pairs": 5, "regular": 20}},
        "0d968a8a4586723a0acda3b6f0c1a166cce320823776e60656475066121615b9",
        148, 84),
    "slotless-honest-chains-1m": (
        {"issuance_rate": 4.0, "duration_min": 1.0,
         "double_spend": {"pairs": 1}},
        "0cff577670620919379b466843a4d097831215a6be9da5510e1bce8d4e53b836",
        3, 0),
}

#: seed 0 is the pinned one
PIN_SEEDS = (0, 3)

# -- extra runs -------------------------------------------------------------

EXTRA_RUNS = (
    # a run draws no coded fleet, so its group layout is seed 0's, and only
    # its issuance, committee and transfer draws differ
    Run("paper-coded-1m-seed6", PINS["paper-coded-1m"][0], (6,)),
    Run("chains160-8m", {"chains": 160, "duration_min": 8.0}, (0,)),
    # the 512-group has 154 frozen positions in the layout every chain reads
    Run("coded-fleet1000-r30-1m", {"fleet_size": 1000, "coding": True,
                                   "straggler_fraction": 0.3,
                                   "duration_min": 1.0}, (0,)),
    # a group has no data position, so no chain has a layout
    Run("coded-fleet1-r50-stall", {"fleet_size": 1, "coding": True,
                                   "straggler_fraction": 0.5}, (0,)),
    Run("coded-fleet20-r100-stall", {"fleet_size": 20, "coding": True,
                                     "straggler_fraction": 1.0}, (0,)),
    # far above the chains, so a tip batch is bounded by the chains
    Run("tip-sample10000", {"tip_sample": 10000}, (0,)),
)

# -- fuzz -------------------------------------------------------------------

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
    """The fuzz corpus: `count` config mappings, seed included, drawn from
    `seed`: each field takes one of `FUZZ_VALUES`, each run a short duration
    and a double-spend plan whose counts reach past the injection window of
    short runs. `INT64_EDGES` and `INT_FRACTIONS` follow them."""
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


# -- the corpus -------------------------------------------------------------

RUNS = (
    *(Run(name, overrides, PIN_SEEDS)
      for name, (overrides, *_) in sorted(PINS.items())),
    *EXTRA_RUNS,
    *(Run(f"fuzz-{i:03d}", {k: v for k, v in data.items() if k != "seed"},
          (data["seed"],))
      for i, data in enumerate(fuzz_configs())),
)


def artifact_digest(out: Path) -> str:
    """SHA-256 over the six artifacts in `out`, in a fixed order."""
    h = hashlib.sha256()
    for name in ARTIFACTS:
        data = (out / name).read_bytes()
        h.update(f"{name} {len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()


def states_digest(states: dict) -> str:
    """SHA-256 over each chain's final `CumulativeState` of a
    `RunResult.states`, in chain order: the end-of-run totals, which no
    artifact prints."""
    h = hashlib.sha256()
    for chain in sorted(states):
        state = states[chain]
        h.update(f"{chain} {state.epoch}\n".encode())
        for name in ("genesis", "w_in", "w_out", "last_proposed"):
            values = getattr(state, name)
            h.update(f"{name} {values.shape}\n".encode())
            h.update(values.astype("<i8").tobytes())
    return h.hexdigest()
