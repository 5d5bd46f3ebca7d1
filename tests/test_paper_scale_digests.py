"""Byte-identity pins of scenarios the golden preset suite does not cover.

The golden preset suite covers desk-scale presets only, and every preset
splits its rows evenly over the workers. These runs pin, at seed 0, the six
artifacts as one SHA-256 in the format of `perfbench/child.py`, together
with the attached and confirmed block counts:

- the two benchmark scenarios: a 1000-account, 100-worker uncoded run and a
  16-minute spam run (55% spam, two tips per sample);
- the coded paper-scale run, whose 100 workers form groups of 64, 32 and 4;
- an uncoded fleet of 7 over 100 accounts at straggler rate 0.3, where the
  rows split unevenly (14 or 15 per worker) and the silent workers' rows
  fall back to central recomputation;
- a coded fleet of 20 at straggler rate 0.9, where the 4-group cannot
  freeze 4 positions, no layout exists and every honest stage stalls;
- a 4-minute spam run (20% spam) with three double-spend pairs and ten
  tagged regular transactions, which pins the ingestion of conflicting
  blocks into the ledger book;
- a 4-minute run over two chains, where every block pays the one other
  chain;
- a 4-minute spam run (30% spam) over 64 chains, whose blocks carry many
  distinct chain masks and so pin the stake each mask confers;
- two runs whose ledger-window and tip-pool cadences are not binary
  fractions (0.7 s and 0.3 s, 0.6 s and 0.3 s): their times accumulate
  rounding, and at 0.6/0.3 windows, samples and epochs fall due at equal
  times, so the event queue's order among them is pinned;
- a run with 10-second ledger windows, whose first window falls due with
  chain 9's first slot: both wake-ups are queued as the run starts, so the
  order in which the run queues its processes is pinned;
- a coded fleet of 21 at straggler rate 0.5, where no layout exists and
  every epoch of every chain is skipped: only the windows and the tip-pool
  samples run;
- a 3-minute spam run (30% spam) over 7 chains with five double-spend pairs
  and twenty tagged regular transactions, whose 105 honest slots split
  unevenly (18 or 17 per honest chain), so the carriers' chains pin the
  round-robin deal;
- a 1-minute run at 4 blocks per minute with one double-spend pair, where
  only 4 of the 10 honest chains get a slot and the rest issue nothing.

Together they take about three seconds.
"""

from __future__ import annotations

import hashlib

import pytest

from chainmesh.config import config_from_mapping
from chainmesh.engine import run_scenario

ARTIFACTS = ("tip_pool.csv", "finality.csv", "throughput.csv",
             "metrics.json", "dag_snapshot.txt", "events.log")

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


def artifact_digest(out) -> str:
    h = hashlib.sha256()
    for name in ARTIFACTS:
        data = (out / name).read_bytes()
        h.update(f"{name} {len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_seed0_artifacts_match_the_pinned_digest(name, tmp_path):
    overrides, digest, attached, confirmed = PINS[name]
    cfg = config_from_mapping({**overrides, "seed": 0})
    result = run_scenario(cfg, out_dir=tmp_path)
    assert (result.report.attached_blocks,
            result.report.confirmed_blocks) == (attached, confirmed)
    assert artifact_digest(tmp_path) == digest
