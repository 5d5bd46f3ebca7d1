"""Byte-identity pins of the two benchmark scenarios at paper and spam scale.

The golden preset suite covers desk-scale presets only. These two runs pin
the six artifacts of a 1000-account, 100-worker uncoded run and of a
16-minute spam run (55% spam, two tips per sample) at seed 0, as one SHA-256
in the format of `perfbench/child.py`, together with the attached and
confirmed block counts. Together they take about a second.
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
