"""The verdict of `tools/identity.py`: which runs it reports as differing.

The script is loaded from its file as a module of its own, not added to
`sys.modules`, and `compare` is called on hand-made results, so no
simulation runs. A result is [artifact digest, attached, confirmed, states
digest], or ["error", message].
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

IDENTITY = Path(__file__).resolve().parent.parent / "tools" / "identity.py"

RUN = "preset/desk/tip-pool-k2/k2-spam35/seed-000"
RESULTS = {
    RUN: ["a" * 64, 118, 112, "b" * 64],
    "fuzz/000/seed-0": ["error", "ConfigError: chains must be at least 2"],
}


@pytest.fixture(scope="module")
def compare():
    """`tools/identity.py`'s `compare`; `sys.path` is left as it was."""
    path = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("identity", IDENTITY)
        identity = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(identity)
    finally:
        sys.path[:] = path
    return identity.compare


def test_equal_results_give_no_line(compare):
    assert compare(RESULTS, {name: list(r) for name, r in RESULTS.items()}) \
        == []


@pytest.mark.parametrize("name, result", [
    (RUN, ["a" * 64, 118, 112, "c" * 64]),          # ledger states only
    ("pin/seed-3", ["d" * 64, 7, 5, "e" * 64]),     # a run on one side only
    (RUN, ["error", "SimulationError: invalid block c00e00001 confirmed"]),
], ids=["states-only", "one-side-only", "fails-on-one-side"])
def test_one_differing_run_gives_one_diff_line(compare, name, result):
    other = {**RESULTS, name: result}
    for parent, change in ((RESULTS, other), (other, RESULTS)):
        lines = compare(parent, change)
        assert len(lines) == 1 and lines[0].startswith(f"DIFF {name}: ")
