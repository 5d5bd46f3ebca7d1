"""Byte-identity pins of scenarios the golden preset suite does not cover.

The golden preset suite covers desk-scale presets only, and every preset
splits its rows evenly over the workers. Each run of `tests/corpus.py` that
carries a pin in `PINS` must write, at seed 0, the six artifacts whose
`artifact_digest` is pinned, with the pinned attached and confirmed block
counts. Together they take about three seconds.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from chainmesh.config import config_from_mapping
from chainmesh.engine import run_scenario
from corpus import PINS, artifact_digest


@pytest.mark.parametrize("name", sorted(PINS))
def test_seed0_artifacts_match_the_pinned_digest(name, tmp_path):
    overrides, digest, attached, confirmed = PINS[name]
    cfg = config_from_mapping({**overrides, "seed": 0})
    result = run_scenario(cfg, out_dir=tmp_path)
    assert (result.report.attached_blocks,
            result.report.confirmed_blocks) == (attached, confirmed)
    assert artifact_digest(tmp_path) == digest


def test_the_corpus_loads_no_chainmesh_module():
    # identity runs one checkout's corpus against two commits, so the corpus
    # may not read either side's src, even where it could import it
    tests = Path(__file__).parent
    path = [str(tests), str(tests.parent / "src")]
    loaded = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path[:0] = {path!r}; import corpus; "
         "print(sorted(m for m in sys.modules "
         "if m.partition('.')[0] == 'chainmesh'))"],
        capture_output=True, text=True, check=True).stdout
    assert loaded == "[]\n"
