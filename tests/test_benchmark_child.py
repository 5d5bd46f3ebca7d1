"""The benchmark's child process runs against this checkout's `src`.

`perfbench/child.py` builds, runs and writes one scenario through the
public entry points and prints one JSON record. A refactor that breaks one
of those entry points would otherwise show only as a failed benchmark run,
so a short scenario runs here in a fresh process without `PYTHONPATH`,
once plain and once traced. The plain run's digest must equal
`corpus.artifact_digest` of the same run made in this process, which also
keeps the child's copy of the artifact list in step with the corpus's.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from chainmesh.config import config_from_mapping
from chainmesh.engine import run_scenario
from corpus import artifact_digest

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"

#: a short desk-scale run, about half a second in the child
OVERRIDES = {"duration_min": 0.2}
SEED = 3


def run_child(out: Path, *extra: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(CHILD), "--config", json.dumps(OVERRIDES),
         "--seed", str(SEED), "--out", str(out), *extra],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_the_child_writes_the_artifacts_of_an_in_process_run(tmp_path):
    plain = run_child(tmp_path / "plain")
    spans = tmp_path / "spans.jsonl"
    traced = run_child(tmp_path / "traced", "--spans", str(spans))
    assert plain["conservation_ok"] and traced["conservation_ok"]
    assert traced["layers"] and spans.read_text()

    cfg = config_from_mapping({**OVERRIDES, "seed": SEED})
    result = run_scenario(cfg, out_dir=tmp_path / "here")
    assert plain["digest"] == artifact_digest(tmp_path / "here")
    assert traced["digest"] == plain["digest"]
    assert (plain["attached"], plain["confirmed"]) == (
        result.report.attached_blocks, result.report.confirmed_blocks)
    assert plain["confirmed"] > 0           # the digest covers a real run
