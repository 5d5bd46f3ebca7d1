"""Golden SHA-256 digests of the preset suite at seed 0, at both scales.

`golden/preset_suite_seed0.sha256` holds one `sha256  relative/path` line per
artifact that `chainmesh preset <name> --seeds 0 --quiet` writes, for every
preset; `golden/preset_suite_paper_seed0.sha256` holds the same for
`--paper-scale`, the only gate that runs 64-worker coded groups, fleet 200
and 1000 accounts in every preset. A refactor meant to preserve behaviour must
leave every digest unchanged. Only a change that alters artifacts on purpose
regenerates both files, with

    PYTHONPATH=src python tests/test_golden.py

and says so in `CHANGES.md`.

Every digest rests on numpy's and Python's random streams. A fingerprint of
those streams is pinned too, so an upgrade that moves them fails one named
test rather than every digest at once.
"""

from __future__ import annotations

import hashlib
import platform
import random
import sys
from pathlib import Path

import numpy as np

from chainmesh import cli
from chainmesh.engine import derive_seed
from chainmesh.presets import preset_names

GOLDEN_DIR = Path(__file__).parent / "golden"
SCALES = {False: GOLDEN_DIR / "preset_suite_seed0.sha256",
          True: GOLDEN_DIR / "preset_suite_paper_seed0.sha256"}


def suite_digests(out: Path, paper_scale: bool = False) -> list[str]:
    """Run every preset at seed 0 into `out`; one digest line per artifact."""
    scale = ["--paper-scale"] if paper_scale else []
    for name in preset_names():
        code = cli.main(["preset", name, *scale, "--seeds", "0",
                         "--out", str(out), "--quiet"])
        assert code == 0, f"preset {name} failed"
    files = sorted(p for p in out.rglob("*") if p.is_file())
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  "
            f"{p.relative_to(out).as_posix()}" for p in files]


def check_suite(out: Path, paper_scale: bool) -> None:
    expected = SCALES[paper_scale].read_text().splitlines()
    got = suite_digests(out, paper_scale)
    assert [line.split()[1] for line in got] == \
        [line.split()[1] for line in expected]
    changed = [b.split()[1] for a, b in zip(got, expected) if a != b]
    assert not changed, f"artifacts differ from the golden digests: {changed}"


#: `rng_stream_digest()` under numpy 2.4.6 and Python 3.11.7
RNG_STREAM_DIGEST = \
    "12f13dde0438c2671aa26cc4bb14d1890a21c2324b3f1c224e28f2d5ee44b2a3"


def rng_stream_digest() -> str:
    """SHA-256 over draws made as a run makes them: a `default_rng` seeded
    by `derive_seed`, its `choice` without replacement, array-bound
    `integers` and `uniform`, and `random.Random.sample` over block ids."""
    h = hashlib.sha256()
    gen = np.random.default_rng(derive_seed(0, "payload", 0, 1))
    h.update(gen.choice(np.arange(1000), size=10, replace=False).tobytes())
    low = np.zeros((10, 2), dtype=np.int64)
    high = np.full((10, 2), 1000, dtype=np.int64)
    low[3:, 1], high[:3, 1], high[3:, 1] = 1, 100, 11
    h.update(gen.integers(low, high).tobytes())
    h.update(gen.uniform(0.0, 1.0, size=10).tobytes())
    tips = random.Random(derive_seed(0, "tips", 0, 1))
    h.update(" ".join(tips.sample([f"c{c:02d}e{e:05d}" for c in range(4)
                                   for e in range(20)], 8)).encode())
    return h.hexdigest()


def test_random_streams_match_the_pinned_fingerprint():
    got = rng_stream_digest()
    assert got == RNG_STREAM_DIGEST, (
        f"numpy {np.__version__} or Python {platform.python_version()} "
        f"draws other random streams than those the golden digests and "
        f"PINS were recorded with (fingerprint {got}); expect those "
        f"digests to differ as well")


def test_preset_suite_matches_golden_digests(tmp_path):
    check_suite(tmp_path, paper_scale=False)


def test_paper_scale_preset_suite_matches_golden_digests(tmp_path):
    check_suite(tmp_path, paper_scale=True)


if __name__ == "__main__":
    import tempfile
    GOLDEN_DIR.mkdir(exist_ok=True)
    for paper_scale, golden in SCALES.items():
        with tempfile.TemporaryDirectory() as tmp:
            lines = suite_digests(Path(tmp), paper_scale)
        golden.write_text("\n".join(lines) + "\n")
        print(f"wrote {len(lines)} digests to {golden}", file=sys.stderr)
