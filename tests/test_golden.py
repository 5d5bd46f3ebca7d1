"""Golden SHA-256 digests of the desk-scale preset suite at seed 0.

`golden/preset_suite_seed0.sha256` holds one `sha256  relative/path` line per
artifact that `chainmesh preset <name> --seeds 0 --quiet` writes, for every
preset. A refactor meant to preserve behaviour must leave every digest
unchanged. Only a change that alters artifacts on purpose regenerates the
file, with

    PYTHONPATH=src python tests/test_golden.py

and says so in `CHANGES.md`.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

from chainmesh import cli
from chainmesh.presets import preset_names

GOLDEN = Path(__file__).parent / "golden" / "preset_suite_seed0.sha256"


def suite_digests(out: Path) -> list[str]:
    """Run every preset at seed 0 into `out`; one digest line per artifact."""
    for name in preset_names():
        code = cli.main(["preset", name, "--seeds", "0", "--out", str(out),
                         "--quiet"])
        assert code == 0, f"preset {name} failed"
    files = sorted(p for p in out.rglob("*") if p.is_file())
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  "
            f"{p.relative_to(out).as_posix()}" for p in files]


def test_preset_suite_matches_golden_digests(tmp_path):
    expected = GOLDEN.read_text().splitlines()
    got = suite_digests(tmp_path)
    assert [line.split()[1] for line in got] == \
        [line.split()[1] for line in expected]
    changed = [b.split()[1] for a, b in zip(got, expected) if a != b]
    assert not changed, f"artifacts differ from the golden digests: {changed}"


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        lines = suite_digests(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} digests to {GOLDEN}", file=sys.stderr)
