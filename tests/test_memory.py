"""What a run holds grows slowly with the blocks it attaches.

A 32-minute desk run (the default scenario, seed 0) attaches 1,918 blocks.
Under `tracemalloc`, started before the `Simulation` is built, the heap
still held when `run()` returns is everything the finished run keeps: the
DAG, the event columns, the series, the ledger book and the payloads not yet
released. Divided by the attached blocks, it read 1,126 B per block when each
event was a tuple, each series row a tuple, and each transfer three arrays,
and 511 B once they became flat columns and one array per transfer
(CPython 3.11, numpy 2.4). The bound sits a quarter above the second
reading, and well below the first.
"""

from __future__ import annotations

import tracemalloc

from chainmesh.config import ScenarioConfig, replace
from chainmesh.engine import Simulation

#: bytes of heap a finished 32-minute desk run may hold per attached block
HELD_PER_BLOCK = 640


def test_a_run_holds_little_per_attached_block():
    cfg = replace(ScenarioConfig(), duration_min=32.0, seed=0)
    tracemalloc.start()
    try:
        result = Simulation(cfg).run()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    blocks = result.report.attached_blocks
    assert blocks == 1918
    assert held / blocks < HELD_PER_BLOCK, f"{held} B held over {blocks}"
