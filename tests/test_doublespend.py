"""Injection planning and conflict detection bookkeeping."""

from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainmesh.config import ScenarioConfig
from chainmesh.doublespend import (NO_INJECTIONS, ConflictTracker,
                                   InjectionError, plan_injections)
from chainmesh.engine import Simulation


# -- planning ---------------------------------------------------------------

def honest_slots(chains):
    """Each chain's slot times, given the chain of every slot in time order:
    slot i (from 0) lands at second i + 1."""
    slots = {}
    for i, chain in enumerate(chains):
        slots.setdefault(chain, []).append(float(i + 1))
    return slots


def slot_index(slots, carrier):
    """Time-order index of the (chain, epoch) slot a carrier rides on."""
    chain, epoch = carrier
    return int(slots[chain][epoch - 1]) - 1


def test_plan_counts_and_id_scheme():
    slots = honest_slots([i % 5 for i in range(200)])
    plan = plan_injections(slots, pairs=10, regular=60,
                           rng=np.random.default_rng(1))
    assert len(plan.pair_ids) == 10
    assert len(plan.regular_ids) == 60
    assert len(plan.carriers) == 2 * 10 + 60
    assert plan.pair_ids == tuple(f"pair-{i:03d}" for i in range(10))
    assert plan.regular_ids == tuple(f"tx-{i:03d}" for i in range(60))
    counts = {}
    for tid in plan.carriers.values():
        counts[tid] = counts.get(tid, 0) + 1
    assert all(counts[t] == 2 for t in plan.pair_ids)
    assert all(counts[t] == 1 for t in plan.regular_ids)


def test_plan_respects_slot_window():
    slots = honest_slots([0, 1] * 50)                  # 100 slots
    plan = plan_injections(slots, pairs=3, regular=4,
                           rng=np.random.default_rng(7))
    assert all(10 <= slot_index(slots, c) < 50 for c in plan.carriers)


def test_plan_keys_carriers_by_chain_and_epoch():
    slots = honest_slots([0, 1] * 50)
    plan = plan_injections(slots, pairs=3, regular=4,
                           rng=np.random.default_rng(7))
    for chain, epoch in plan.carriers:
        assert 1 <= epoch <= len(slots[chain])


def test_plan_orders_slots_by_time_not_by_chain():
    # chain 1's slots come first in time; the window must follow the times
    slots = {0: [float(t) for t in range(51, 101)],
             1: [float(t) for t in range(1, 51)]}
    plan = plan_injections(slots, pairs=0, regular=40,
                           rng=np.random.default_rng(0))
    assert {chain for chain, _ in plan.carriers} == {1}
    assert sorted(epoch for _, epoch in plan.carriers) == list(range(11, 51))


def test_plan_pairs_prefer_distinct_chains():
    slots = honest_slots([i % 7 for i in range(300)])
    plan = plan_injections(slots, pairs=12, regular=0,
                           rng=np.random.default_rng(3))
    by_txn = {}
    for (chain, _), tid in plan.carriers.items():
        by_txn.setdefault(tid, []).append(chain)
    for tid, (a, b) in by_txn.items():
        assert a != b, tid


def test_plan_single_chain_pairs_still_placed():
    slots = honest_slots([4] * 100)           # no distinct chain available
    plan = plan_injections(slots, pairs=2, regular=0,
                           rng=np.random.default_rng(0))
    assert len(plan.carriers) == 4


def test_plan_skips_chains_without_slots():
    slots = {0: [1.0], 1: [2.0], 2: [], 3: []}
    plan = plan_injections(slots, pairs=0, regular=1,
                           rng=np.random.default_rng(0))
    assert plan.carriers == {(0, 1): "tx-000"}


def test_plan_without_carriers_is_empty():
    for slots in ({0: [1.0, 2.0]}, {0: [], 1: []}):
        plan = plan_injections(slots, pairs=0, regular=0,
                               rng=np.random.default_rng(0))
        assert (dict(plan.carriers), plan.pair_ids, plan.regular_ids) == \
            ({}, (), ())
    assert Simulation(ScenarioConfig()).injection is NO_INJECTIONS


def test_plan_window_too_small_raises():
    slots = honest_slots(range(100))          # eligible window holds 40 slots
    plan_injections(slots, pairs=10, regular=20,
                    rng=np.random.default_rng(0))
    with pytest.raises(InjectionError):
        plan_injections(slots, pairs=10, regular=21,
                        rng=np.random.default_rng(0))


def test_plan_deterministic_for_seed():
    slots = honest_slots([i % 6 for i in range(240)])
    a = plan_injections(slots, pairs=5, regular=9,
                        rng=np.random.default_rng(11))
    b = plan_injections(slots, pairs=5, regular=9,
                        rng=np.random.default_rng(11))
    assert dict(a.carriers) == dict(b.carriers)


# -- tracker ----------------------------------------------------------------

def test_second_carrier_becomes_candidate():
    tr = ConflictTracker()
    tr.register_attach("A1", "pair-0", 10.0)
    tr.register_attach("B1", "pair-0", 11.5)
    assert tr.seen == {"pair-0"}
    assert tr.candidates == {"B1": "pair-0"}
    assert tr.second_attach["pair-0"] == 11.5


def test_inspection_labels_candidates_only():
    tr = ConflictTracker()
    tr.register_attach("A1", "pair-0", 1.0)
    tr.register_attach("B1", "pair-0", 2.0)
    assert tr.inspect_tip(3, 7, "A1") is False       # earlier carrier passes
    assert tr.inspect_tip(3, 7, "B1") is True
    assert tr.sightings == {3: [(7, "pair-0")]}


def test_detection_completes_when_claimer_confirms():
    tr = ConflictTracker()
    tr.register_attach("A1", "pair-0", 1.0)
    tr.register_attach("B1", "pair-0", 4.0)
    tr.inspect_tip(2, 9, "B1")
    tr.on_confirm(2, 8, 10.0)                  # proposed before the sighting
    assert "pair-0" not in tr.detections
    tr.on_confirm(2, 9, 12.5)
    assert tr.detections["pair-0"] == 12.5


def test_only_the_sighting_chain_claims():
    tr = ConflictTracker()
    tr.register_attach("A1", "p", 1.0)
    tr.register_attach("B1", "p", 2.0)
    tr.inspect_tip(1, 3, "B1")
    tr.on_confirm(0, 3, 5.0)                   # chain 0 sighted nothing
    assert tr.detections == {}
    tr.on_confirm(1, 3, 6.0)
    assert tr.detections == {"p": 6.0}


def test_claims_ride_until_one_claimer_confirms():
    tr = ConflictTracker()
    tr.register_attach("A1", "p", 1.0)
    tr.register_attach("B1", "p", 2.0)
    tr.inspect_tip(4, 1, "B1")
    # the block of epoch 1 has not confirmed; a later one confirms first
    tr.on_confirm(4, 2, 9.0)
    assert tr.detections["p"] == 9.0
    assert tr.sightings[4] == []               # resolved: nothing to carry
    tr.on_confirm(4, 1, 15.0)                  # late confirm cannot override
    assert tr.detections["p"] == 9.0


def test_resolved_conflicts_are_not_reclaimed():
    tr = ConflictTracker()
    tr.register_attach("A1", "p", 1.0)
    tr.register_attach("B1", "p", 2.0)
    tr.inspect_tip(0, 1, "B1")
    tr.inspect_tip(1, 1, "B1")                 # a second chain sights it
    tr.on_confirm(0, 1, 6.0)
    tr.on_confirm(1, 1, 7.0)                   # after resolution
    assert tr.detections["p"] == 6.0
    assert tr.sightings == {0: [], 1: []}


def test_confirming_an_unrelated_block_records_nothing():
    tr = ConflictTracker()
    tr.register_attach("A1", "p", 1.0)
    tr.on_confirm(0, 1, 5.0)
    assert tr.detections == {}


def test_score_full_detection():
    tr = ConflictTracker()
    tr.register_attach("A1", "pair-0", 10.0)
    tr.register_attach("B1", "pair-0", 12.0)
    tr.register_attach("A2", "pair-1", 20.0)
    tr.register_attach("B2", "pair-1", 21.0)
    tr.register_attach("R1", "tx-0", 30.0)
    tr.inspect_tip(0, 1, "B1")
    tr.inspect_tip(1, 1, "B2")
    tr.on_confirm(0, 1, 18.0)                  # delay 18 - 12 = 6
    tr.on_confirm(1, 1, 31.0)                  # delay 31 - 21 = 10
    s = tr.score(["pair-0", "pair-1"], ["tx-0"])
    assert s["p_detect"] == 1.0
    assert s["p_false_alarm"] == 0.0
    assert s["detected"] == 2.0
    assert s["mean_delay_s"] == pytest.approx(8.0)
    assert s["max_delay_s"] == pytest.approx(10.0)


def test_score_counts_misses_and_false_alarms():
    tr = ConflictTracker()
    tr.register_attach("A1", "pair-0", 1.0)
    tr.register_attach("B1", "pair-0", 2.0)    # candidate, never sighted
    tr.register_attach("A2", "pair-1", 3.0)
    tr.register_attach("X", "pair-1", 4.0)
    tr.inspect_tip(0, 1, "X")                  # sighted, never confirmed
    tr.register_attach("R0", "tx-0", 5.0)
    assert tr.inspect_tip(0, 1, "R0") is False  # a regular carrier passes
    s = tr.score(["pair-0", "pair-1"], ["tx-0", "tx-1"])
    assert s["p_detect"] == 0.0                # sightings alone are not detection
    assert s["false_alarms"] == s["p_false_alarm"] == 0.0
    assert "mean_delay_s" not in s


def test_score_handles_empty_inputs():
    tr = ConflictTracker()
    s = tr.score([], [])
    assert s["p_detect"] == 1.0
    assert s["p_false_alarm"] == 0.0


# -- the tracker against the one that labelled every sighted block ----------

@dataclass
class LabellingTracker:
    """The conflict tracker as it was before it was slimmed: it kept the
    first carrier of each transaction id, labelled every sighted candidate
    block, counted a regular id's labelled carrier as a false alarm, and
    had each of a chain's blocks claim the chain's undetected sightings as
    it attached, so that the first claimer to confirm finalised them."""

    first_carrier: dict = field(default_factory=dict)
    candidates: dict = field(default_factory=dict)
    second_attach: dict = field(default_factory=dict)
    labeled: set = field(default_factory=set)
    sightings: dict = field(default_factory=dict)
    _claims: dict = field(default_factory=dict)
    detections: dict = field(default_factory=dict)

    def register_attach(self, block_id, txn, time_s):
        if txn in self.first_carrier:
            self.candidates[block_id] = txn
            self.second_attach.setdefault(txn, time_s)
        else:
            self.first_carrier[txn] = block_id

    def inspect_tip(self, chain, block_id):
        if block_id in self.candidates:
            self.labeled.add(block_id)
            self.sightings.setdefault(chain, set()).add(block_id)
            return True
        return False

    def claim(self, chain, block_id):
        sighted = self.sightings.get(chain)
        if not sighted:
            return
        pending = {b for b in sighted
                   if self.candidates[b] not in self.detections}
        self.sightings[chain] = pending
        if pending:
            self._claims[block_id] = [self.candidates[b]
                                      for b in sorted(pending)]

    def on_confirm(self, block_id, time_s):
        for tid in self._claims.pop(block_id, ()):
            self.detections.setdefault(tid, time_s)

    def score(self, pair_ids, regular_ids):
        pairs = len(pair_ids)
        detected = [tid for tid in pair_ids if tid in self.detections]
        delays = [self.detections[t] - self.second_attach[t]
                  for t in detected]
        regular_blocks = [self.first_carrier[tid] for tid in regular_ids
                          if tid in self.first_carrier]
        false_alarms = sum(1 for b in regular_blocks if b in self.labeled)
        out = {
            "pairs": float(pairs),
            "regular": float(len(regular_ids)),
            "detected": float(len(detected)),
            "p_detect": (len(detected) / pairs) if pairs else 1.0,
            "false_alarms": float(false_alarms),
            "p_false_alarm": (false_alarms / len(regular_ids))
            if regular_ids else 0.0,
        }
        if delays:
            out["mean_delay_s"] = float(np.mean(delays))
            out["max_delay_s"] = float(np.max(delays))
        return out


PAIR_IDS = ("pair-0", "pair-1")
REGULAR_IDS = ("tx-0", "tx-1")
TIME = st.integers(0, 60).map(float)
#: one step of the engine's protocol; a block index counts back from the
#: latest attached block, and past the first names a block never attached
OPERATION = st.one_of(
    st.tuples(st.just("attach"), st.integers(0, 2),
              st.sampled_from((None,) + PAIR_IDS + REGULAR_IDS), TIME),
    st.tuples(st.just("inspect"), st.integers(0, 2), st.integers(0, 6)),
    st.tuples(st.just("confirm"), st.integers(0, 6), TIME))


def replay_on_both(operations):
    """Run `operations` through the slim tracker and the labelling one,
    checking after each step that they agree.

    As in the engine, every block attaches once, under a fresh id, as its
    chain's next epoch, and registers its transaction id if it carries one;
    the labelling tracker then has it claim its chain's sightings. A chain
    inspects tips as part of its next epoch, so the slim tracker tags each
    sighting with that epoch, and is told of a confirmation by the block's
    (chain, epoch)."""
    slim, full = ConflictTracker(), LabellingTracker()
    blocks: list[tuple[str, int, int]] = []    # (id, chain, epoch)
    epochs = [0, 0, 0]                         # each chain's latest epoch

    def block(i):
        return blocks[-1 - i] if i < len(blocks) else (f"x{i}", None, None)

    for op in operations:
        if op[0] == "attach":
            _, chain, txn, time_s = op
            epochs[chain] += 1
            blocks.append((f"b{len(blocks)}", chain, epochs[chain]))
            for tr in (slim, full):
                if txn is not None:
                    tr.register_attach(blocks[-1][0], txn, time_s)
            full.claim(chain, blocks[-1][0])
        elif op[0] == "inspect":
            _, chain, i = op
            bid = block(i)[0]
            assert slim.inspect_tip(chain, epochs[chain] + 1, bid) == \
                full.inspect_tip(chain, bid)
        else:
            bid, chain, epoch = block(op[1])
            full.on_confirm(bid, op[2])
            if chain is not None:
                slim.on_confirm(chain, epoch, op[2])
        assert slim.detections == full.detections
        assert slim.candidates == full.candidates
    score = slim.score(PAIR_IDS, REGULAR_IDS)
    assert score == full.score(PAIR_IDS, REGULAR_IDS)
    assert score["false_alarms"] == 0.0
    return slim


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.lists(OPERATION, min_size=20, max_size=80))
def test_the_slim_tracker_detects_exactly_as_the_labelling_one(operations):
    replay_on_both(operations)


def test_a_later_block_that_confirms_first_detects_as_the_earlier_claim():
    # chain 1 sights the pair's second carrier in its epochs 1 and 2; its
    # block of epoch 2 confirms before that of epoch 1
    slim = replay_on_both([
        ("attach", 0, "pair-0", 1.0), ("attach", 2, "pair-0", 2.0),
        ("inspect", 1, 0), ("attach", 1, None, 3.0),
        ("attach", 0, "pair-1", 4.0), ("attach", 2, "pair-1", 5.0),
        ("inspect", 1, 0), ("attach", 1, None, 6.0),
        ("confirm", 0, 9.0), ("confirm", 3, 12.0)])
    assert slim.detections == {"pair-0": 9.0, "pair-1": 9.0}
    assert slim.sightings[1] == []
