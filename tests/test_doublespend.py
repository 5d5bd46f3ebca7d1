"""Injection planning and conflict detection bookkeeping."""

import numpy as np
import pytest

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
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        plan = plan_injections(slots, pairs=0, regular=0, rng=rng)
        assert (dict(plan.carriers), plan.pair_ids, plan.regular_ids) == \
            ({}, (), ())
        assert plan is NO_INJECTIONS and rng.bit_generator.state == state
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
    assert tr.first_carrier["pair-0"] == "A1"
    assert tr.candidates == {"B1": "pair-0"}
    assert tr.second_attach["pair-0"] == 11.5


def test_inspection_labels_candidates_only():
    tr = ConflictTracker()
    tr.register_attach("A1", "pair-0", 1.0)
    tr.register_attach("B1", "pair-0", 2.0)
    assert tr.inspect_tip(3, "A1") is False          # earlier carrier passes
    assert tr.inspect_tip(3, "B1") is True
    assert tr.labeled == {"B1"}
    assert tr.sightings == {3: {"B1"}}


def test_detection_completes_when_claimer_confirms():
    tr = ConflictTracker()
    tr.register_attach("A1", "pair-0", 1.0)
    tr.register_attach("B1", "pair-0", 4.0)
    tr.inspect_tip(2, "B1")
    tr.claim(2, "C9")
    assert "pair-0" not in tr.detections
    tr.on_confirm("C9", 12.5)
    assert tr.detections["pair-0"] == 12.5


def test_only_the_sighting_chain_claims():
    tr = ConflictTracker()
    tr.register_attach("A1", "p", 1.0)
    tr.register_attach("B1", "p", 2.0)
    tr.inspect_tip(1, "B1")
    tr.claim(0, "X1")                          # chain 0 sighted nothing
    tr.on_confirm("X1", 5.0)
    assert tr.detections == {}
    tr.claim(1, "Y1")
    tr.on_confirm("Y1", 6.0)
    assert tr.detections == {"p": 6.0}


def test_claims_ride_until_one_claimer_confirms():
    tr = ConflictTracker()
    tr.register_attach("A1", "p", 1.0)
    tr.register_attach("B1", "p", 2.0)
    tr.inspect_tip(4, "B1")
    tr.claim(4, "L1")                          # L1 never confirms
    tr.claim(4, "L2")                          # next proposal re-claims
    tr.on_confirm("L2", 9.0)
    assert tr.detections["p"] == 9.0
    tr.claim(4, "L3")                          # resolved: nothing to carry
    assert "L3" not in tr._claims and tr.sightings[4] == set()
    tr.on_confirm("L1", 15.0)                  # late confirm cannot override
    assert tr.detections["p"] == 9.0


def test_resolved_conflicts_are_not_reclaimed():
    tr = ConflictTracker()
    tr.register_attach("A1", "p", 1.0)
    tr.register_attach("B1", "p", 2.0)
    tr.inspect_tip(0, "B1")
    tr.inspect_tip(1, "B1")                    # a second chain sights it
    tr.claim(0, "L1")
    tr.on_confirm("L1", 6.0)
    tr.claim(1, "L2")                          # after resolution: no claim
    tr.on_confirm("L2", 7.0)
    assert tr.detections["p"] == 6.0
    assert tr._claims == {}


def test_confirming_an_unrelated_block_records_nothing():
    tr = ConflictTracker()
    tr.register_attach("A1", "p", 1.0)
    tr.on_confirm("A1", 5.0)
    assert tr.detections == {}


def test_score_full_detection():
    tr = ConflictTracker()
    tr.register_attach("A1", "pair-0", 10.0)
    tr.register_attach("B1", "pair-0", 12.0)
    tr.register_attach("A2", "pair-1", 20.0)
    tr.register_attach("B2", "pair-1", 21.0)
    tr.register_attach("R1", "tx-0", 30.0)
    tr.inspect_tip(0, "B1")
    tr.inspect_tip(1, "B2")
    tr.claim(0, "L1")
    tr.claim(1, "L2")
    tr.on_confirm("L1", 18.0)                  # delay 18 - 12 = 6
    tr.on_confirm("L2", 31.0)                  # delay 31 - 21 = 10
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
    tr.inspect_tip(0, "X")                     # labeled, never claimed
    tr.register_attach("R0", "tx-0", 5.0)
    tr.labeled.add("R0")                       # a labeled regular carrier
    s = tr.score(["pair-0", "pair-1"], ["tx-0", "tx-1"])
    assert s["p_detect"] == 0.0                # labels alone are not detection
    assert s["false_alarms"] == 1.0
    assert s["p_false_alarm"] == 0.5
    assert "mean_delay_s" not in s


def test_score_handles_empty_inputs():
    tr = ConflictTracker()
    s = tr.score([], [])
    assert s["p_detect"] == 1.0
    assert s["p_false_alarm"] == 0.0
