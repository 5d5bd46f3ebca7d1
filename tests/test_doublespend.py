"""Injection planning and conflict detection bookkeeping."""

import numpy as np
import pytest

from chainmesh.doublespend import (ConflictTracker, InjectionError,
                                   plan_injections)


# -- planning ---------------------------------------------------------------

def test_plan_counts_and_id_scheme():
    slots = [i % 5 for i in range(200)]
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
    slots = [0, 1] * 50                       # 100 slots
    plan = plan_injections(slots, pairs=3, regular=4,
                           rng=np.random.default_rng(7))
    assert all(10 <= idx < 50 for idx in plan.carriers)


def test_plan_pairs_prefer_distinct_chains():
    slots = [i % 7 for i in range(300)]
    plan = plan_injections(slots, pairs=12, regular=0,
                           rng=np.random.default_rng(3))
    by_txn = {}
    for idx, tid in plan.carriers.items():
        by_txn.setdefault(tid, []).append(idx)
    for tid, (a, b) in by_txn.items():
        assert slots[a] != slots[b], tid


def test_plan_single_chain_pairs_still_placed():
    slots = [4] * 100                         # no distinct chain available
    plan = plan_injections(slots, pairs=2, regular=0,
                           rng=np.random.default_rng(0))
    assert len(plan.carriers) == 4


def test_plan_window_too_small_raises():
    slots = list(range(100))                  # eligible window holds 40 slots
    plan_injections(slots, pairs=10, regular=20,
                    rng=np.random.default_rng(0))
    with pytest.raises(InjectionError):
        plan_injections(slots, pairs=10, regular=21,
                        rng=np.random.default_rng(0))


def test_plan_deterministic_for_seed():
    slots = [i % 6 for i in range(240)]
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
    assert tr.inspect_tip("A1") is False             # earlier carrier passes
    assert tr.inspect_tip("B1") is True
    assert tr.labeled == {"B1"}


def test_detection_completes_when_claimer_confirms():
    tr = ConflictTracker()
    tr.register_attach("A1", "pair-0", 1.0)
    tr.register_attach("B1", "pair-0", 4.0)
    tr.inspect_tip("B1")
    assert tr.claim("C9", {"B1"}) == {"B1"}
    assert "pair-0" not in tr.detections
    tr.on_confirm("C9", 12.5)
    assert tr.detections["pair-0"] == 12.5


def test_claims_ride_until_one_claimer_confirms():
    tr = ConflictTracker()
    tr.register_attach("A1", "p", 1.0)
    tr.register_attach("B1", "p", 2.0)
    tr.inspect_tip("B1")
    watch = tr.claim("L1", {"B1"})             # L1 never confirms
    assert watch == {"B1"}
    watch = tr.claim("L2", watch)              # next proposal re-claims
    tr.on_confirm("L2", 9.0)
    assert tr.detections["p"] == 9.0
    assert tr.claim("L3", watch) == set()      # resolved: nothing to carry
    tr.on_confirm("L1", 15.0)                  # late confirm cannot override
    assert tr.detections["p"] == 9.0


def test_resolved_conflicts_are_not_reclaimed():
    tr = ConflictTracker()
    tr.register_attach("A1", "p", 1.0)
    tr.register_attach("B1", "p", 2.0)
    tr.inspect_tip("B1")
    tr.claim("L1", {"B1"})
    tr.on_confirm("L1", 6.0)
    assert tr.claim("L2", {"B1"}) == set()     # after resolution: no claim
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
    tr.inspect_tip("B1")
    tr.inspect_tip("B2")
    tr.claim("L1", {"B1"})
    tr.claim("L2", {"B2"})
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
    tr.inspect_tip("X")                        # labeled, never claimed
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
