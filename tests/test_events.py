"""Committee lottery, proposal voting, and event pool behavior."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from chainmesh import events as ev
from chainmesh.events import (ACTIVE, Candidates, EventError, EventPools,
                              select_committee, vrf_draws, vrf_keys)

#: every event kind, in pipeline order
EVENT_KINDS = (ev.PROPOSAL_FORMED, ev.PROPOSAL_RESULTS, ev.TIP_BATCH_FORMED,
               ev.TIP_RESULTS, ev.DAG_SUBMISSION, ev.WEIGHT_UPDATE,
               ev.LEDGER_APPEND)

GOLDEN_VRF = 0x345577A51D70ABAF4DAB85F42FC6BA8856914BDBBF25C3652F551AC03719F359


def vrf_output(node_secret, shared_seed, epoch):
    """One node's lottery draw as an integer, through the keyed state the
    committee draw uses."""
    state = hashlib.sha256(vrf_keys([node_secret], shared_seed)[0])
    return int.from_bytes(vrf_draws([state], epoch)[0], "big")


def reference_draw(node_id, seed, epoch):
    """A draw computed from its definition alone, sha256(id|seed|epoch)."""
    digest = hashlib.sha256(f"{node_id}|{seed}|{epoch}".encode()).digest()
    return int.from_bytes(digest, "big")


# ---------------------------------------------------------------------------
# Lottery draws
# ---------------------------------------------------------------------------

class TestVrfOutput:
    def test_golden_regression(self):
        assert vrf_output("node-7", "seed-1", 3) == GOLDEN_VRF

    def test_accepts_bytes_and_str(self):
        assert vrf_output(b"node-7", b"seed-1", 3) == GOLDEN_VRF

    def test_deterministic(self):
        a = vrf_output("n", "s", 5)
        assert a == vrf_output("n", "s", 5)

    def test_epoch_changes_output_for_nearly_all_nodes(self):
        changed = sum(1 for i in range(1000)
                      if vrf_output(f"n{i}", "seed", 7) != vrf_output(
                          f"n{i}", "seed", 8))
        assert changed >= 990

    def test_distinct_secrets_distinct_outputs(self):
        outs = {vrf_output(f"n{i}", "seed", 0) for i in range(1000)}
        assert len(outs) == 1000

    def test_range(self):
        for i in range(50):
            assert 0 <= vrf_output(f"n{i}", "s", i) < (1 << 256)

    @pytest.mark.parametrize("epoch", [0, 7, 123456, -1, -42])
    def test_draw_is_the_digest_of_id_seed_and_epoch(self, epoch):
        state = hashlib.sha256(vrf_keys(["c0n10"], "0|committee|0")[0])
        digest = hashlib.sha256(f"c0n10|0|committee|0|{epoch}".encode())
        assert vrf_draws([state], epoch) == [digest.digest()]


# ---------------------------------------------------------------------------
# Committee selection
# ---------------------------------------------------------------------------

def equal_candidates(n):
    return Candidates([f"n{i:03d}" for i in range(n)])


class TestSelectCommittee:
    def test_rank_strictly_descending_scores(self):
        # the proposer heads the descending ranking: no draw beats its own
        cands = equal_candidates(100)
        proposer = select_committee(cands, "seed", 0)
        all_scores = {nid: vrf_output(nid, "seed", 0)
                      for nid in cands.node_ids}
        assert all_scores[proposer] == max(all_scores.values())
        assert sum(s == all_scores[proposer]
                   for s in all_scores.values()) == 1

    def test_tie_breaks_to_lower_node_id(self, monkeypatch):
        # draws come in node-id order: a and c draw equal top digests, b a
        # lower one, so a proposes
        low, high = bytes(32), b"\x09" + bytes(31)
        monkeypatch.setattr(ev, "vrf_draws",
                            lambda states, epoch: [high, low, high])
        assert select_committee(Candidates(["b", "c", "a"]), "s", 0) == "a"
        monkeypatch.setattr(ev, "vrf_draws",
                            lambda states, epoch: [low, high, high])
        assert select_committee(Candidates(["b", "c", "a"]), "s", 0) == "b"

    def test_integer_scores_rank_like_fraction_scores(self):
        # ids like c0n2 and c0n10, whose string order is not their index
        # order, in shuffled order; window epochs are negative
        rng = random.Random(17)
        for trial in range(60):
            cands = [f"c{trial % 3}n{i}" for i in range(rng.randint(1, 30))]
            rng.shuffle(cands)
            epoch = rng.randrange(-50, 100)
            # a draw as a share of 2**256, as a unit-stake score once was
            old = {nid: Fraction(reference_draw(nid, "seed", epoch), 1 << 256)
                   for nid in cands}
            top = min(old, key=lambda nid: (-old[nid], nid))
            assert select_committee(Candidates(cands), "seed", epoch) == top

    def test_epoch_rotates_committee(self):
        proposers = {select_committee(equal_candidates(100), "seed", e)
                     for e in range(20)}
        assert len(proposers) > 1


# ---------------------------------------------------------------------------
# Proposal voting
# ---------------------------------------------------------------------------

class TestProposeAndVote:
    def test_unanimous_first_proposer_active(self):
        # the proposer's first proposal passes: every member approves
        pool = EventPools(chain=0, approvals=4)
        pool.publish(ev.DAG_SUBMISSION, 4, "m0")
        data = json.loads(next(pool.audit_lines()))
        assert (data["proposer"], data["attempts"], data["outcome"]) == \
            ("m0", 1, ACTIVE)
        assert (data["approve"], data["reject"]) == (4, 0)

    def test_single_member_committee(self):
        pool = EventPools(chain=0, approvals=1)
        pool.publish(ev.LEDGER_APPEND, -1, "solo")
        data = json.loads(next(pool.audit_lines()))
        assert data["proposer"] == "solo" and data["approve"] == 1


# ---------------------------------------------------------------------------
# Event pools
# ---------------------------------------------------------------------------

def make_pool(chain=0):
    return EventPools(chain=chain, approvals=2)


def publish(pool, kind, epoch):
    pool.publish(kind, epoch, "m0")


def audit(pool):
    """The (kind, epoch, proposer) of each event in the pool's log."""
    return [(rec["kind"], rec["epoch"], rec["proposer"])
            for rec in map(json.loads, pool.audit_lines())]


class TestEventPools:
    def test_full_epoch_keeps_all_seven_in_publish_order(self):
        pool = make_pool()
        for kind in EVENT_KINDS:
            publish(pool, kind, epoch=3)
        assert audit(pool) == [(kind, 3, "m0") for kind in EVENT_KINDS]
        # the kind codes the engine counts from
        assert [ev.KINDS[code] for code in pool.kinds] == list(EVENT_KINDS)

    def test_same_kind_different_epochs_coexist(self):
        pool = make_pool()
        publish(pool, ev.PROPOSAL_FORMED, epoch=1)
        publish(pool, ev.PROPOSAL_FORMED, epoch=2)
        assert audit(pool) == [(ev.PROPOSAL_FORMED, 1, "m0"),
                               (ev.PROPOSAL_FORMED, 2, "m0")]

    def test_audit_lines_are_json_with_tally(self):
        pool = make_pool(chain=4)
        publish(pool, ev.TIP_RESULTS, epoch=9)
        [line] = pool.audit_lines()
        data = json.loads(line)
        assert data == {"chain": 4, "epoch": 9, "kind": ev.TIP_RESULTS,
                        "proposer": "m0", "approve": 2, "reject": 0,
                        "attempts": 1, "outcome": ACTIVE}

    def test_audit_lines_equal_sorted_json_dumps(self):
        proposers = ["m0", 'quo"te', "back\\slash", "né中\U0001f600",
                     "tab\tnew\nline"]
        # every kind once; the proposers come round again, out of order
        events = [(kind, epoch - 2, proposers[epoch * 3 % len(proposers)])
                  for epoch, kind in enumerate(EVENT_KINDS)]
        for approvals in (1, 3, 12):
            pool = EventPools(chain=3, approvals=approvals)
            for event in events:
                pool.publish(*event)
            expected = [json.dumps({
                "chain": 3, "epoch": epoch, "kind": kind,
                "proposer": proposer, "approve": approvals, "reject": 0,
                "attempts": 1, "outcome": ACTIVE}, sort_keys=True)
                for kind, epoch, proposer in events]
            assert list(pool.audit_lines()) == expected
            assert [json.loads(line)["proposer"] for line in expected] == [
                proposer for _, _, proposer in events]


# ---------------------------------------------------------------------------
# Candidates and their lottery keys
# ---------------------------------------------------------------------------

class TestCandidates:
    def test_keyed_draws_equal_vrf_output(self):
        cands = Candidates(["a", "b", "c"])
        for epoch in (0, 1, 99, -4):
            scores = {nid: vrf_output(nid, "seed", epoch)
                      for nid in cands.node_ids}
            assert select_committee(cands, "seed", epoch) == max(
                scores, key=scores.__getitem__)

    def test_one_call_draws_every_key_as_single_draws(self):
        states = list(map(hashlib.sha256,
                          vrf_keys([f"n{i}" for i in range(20)], "seed")))
        assert vrf_draws(states, 11) == [vrf_draws([s], 11)[0]
                                         for s in states]
        assert vrf_draws([], 11) == []

    def test_keys_built_once_per_seed(self):
        cands = equal_candidates(5)
        keys = cands.keys("s")
        assert cands.keys("s") is keys
        assert [s.digest() for s in cands.keys("t")] != \
            [s.digest() for s in keys]

    def test_a_draw_over_no_candidate_raises_by_name(self):
        # max() of no draws once raised a bare ValueError
        with pytest.raises(EventError, match="needs a candidate"):
            select_committee(Candidates([]), "s", 1)

    def test_candidates_are_held_in_node_id_order(self):
        cands = Candidates(["c0n10", "c0n2", "c0n1"])
        assert cands.node_ids == ("c0n1", "c0n10", "c0n2")

    def test_a_later_epoch_only_copies_the_stored_states(self, monkeypatch):
        cands = equal_candidates(20)
        first = select_committee(cands, "seed", 0)

        def no_new_state(*args):
            raise AssertionError("SHA-256 state built from key bytes")

        monkeypatch.setattr(ev, "vrf_keys", no_new_state)
        monkeypatch.setattr(ev.hashlib, "sha256", no_new_state)
        later = [select_committee(cands, "seed", e) for e in (1, -1, 0)]
        monkeypatch.undo()
        # the copies leave the stored states as they were: epoch 0 again
        # draws what it drew first
        assert [first] + later == [
            select_committee(equal_candidates(20), "seed", e)
            for e in (0, 1, -1, 0)]

    def test_duplicate_node_id_rejected(self):
        with pytest.raises(EventError, match="duplicate"):
            select_committee(Candidates(["a", "a"]), "s", 0)
