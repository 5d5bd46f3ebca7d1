"""Exact-integer accounting: cumulative updates, validation, conservation."""

import random

import numpy as np
import pytest

from chainmesh import balances as bal


def tm(source, dest, epoch, amounts):
    return bal.TransactionMatrix(source=source, dest=dest, epoch=epoch,
                                 amounts=np.array(amounts, dtype=np.int64))


def random_amounts(rng, m, lo=0, hi=9):
    return np.array([[rng.randint(lo, hi) for _ in range(m)] for _ in range(m)],
                    dtype=np.int64)


def test_negative_amounts_rejected_structurally():
    with pytest.raises(bal.LedgerError):
        tm(0, 1, 1, [[-1]])


# ---------------------------------------------------------------------------
# update_cumulative / net_balances
# ---------------------------------------------------------------------------

def zero_flows(chain, m, epoch):
    z = np.zeros((m, m), dtype=np.int64)
    return bal.FlowAggregates(chain=chain, epoch=epoch, inflow=z,
                              outflow_confirmed=z, outflow_proposed=z)


def proposal_flows(state, blocks):
    """Next-epoch flows that only replace the state's proposal with `blocks`."""
    m = state.accounts
    z = np.zeros((m, m), dtype=np.int64)
    return bal.FlowAggregates(
        chain=state.chain, epoch=state.epoch + 1, inflow=z,
        outflow_confirmed=z,
        outflow_proposed=bal.proposed_outflow(blocks, state.chain, m))


def test_zero_flows_leave_state_unchanged():
    s = bal.new_state(0, [5, 7])
    s2 = bal.update_cumulative(s, zero_flows(0, 2, 1))
    assert s2.epoch == 1
    assert np.array_equal(s2.w_in, s.w_in)
    assert np.array_equal(s2.w_out, s.w_out)
    assert np.array_equal(bal.net_balances(s2), [5, 7])


def test_proposal_replacement_applies_the_delta():
    s = bal.new_state(0, [100])
    f1 = bal.FlowAggregates(chain=0, epoch=1, inflow=[[0]],
                            outflow_confirmed=[[0]], outflow_proposed=[[3]])
    s1 = bal.update_cumulative(s, f1)
    assert s1.w_out[0, 0] == 3
    f2 = bal.FlowAggregates(chain=0, epoch=2, inflow=[[0]],
                            outflow_confirmed=[[0]], outflow_proposed=[[5]])
    s2 = bal.update_cumulative(s1, f2)
    assert s2.w_out[0, 0] - s1.w_out[0, 0] == 2
    assert s2.last_proposed[0, 0] == 5


def test_epoch_gap_raises_sequencing_error():
    s = bal.new_state(0, [1])
    with pytest.raises(bal.SequencingError):
        bal.update_cumulative(s, zero_flows(0, 1, 2))
    with pytest.raises(bal.LedgerError):
        bal.update_cumulative(s, zero_flows(1, 1, 1))


def test_recursive_update_equals_direct_sums_over_five_epochs():
    rng = random.Random(55)
    m = 4
    s = bal.new_state(0, [50] * m)
    a_hist, b_hist, c_last = [], [], None
    for epoch in range(1, 6):
        a = random_amounts(rng, m)
        b = random_amounts(rng, m)
        c = random_amounts(rng, m)
        s = bal.update_cumulative(s, bal.FlowAggregates(
            chain=0, epoch=epoch, inflow=a, outflow_confirmed=b,
            outflow_proposed=c))
        a_hist.append(a)
        b_hist.append(b)
        c_last = c
        # Independent oracle in unbounded Python ints: cumulative inflow is the
        # plain sum of epoch inflows; cumulative outflow is the sum of confirmed
        # outflows plus only the latest proposal.
        for i in range(m):
            for j in range(m):
                want_in = sum(int(x[i, j]) for x in a_hist)
                want_out = sum(int(x[i, j]) for x in b_hist) + int(c_last[i, j])
                assert int(s.w_in[i, j]) == want_in
                assert int(s.w_out[i, j]) == want_out


def test_net_balances_genesis_only():
    s = bal.new_state(0, [10, 0])
    assert np.array_equal(bal.net_balances(s), [10, 0])


def test_net_balances_sender_and_receiver_sides():
    sender = bal.new_state(0, [10, 0])
    sender = bal.update_cumulative(sender, bal.FlowAggregates(
        chain=0, epoch=1, inflow=[[0, 0], [0, 0]],
        outflow_confirmed=[[0, 4], [0, 0]], outflow_proposed=[[0, 0], [0, 0]]))
    assert np.array_equal(bal.net_balances(sender), [6, 0])
    receiver = bal.new_state(1, [0, 0])
    receiver = bal.update_cumulative(receiver, bal.FlowAggregates(
        chain=1, epoch=1, inflow=[[0, 4], [0, 0]],
        outflow_confirmed=[[0, 0], [0, 0]], outflow_proposed=[[0, 0], [0, 0]]))
    assert np.array_equal(bal.net_balances(receiver), [0, 4])


# ---------------------------------------------------------------------------
# validate_block
# ---------------------------------------------------------------------------

def test_affordable_spend_copied_verbatim():
    s = bal.new_state(0, [10, 10])
    prop = [tm(0, 1, 1, [[0, 7], [0, 0]])]
    res = bal.validate_block(prop, s)
    assert res.valid_rows.all()
    assert not res.any_zeroed
    assert np.array_equal(res.blocks[0].amounts, prop[0].amounts)


def test_overspend_across_two_destinations_zeroed_in_both():
    s = bal.new_state(0, [10, 10])
    prop = [tm(0, 1, 1, [[0, 6], [0, 0]]), tm(0, 2, 1, [[0, 6], [0, 0]])]
    res = bal.validate_block(prop, s)     # total spend 12 > balance 10
    assert not res.valid_rows[0]
    assert res.valid_rows[1]
    for blk in res.blocks:
        assert not blk.amounts[0].any()


def oracle_valid_rows(state, proposal_total):
    """Per-account recheck in unbounded ints, independent of the implementation."""
    m = state.accounts
    out = []
    for acct in range(m):
        bal_in = sum(int(state.w_in[i, acct]) for i in range(m))
        out_conf = sum(int(state.w_out[acct, j]) for j in range(m))
        old_prop = sum(int(state.last_proposed[acct, j]) for j in range(m))
        new_prop = sum(int(proposal_total[acct, j]) for j in range(m))
        w = int(state.genesis[acct]) + bal_in - (out_conf - old_prop + new_prop)
        out.append(w >= 0)
    return out


def test_mixed_block_zeroes_exactly_the_overspending_rows():
    rng = random.Random(77)
    m = 6
    s = bal.new_state(0, [rng.randint(0, 30) for _ in range(m)])
    for epoch in range(1, 4):
        prop = [tm(0, d, epoch, random_amounts(rng, m, 0, 12)) for d in (1, 2)]
        res = bal.validate_block(prop, s)
        want = oracle_valid_rows(s, res.proposed)
        assert list(res.valid_rows) == want
        for blk, raw in zip(res.blocks, prop):
            for acct in range(m):
                if want[acct]:
                    assert np.array_equal(blk.amounts[acct], raw.amounts[acct])
                else:
                    assert not blk.amounts[acct].any()
        # advance the state with the validated proposal so epochs differ
        s = bal.update_cumulative(s, proposal_flows(s, res.blocks))


def test_validation_is_idempotent():
    rng = random.Random(31)
    m = 5
    s = bal.new_state(0, [rng.randint(0, 20) for _ in range(m)])
    prop = [tm(0, d, 1, random_amounts(rng, m, 0, 15)) for d in (1, 3)]
    once = bal.validate_block(prop, s)
    twice = bal.validate_block(list(once.blocks), s)
    assert not twice.any_zeroed
    for a, b in zip(once.blocks, twice.blocks):
        assert np.array_equal(a.amounts, b.amounts)


def test_zeroing_soundness_balances_stay_non_negative():
    rng = random.Random(13)
    m = 5
    s = bal.new_state(0, [rng.randint(0, 25) for _ in range(m)])
    prop = [tm(0, d, 1, random_amounts(rng, m, 0, 20)) for d in (1, 2, 4)]
    res = bal.validate_block(prop, s)
    s1 = bal.update_cumulative(s, proposal_flows(s, res.blocks))
    assert (bal.net_balances(s1) >= 0).all()


# ---------------------------------------------------------------------------
# validate_tip_payloads
# ---------------------------------------------------------------------------

def test_empty_tip_payload_is_valid():
    states = {1: bal.new_state(1, [0, 0])}
    tip = bal.BlockPayload(source=1, epoch=3, matrices=())
    assert bal.validate_tip_payloads([tip], states) == [True]


def test_overspending_tip_is_invalid():
    states = {1: bal.new_state(1, [10, 0])}
    tip = bal.BlockPayload(source=1, epoch=1, matrices=(
        tm(1, 0, 1, [[0, 7], [0, 0]]), tm(1, 2, 1, [[0, 7], [0, 0]])))
    assert bal.validate_tip_payloads([tip], states) == [False]


def test_two_tips_from_one_chain_rejected():
    states = {1: bal.new_state(1, [5])}
    tips = [bal.BlockPayload(source=1, epoch=1, matrices=()),
            bal.BlockPayload(source=1, epoch=2, matrices=())]
    with pytest.raises(bal.LedgerError):
        bal.validate_tip_payloads(tips, states)


def test_batch_verdicts_match_per_account_oracle():
    rng = random.Random(202)
    m = 4
    states = {}
    for c in range(4):
        st = bal.new_state(c, [rng.randint(0, 40) for _ in range(m)])
        prop = [tm(c, (c + 1) % 4, 1, random_amounts(rng, m))]
        res = bal.validate_block(prop, st)
        states[c] = bal.update_cumulative(st, proposal_flows(st, res.blocks))
    tips = []
    for c in range(4):
        mats = tuple(tm(c, d, 2, random_amounts(rng, m, 0, 18))
                     for d in range(4) if d != c)
        tips.append(bal.BlockPayload(source=c, epoch=2, matrices=mats))
    got = bal.validate_tip_payloads(tips, states)
    for tip, verdict in zip(tips, got):
        st = states[tip.source]
        total = np.zeros((m, m), dtype=object)
        for t in tip.matrices:
            total = total + t.amounts.astype(object)
        spending = [i for i in range(m) if sum(total[i]) > 0]
        ok = all(oracle_valid_rows(st, total)[i] for i in spending)
        assert verdict == ok


# ---------------------------------------------------------------------------
# Token conservation across chains
# ---------------------------------------------------------------------------

def test_token_conservation_over_validated_multi_chain_trace():
    rng = random.Random(909)
    n_chains, m, epochs = 3, 4, 8
    genesis = {c: [rng.randint(5, 30) for _ in range(m)] for c in range(n_chains)}
    states = {c: bal.new_state(c, genesis[c]) for c in range(n_chains)}
    total_genesis = sum(sum(g) for g in genesis.values())
    pending = {c: [] for c in range(n_chains)}   # validated proposal awaiting confirm
    for epoch in range(1, epochs + 1):
        confirmed = pending
        new_valid = {}
        for c in range(n_chains):
            incoming = [t for src in range(n_chains) if src != c
                        for t in confirmed[src] if t.dest == c]
            in_total = sum((t.amounts.astype(np.int64) for t in incoming),
                           np.zeros((m, m), dtype=np.int64))
            out_total = sum((t.amounts.astype(np.int64) for t in confirmed[c]),
                            np.zeros((m, m), dtype=np.int64))
            # the window ingests last epoch's confirmed transfers first, which
            # moves the confirmed spend out of the outstanding proposal
            st = states[c]
            st = bal.update_cumulative(st, bal.FlowAggregates(
                chain=c, epoch=st.epoch + 1, inflow=in_total,
                outflow_confirmed=out_total,
                outflow_proposed=st.last_proposed - out_total))
            raw = [tm(c, d, epoch, random_amounts(rng, m, 0, 6))
                   for d in range(n_chains) if d != c]
            res = bal.validate_block(raw, st)
            new_valid[c] = list(res.blocks)
            states[c] = bal.update_cumulative(st, proposal_flows(st, res.blocks))
        pending = new_valid
        net_total = sum(int(v) for c in range(n_chains)
                        for v in bal.net_balances(states[c]))
        in_flight = sum(int(states[c].last_proposed.sum())
                        for c in range(n_chains))
        assert net_total + in_flight == total_genesis
        for c in range(n_chains):
            assert (bal.net_balances(states[c]) >= 0).all()
