"""Exact-integer accounting: the ledger book, its cumulative-state oracle,
validation and conservation."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainmesh import balances as bal
from chainmesh.roles import make_invalid_block


def tm(source, dest, amounts):
    """Transfers of the row totals of a dense m x m amount matrix: one
    triplet per sending account, paid to the row's first nonzero column."""
    a = np.array(amounts, dtype=np.int64)
    senders = np.flatnonzero(a.any(axis=1))
    return bal.Transfers(source=source, dest=dest, senders=senders,
                         receivers=(a[senders] != 0).argmax(axis=1),
                         amounts=a[senders].sum(axis=1))


def dense(t, m):
    """The m x m amount matrix of Transfers `t`."""
    out = np.zeros((m, m), dtype=np.int64)
    np.add.at(out, (t.senders, t.receivers), t.amounts)
    return out


def book(*genesis):
    """A ledger book holding one genesis row per chain."""
    return bal.LedgerBook(np.array(genesis, dtype=np.int64))


def nets(b):
    """Every chain's net balances in book `b`, as rows."""
    return np.array([b.net(c) for c in range(len(b.genesis))])


def covered(t, b):
    """One bool per triplet of `t`: whether its sender's net balance in
    book `b` covers it, the comparison `LedgerBook.debit` makes."""
    return b.net(t.source)[t.senders] >= t.amounts


def valid_rows(t, res, m):
    """The per-triplet verdicts `res` on block `t` as one bool per account;
    an account that spends nothing is valid."""
    out = np.ones(m, dtype=bool)
    out[t.senders] = res
    return out


def proposed_outflow(t, m):
    """The dense formulation of a proposal's spend: the total of each of
    the m accounts, in Python ints, so a total past int64 shows as such."""
    out = [0] * m
    for sender, amount in zip(t.senders.tolist(), t.amounts.tolist()):
        out[sender] += amount
    return out


def random_amounts(rng, m, lo=0, hi=9):
    return np.array([[rng.randint(lo, hi) for _ in range(m)] for _ in range(m)],
                    dtype=np.int64)


def test_negative_amounts_rejected_structurally():
    with pytest.raises(bal.LedgerError):
        tm(0, 1, [[-1]])


# ---------------------------------------------------------------------------
# update_cumulative / net_balances
# ---------------------------------------------------------------------------

def zero_flows(chain, m, epoch):
    z = np.zeros((m, m), dtype=np.int64)
    return bal.FlowAggregates(chain=chain, epoch=epoch, inflow=z,
                              outflow_confirmed=z, outflow_proposed=z)


def zero_invalid_rows(t, keep):
    """`t` without the triplets whose verdict in `keep` is False.

    The engine raises on any invalid row of its own proposals; traces that
    go on past one drop its triplets from the block."""
    return bal.Transfers(source=t.source, dest=t.dest,
                         senders=t.senders[keep], receivers=t.receivers[keep],
                         amounts=t.amounts[keep])


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
# debit, the proposal's one check
# ---------------------------------------------------------------------------

def test_affordable_spend_copied_verbatim():
    b = book([10, 10], [0, 0])
    prop = tm(0, 1, [[0, 7], [0, 0]])
    assert proposed_outflow(prop, 2) == [7, 0]
    assert (prop.senders.tolist(), prop.amounts.tolist()) == ([0], [7])
    b.debit(prop)
    assert b.outstanding.tolist() == [[7, 0], [0, 0]]
    assert b.net(0).tolist() == [3, 10]


def oracle_valid_rows(state, proposal_total, release=False):
    """Per-account recheck in unbounded ints, independent of the implementation.

    `state` holds MxM or summed totals. The proposal adds to the
    outstanding spend, or with `release` takes its place, as a foreign
    tip's does."""
    out = []
    for acct in range(state.accounts):
        bal_in = sum(int(x) for x in state.w_in[:, acct])
        out_total = sum(int(x) for x in state.w_out[acct])
        old_prop = sum(int(x) for x in state.last_proposed[acct])
        new_prop = sum(int(x) for x in proposal_total[acct])
        if release:
            out_total -= old_prop
        w = int(state.genesis[acct]) + bal_in - (out_total + new_prop)
        out.append(w >= 0)
    return out


def test_mixed_block_zeroes_exactly_the_overspending_rows():
    rng = random.Random(77)
    m = 6
    b = book([rng.randint(0, 30) for _ in range(m)], [0] * m, [0] * m)
    for epoch in range(1, 4):
        prop = tm(0, 1 + epoch % 2, random_amounts(rng, m, 0, 4))
        res = covered(prop, b)
        want = oracle_valid_rows(b.state(0), dense(prop, m))
        assert list(valid_rows(prop, res, m)) == want
        if not all(want):
            with pytest.raises(bal.LedgerError, match="overdraw"):
                b.debit(prop)
        kept = zero_invalid_rows(prop, res)
        for acct in range(m):
            if want[acct]:
                assert np.array_equal(dense(kept, m)[acct], dense(prop, m)[acct])
            else:
                assert not dense(kept, m)[acct].any()
        # debit the validated proposal so epochs differ
        b.debit(kept)


def test_validation_is_idempotent():
    rng = random.Random(31)
    m = 5
    b = book([rng.randint(0, 20) for _ in range(m)], [0] * m)
    prop = tm(0, 1, random_amounts(rng, m, 0, 8))
    once = covered(prop, b)
    assert not once.all()
    with pytest.raises(bal.LedgerError, match="overdraw"):
        b.debit(prop)
    kept = zero_invalid_rows(prop, once)
    b.debit(kept)
    assert np.array_equal(
        b.outstanding[0],
        np.where(valid_rows(prop, once, m), proposed_outflow(prop, m), 0))


def test_zeroing_soundness_balances_stay_non_negative():
    rng = random.Random(13)
    m = 5
    b = book([rng.randint(0, 25) for _ in range(m)], [0] * m)
    prop = tm(0, 1, random_amounts(rng, m, 0, 10))
    kept = zero_invalid_rows(prop, covered(prop, b))
    b.debit(kept)
    assert (b.net(0) >= 0).all()


# ---------------------------------------------------------------------------
# validate_tip_payloads
# ---------------------------------------------------------------------------

def test_empty_tip_payload_is_valid():
    tip = tm(1, 0, [[0, 0], [0, 0]])
    assert bal.validate_tip_payloads([tip], book([0, 0], [0, 0])) == [True]


def test_overspending_tip_is_invalid():
    # two triplets of 7 from one account, each within its balance of 10,
    # cannot be built: an account sends one triplet, the sum of 14, which
    # does not fit
    with pytest.raises(bal.LedgerError, match="strictly increasing"):
        bal.Transfers(source=1, dest=0, senders=[0, 0], receivers=[0, 1],
                      amounts=[7, 7])
    tip = bal.Transfers(source=1, dest=0, senders=[0], receivers=[0],
                        amounts=[14])
    assert bal.validate_tip_payloads([tip], book([0, 0], [10, 0])) == [False]


def test_a_tip_is_judged_on_its_spending_rows_only():
    # the book refuses a debit past a net balance, so no held balance is
    # negative: account 0 is spent down to 0 instead, and a tip that names
    # it but spends nothing from it is judged by account 1 alone
    b = book([5, 5], [0, 0])
    spend_all = bal.Transfers(source=0, dest=1, senders=[0], receivers=[0],
                              amounts=[5])
    b.debit(spend_all)
    for over in (spend_all, bal.Transfers(source=0, dest=1, senders=[0, 1],
                                          receivers=[0, 0], amounts=[1, 1])):
        with pytest.raises(bal.LedgerError, match="overdraw"):
            b.debit(over)
        assert b.outstanding.tolist() == [[5, 0], [0, 0]]
    b.ingest([spend_all])
    assert b.held[0].tolist() == [0, 5]
    empty = bal.Transfers(source=0, dest=1, senders=[0], receivers=[0],
                          amounts=[0])
    assert bal.validate_tip_payloads([empty], b) == [True]
    tip = bal.Transfers(source=0, dest=1, senders=[0, 1], receivers=[0, 0],
                        amounts=[0, 5])
    assert bal.validate_tip_payloads([tip], b) == [True]
    tip = bal.Transfers(source=0, dest=1, senders=[0, 1], receivers=[0, 0],
                        amounts=[0, 6])
    assert bal.validate_tip_payloads([tip], b) == [False]


def test_two_tips_from_one_chain_get_a_verdict_each():
    # the engine's batch keeps one tip per chain; the check judges each tip
    tips = [tm(1, 0, [[5]]), tm(1, 2, [[6]])]
    assert bal.validate_tip_payloads(tips, book([0], [5], [0])) == \
        [True, False]


@pytest.mark.parametrize("source", [-1, -3, 3])
def test_tip_or_block_from_a_chain_outside_the_book_raises(source):
    # a negative chain must not wrap round to the last rows of the book
    b = book([5], [5], [5])
    t = bal.Transfers(source=source, dest=0, senders=[0], receivers=[0],
                      amounts=[1])
    with pytest.raises(bal.LedgerError, match="no ledger state"):
        bal.validate_tip_payloads([t], b)
    with pytest.raises(bal.LedgerError, match="no ledger state"):
        b.debit(t)
    assert not b.outstanding.any()


@pytest.mark.parametrize("dest", [-1, 2, 7])
def test_a_transfer_to_a_chain_outside_the_book_raises(dest):
    # dest -1 would credit the last chain's row and dest 7 fail unnamed
    b = book([5], [5])
    t = bal.Transfers(source=0, dest=dest, senders=[0], receivers=[0],
                      amounts=[1])
    with pytest.raises(bal.LedgerError, match="no ledger state"):
        bal.validate_tip_payloads([t], b)
    with pytest.raises(bal.LedgerError, match="no ledger state"):
        b.debit(t)
    b.debit(bal.Transfers(source=0, dest=1, senders=[0], receivers=[0],
                          amounts=[1]))
    with pytest.raises(bal.LedgerError, match="no ledger state"):
        b.ingest([t])
    assert (b.held == b.genesis).all() and not b.spent.any()
    assert b.outstanding.tolist() == [[1], [0]] and b.windows == 0


@pytest.mark.parametrize("chain", [-1, -2, 2])
def test_a_debit_on_a_chain_outside_the_book_raises(chain):
    b = book([5], [5])
    t = bal.Transfers(source=chain, dest=0, senders=[0], receivers=[0],
                      amounts=[1])
    with pytest.raises(bal.LedgerError, match="no ledger state"):
        b.debit(t)
    assert not b.outstanding.any()


def test_the_row_path_equals_the_dense_spend_oracle():
    """Debits and tip checks on a proposal's own rows agree with the dense
    per-account formulation, over drawn proposals: distinct senders, empty
    ones, and amounts up to INT64_MAX. Repeated senders cannot be built."""
    rng = random.Random(2020)
    top = bal.INT64_MAX
    m = 6
    rejected = refused = kept = 0
    for trial in range(60):
        b = book(*([rng.choice([0, rng.randint(1, 50), rng.randint(0, top)])
                     for _ in range(m)] for _ in range(3)))
        for _ in range(8):
            shape = rng.choice(["distinct", "repeated", "empty"])
            if shape == "distinct":
                senders = sorted(rng.sample(range(m), rng.randint(1, m)))
            elif shape == "repeated":
                senders = [rng.randrange(m) for _ in range(rng.randint(2, 9))]
                senders[1] = senders[0]
            else:
                senders = []
            triplets = dict(source=0, dest=rng.choice([1, 2]),
                            senders=senders,
                            receivers=[rng.randrange(m) for _ in senders],
                            amounts=[rng.choice([rng.randint(0, 20),
                                                 rng.randint(0, top), top])
                                     for _ in senders])
            if shape == "repeated":
                rejected += 1
                with pytest.raises(bal.LedgerError,
                                   match="strictly increasing"):
                    bal.Transfers(**triplets)
                continue
            t = bal.Transfers(**triplets)
            want = proposed_outflow(t, m)
            net = b.net(0).tolist()
            held = (b.net(0) + b.outstanding[0]).tolist()
            assert bal.validate_tip_payloads([t], b) == [all(
                held[a] - want[a] >= 0 for a in range(m) if want[a] > 0)]
            before = b.outstanding.tolist()
            if not all(net[a] - want[a] >= 0 for a in range(m)):
                refused += 1
                with pytest.raises(bal.LedgerError, match="overdraw"):
                    b.debit(t)
                assert b.outstanding.tolist() == before
                continue
            kept += 1
            b.debit(t)
            assert b.outstanding.tolist() == [
                [o + w for o, w in zip(before[0], want)], *before[1:]]
    assert rejected > 100 and refused > 50 and kept > 100


def test_batch_verdicts_match_per_account_oracle():
    rng = random.Random(202)
    m = 4
    b = book(*([rng.randint(0, 40) for _ in range(m)] for _ in range(4)))
    for c in range(4):
        prop = tm(c, (c + 1) % 4, random_amounts(rng, m))
        b.debit(zero_invalid_rows(prop, covered(prop, b)))
    tips = [tm(c, (c + 2) % 4, random_amounts(rng, m, 0, 5))
            for c in range(4)]
    got = bal.validate_tip_payloads(tips, b)
    for tip, verdict in zip(tips, got):
        total = dense(tip, m).astype(object)
        spending = [i for i in range(m) if sum(total[i]) > 0]
        ok = all(oracle_valid_rows(b.state(tip.source), total, release=True)[i]
                 for i in spending)
        assert verdict == ok


# ---------------------------------------------------------------------------
# Token conservation across chains
# ---------------------------------------------------------------------------

def test_token_conservation_over_validated_multi_chain_trace():
    rng = random.Random(909)
    n_chains, m, epochs = 3, 4, 8
    genesis = [[rng.randint(5, 30) for _ in range(m)] for _ in range(n_chains)]
    b = book(*genesis)
    total_genesis = sum(map(sum, genesis))
    pending = []                    # validated proposals awaiting confirmation
    for epoch in range(1, epochs + 1):
        # the window ingests last epoch's confirmed transfers first, which
        # moves the confirmed spend out of the outstanding proposals
        if pending:
            b.ingest(pending)
        pending = []
        for c in range(n_chains):
            dest = (c + 1 + epoch % (n_chains - 1)) % n_chains
            raw = tm(c, dest, random_amounts(rng, m, 0, 6))
            pending.append(zero_invalid_rows(raw, covered(raw, b)))
            b.debit(pending[-1])
        net_total = sum(nets(b).ravel().tolist())
        in_flight = sum(b.outstanding.ravel().tolist())
        assert net_total + in_flight == total_genesis
        assert (nets(b) >= 0).all()


# ---------------------------------------------------------------------------
# MxM and 1xM/Mx1 resolutions of one state
# ---------------------------------------------------------------------------

def summed_state(chain, genesis):
    m = len(genesis)
    spent = np.zeros((m, 1), dtype=np.int64)
    return bal.CumulativeState(chain=chain, epoch=0, genesis=genesis,
                               w_in=spent.T, w_out=spent, last_proposed=spent)


def random_transfers(rng, source, dest, m, hi):
    senders = sorted(rng.sample(range(m), rng.randint(0, m)))
    return bal.Transfers(source=source, dest=dest, senders=senders,
                         receivers=[rng.randrange(m) for _ in senders],
                         amounts=[rng.randint(0, hi) for _ in senders])


def fold(state, inflow, confirmed, proposed):
    """Next epoch of dense m x m flows, summed to the state's resolution."""
    if state.w_in.shape[0] == 1:
        inflow = inflow.sum(axis=0, keepdims=True)
        confirmed, proposed = (x.sum(axis=1, keepdims=True)
                               for x in (confirmed, proposed))
    return bal.update_cumulative(state, bal.FlowAggregates(
        chain=state.chain, epoch=state.epoch + 1, inflow=inflow,
        outflow_confirmed=confirmed, outflow_proposed=proposed))


def test_dense_and_summed_states_agree_every_epoch():
    # the MxM and summed states fed the same flows agree with each other
    # and with the book's rows, and the book's net balances, which debit
    # checks, agree with the per-account oracle on the MxM state
    rng = random.Random(808)
    m = 6
    genesis = [rng.randint(0, 30) for _ in range(m)]
    states = [bal.new_state(0, genesis), summed_state(0, genesis)]
    b = book(genesis, [10**6] * m, [10**6] * m)
    zero = np.zeros((m, m), dtype=np.int64)
    outstanding = zero          # chain 0's validated, unconfirmed spend
    pending = None              # its latest validated proposal
    for epoch in range(1, 9):
        # the window confirms only proposals to chain 1; those to chain 2
        # stay outstanding while the next proposal is validated
        incoming = [random_transfers(rng, src, 0, m, 9) for src in (1, 2)]
        for t in incoming:
            b.debit(t)
        confirmed = zero
        if pending is not None and pending.dest == 1:
            confirmed = dense(pending, m)
            incoming.append(pending)
        b.ingest(incoming)
        outstanding = outstanding - confirmed
        inflow = sum((dense(t, m) for t in incoming if t.dest == 0), zero)
        full, summed = states = [fold(s, inflow, confirmed, outstanding)
                                 for s in states]
        assert full.w_in.shape == (m, m) and summed.w_in.shape == (1, m)
        assert summed.w_out.shape == summed.last_proposed.shape == (m, 1)
        assert np.array_equal(bal.net_balances(full), bal.net_balances(summed))
        assert np.array_equal(bal.net_balances(full), b.net(0))
        assert np.array_equal(summed.last_proposed[:, 0], b.outstanding[0])

        raw = random_transfers(rng, 0, 1 + epoch % 2, m, 30)
        res = covered(raw, b)
        assert valid_rows(raw, res, m).tolist() == \
            oracle_valid_rows(full, dense(raw, m))
        if not res.all():
            with pytest.raises(bal.LedgerError, match="overdraw"):
                b.debit(raw)
        spending = np.array(proposed_outflow(raw, m)) > 0
        tip_ok = np.array(oracle_valid_rows(full, dense(raw, m), release=True))
        assert bal.validate_tip_payloads([raw], b) == [
            bool(tip_ok[spending].all())]

        pending = zero_invalid_rows(raw, res)
        b.debit(pending)
        outstanding = outstanding + dense(pending, m)
        states = [fold(s, zero, zero, outstanding) for s in states]
    for s in states:
        assert (bal.net_balances(s) >= 0).all()
    assert (b.net(0) >= 0).all()


def test_dense_flows_on_a_summed_state_raise():
    summed = summed_state(0, [5, 5, 5])
    with pytest.raises(bal.LedgerError):
        bal.update_cumulative(summed, zero_flows(0, 3, 1))


def test_out_of_range_sender_or_receiver_raises():
    m = 3
    b = book([5] * m, [5] * m)
    good = bal.Transfers(source=0, dest=1, senders=[0], receivers=[0],
                         amounts=[1])
    b.debit(good)
    before = [x.copy() for x in (b.held, b.spent, b.outstanding)]
    for senders, receivers in (([m], [0]), ([0], [m])):
        t = bal.Transfers(source=0, dest=1, senders=senders,
                          receivers=receivers, amounts=[1])
        with pytest.raises(bal.LedgerError, match="out of range"):
            b.debit(t)
        with pytest.raises(bal.LedgerError, match="out of range"):
            bal.validate_tip_payloads([t], b)
        # a window once raised numpy's bare IndexError; its sound block
        # lands no more than the bad one
        with pytest.raises(bal.LedgerError, match="out of range"):
            b.ingest([good, t])
        assert all((x == y).all()
                   for x, y in zip((b.held, b.spent, b.outstanding), before))
        assert b.windows == 0


def test_malformed_triplets_and_totals_rejected_structurally():
    with pytest.raises(bal.LedgerError):
        bal.Transfers(source=0, dest=1, senders=[0, 1],
                      receivers=[0], amounts=[1, 1])
    col = np.zeros((2, 1), dtype=np.int64)
    with pytest.raises(bal.LedgerError):
        bal.CumulativeState(chain=0, epoch=0, genesis=[1, 1], w_in=col,
                            w_out=col, last_proposed=col)


# ---------------------------------------------------------------------------
# int64 overflow and array ownership
# ---------------------------------------------------------------------------

def test_state_whose_net_balance_would_wrap_raises():
    # genesis + w_in = 2**63 would read back as net balance -2**63; the
    # error names the chain and the epoch
    balance = "a balance of chain 2 at epoch 7 exceeds int64"
    with pytest.raises(bal.LedgerOverflowError, match=balance):
        bal.CumulativeState(chain=2, epoch=7, genesis=[2**62],
                            w_in=[[2**62]], w_out=[[0]], last_proposed=[[0]])
    with pytest.raises(bal.LedgerOverflowError, match=balance):
        bal.CumulativeState(chain=2, epoch=7, genesis=[0, 0],
                            w_in=[[2**62, 0], [2**62, 0]],
                            w_out=[[0, 0], [0, 0]],
                            last_proposed=[[0, 0], [0, 0]])
    with pytest.raises(bal.LedgerOverflowError,
                       match="a spend of chain 2 at epoch 7 exceeds int64"):
        bal.CumulativeState(chain=2, epoch=7, genesis=[0, 0],
                            w_in=[[0, 0], [0, 0]],
                            w_out=[[2**62, 2**62], [0, 0]],
                            last_proposed=[[0, 0], [0, 0]])


def test_largest_state_that_fits_reads_exact_balances():
    top = bal.INT64_MAX
    s = bal.CumulativeState(chain=0, epoch=0, genesis=[top - 2**62, 5],
                            w_in=[[2**62, 0]], w_out=[[top], [0]],
                            last_proposed=[[0], [0]])
    assert bal.net_balances(s).tolist() == [0, 5]
    # the largest entries alone would overflow; the per-account sums do not
    s = bal.CumulativeState(chain=0, epoch=0, genesis=[top, 0],
                            w_in=[[0, 5]], w_out=[[0], [0]],
                            last_proposed=[[0], [0]])
    assert bal.net_balances(s).tolist() == [top, 5]
    s = bal.CumulativeState(chain=0, epoch=0, genesis=[0, 0],
                            w_in=[[top, 0], [0, top]],
                            w_out=[[top, 0], [0, top]],
                            last_proposed=[[0, 0], [0, 0]])
    assert bal.net_balances(s).tolist() == [0, 0]


def test_update_that_wraps_raises_a_named_overflow_error():
    s = bal.CumulativeState(chain=0, epoch=0, genesis=[0], w_in=[[bal.INT64_MAX]],
                            w_out=[[0]], last_proposed=[[0]])
    flows = bal.FlowAggregates(chain=0, epoch=1, inflow=[[1]],
                               outflow_confirmed=[[0]], outflow_proposed=[[0]])
    with pytest.raises(bal.LedgerOverflowError):
        bal.update_cumulative(s, flows)
    s = bal.CumulativeState(chain=0, epoch=0, genesis=[0], w_in=[[0]],
                            w_out=[[2**62]], last_proposed=[[0]])
    flows = bal.FlowAggregates(chain=0, epoch=1, inflow=[[0]],
                               outflow_confirmed=[[2**62]],
                               outflow_proposed=[[2**62]])
    with pytest.raises(bal.LedgerOverflowError):
        bal.update_cumulative(s, flows)


def test_amount_beyond_int64_raises_a_named_overflow_error():
    with pytest.raises(bal.LedgerOverflowError):
        bal.Transfers(source=0, dest=1, senders=[0], receivers=[0],
                      amounts=[2**63])


NOT_INTEGERS = (bal.LedgerError, "must be integers")


@pytest.mark.parametrize("values, refused", [
    ([7], None),
    (np.array([7], dtype=np.uint8), None),
    (np.array([7], dtype=object), None),
    ([], None),
    (np.array([], dtype=float), None),
    (np.array([], dtype=bool), None),
    (np.array([], dtype=str), None),
    ([1.5], NOT_INTEGERS),
    ([7.0], NOT_INTEGERS),
    (["7"], NOT_INTEGERS),
    ([True], NOT_INTEGERS),
    ([True, 5], NOT_INTEGERS),
    ([5, np.True_], NOT_INTEGERS),
    ([float("nan")], NOT_INTEGERS),
    ([None], NOT_INTEGERS),
    (None, NOT_INTEGERS),
    ([[1], [1, 2]], (bal.LedgerError, "regular array")),
    ([2**63], (bal.LedgerOverflowError, "exceeds int64")),
    ([2**64], (bal.LedgerOverflowError, "exceeds int64")),
    ([1, 2**63], (bal.LedgerOverflowError, "exceeds int64")),
    ([-1, 2**63], (bal.LedgerError, "non-negative")),
    ([2**63, -1], (bal.LedgerError, "non-negative")),
], ids=["int", "uint8", "object-int", "empty", "empty-float", "empty-bool",
        "empty-str", "float", "integral-float", "str", "bool", "bool-int",
        "int-np-bool", "nan",
        "none-entry", "none", "ragged", "2**63", "2**64", "1,2**63",
        "-1,2**63", "2**63,-1"])
def test_amounts_are_exactly_the_integers_given(values, refused):
    # a transfer and a genesis hold exactly the integers they are given:
    # a float, bool or string is never rounded or parsed into one, and an
    # empty input of any dtype is the empty int64 array
    build = (lambda: bal.Transfers(source=0, dest=1, senders=values,
                                   receivers=values, amounts=values),
             lambda: bal.LedgerBook([values, values]))
    for make in build:
        if refused:
            error, match = refused
            with pytest.raises(error, match=match):
                make()
    if refused:
        return
    want = np.asarray(values).tolist()
    t, b = (make() for make in build)
    for arr in (t.senders, t.receivers, t.amounts):
        assert arr.dtype == np.int64 and arr.tolist() == want
    assert b.genesis.dtype == np.int64 and b.genesis.tolist() == [want] * 2


@pytest.mark.parametrize("genesis, refused", [
    ([1.5, 2], NOT_INTEGERS),
    ([True, 3], NOT_INTEGERS),
    ([2**63], (bal.LedgerOverflowError, "exceeds int64")),
    ("ab", NOT_INTEGERS),
], ids=["float", "bool", "2**63", "str"])
def test_a_fresh_state_takes_its_genesis_through_the_amount_check(
        genesis, refused):
    # these were once truncated to [1, 2] and [1, 3], or raised a bare
    # OverflowError or ValueError
    error, match = refused
    with pytest.raises(error, match=match):
        bal.new_state(0, genesis)


@pytest.mark.parametrize("senders, receivers, amounts, refused", [
    (np.array([0, 1]), np.array([True, False]), [1, 1], NOT_INTEGERS),
    ([0, 1], [0, 0], np.array([1, 1], dtype=bool), NOT_INTEGERS),
    (np.array([0, 1], dtype=np.uint64), np.array([2, 3]), [1, 1], None),
    (np.array([0, 1]), [0, 0], [1, 2**63],
     (bal.LedgerOverflowError, "exceeds int64")),
    (np.array([0, 1]), [0, 0], [1, -1], (bal.LedgerError, "non-negative")),
    (np.array([0, 1]), [0, 0], [1.0, 2.0], NOT_INTEGERS),
], ids=["bool-receivers", "bool-amounts", "uint64-with-int64",
        "past-int64-with-int64", "negative-with-int64", "floats-with-ints"])
def test_triplets_of_mixed_kinds_are_judged_as_each_vector_alone(
        senders, receivers, amounts, refused):
    # the three vectors are checked in one pass, as one stacked array, which
    # numpy may hold in a dtype none of them has (an int64 and a uint64
    # vector stack as float64, a bool vector among ints as int64); the
    # verdict is still the one each vector would get on its own
    def build():
        return bal.Transfers(source=0, dest=1, senders=senders,
                             receivers=receivers, amounts=amounts)

    if refused:
        error, match = refused
        with pytest.raises(error, match=match):
            build()
        return
    t = build()
    assert t.triplets.dtype == np.int64 and not t.triplets.flags.writeable
    assert t.triplets.tolist() == [list(senders), list(receivers), amounts]


def test_summed_spend_beyond_int64_raises_a_named_overflow_error():
    # two 2**62 transfers from one account would sum to 2**63, which int64
    # reads as -2**63; an account sends one triplet, so no block holds them
    with pytest.raises(bal.LedgerError, match="strictly increasing"):
        bal.Transfers(source=0, dest=1, senders=[0, 0],
                      receivers=[0, 1], amounts=[2**62, 2**62])
    # a block's spend is its amounts, never summed; the spend that can still
    # pass int64 is an overspending draw's, balance plus margin, which the
    # draw raises as a named overflow (tests/test_roles.py,
    # TestOverspendOverflow)
    with pytest.raises(bal.LedgerOverflowError):
        make_invalid_block(1, np.array([bal.INT64_MAX - 10**9]), 1.0,
                           np.random.default_rng(0), source=0,
                           active_rows=1, bounds={})
    # amounts at the top of int64 are judged exactly
    top = bal.Transfers(source=0, dest=1, senders=[0, 1],
                        receivers=[0, 0], amounts=[bal.INT64_MAX, 5])
    short = book([5, 0], [0, 0])
    assert covered(top, short).tolist() == [False, False]
    with pytest.raises(bal.LedgerError, match="overdraw"):
        short.debit(top)
    b = book([bal.INT64_MAX, 5], [0, 0])
    assert covered(top, b).tolist() == [True, True]
    b.debit(top)
    assert b.net(0).tolist() == [0, 0]


def test_checked_arrays_are_read_only_copies():
    # every array is checked and copied as it is taken, even one another
    # ledger object already holds, so no two objects share one
    s = bal.new_state(0, [5, 7])
    flows = zero_flows(0, 2, 1)
    s2 = bal.update_cumulative(s, flows)
    assert s2.genesis is not s.genesis and s2.genesis.tolist() == [5, 7]
    assert s2.last_proposed is not flows.outflow_proposed
    for arr in (s2.genesis, s2.w_in, s2.w_out, s2.last_proposed):
        assert not arr.flags.writeable
    t = tm(0, 1, [[0, 3], [2, 0]])
    again = bal.Transfers(source=0, dest=1, senders=t.senders,
                          receivers=t.receivers, amounts=t.amounts)
    assert again.amounts is not t.amounts
    assert not np.shares_memory(again.triplets, t.triplets)
    assert not again.triplets.flags.writeable
    assert again.amounts.tolist() == t.amounts.tolist() == [3, 2]


def test_writable_or_borrowed_arrays_are_still_checked():
    bad = np.array([-1], dtype=np.int64)
    with pytest.raises(bal.LedgerError):
        bal.Transfers(source=0, dest=1, senders=[0], receivers=[0],
                      amounts=bad)
    view = np.broadcast_to(np.int64(-1), (1,))      # read-only, not owned
    with pytest.raises(bal.LedgerError):
        bal.Transfers(source=0, dest=1, senders=[0], receivers=[0],
                      amounts=view)
    mine = np.array([4], dtype=np.int64)
    t = bal.Transfers(source=0, dest=1, senders=[0], receivers=[0],
                      amounts=mine)
    mine[0] = 9
    assert t.amounts[0] == 4


def test_validation_against_available_funds():
    # outstanding spend of 2 and 1 leaves net balances of 3 and 4
    b = book([5, 5], [0, 0])
    b.debit(bal.Transfers(source=0, dest=1, senders=[0, 1],
                          receivers=[1, 1], amounts=[2, 1]))
    assert b.net(0).tolist() == [3, 4]
    assert bal.net_balances(b.state(0)).tolist() == [3, 4]
    t = bal.Transfers(source=0, dest=1, senders=[0, 1],
                      receivers=[0, 0], amounts=[4, 4])
    assert covered(t, b).tolist() == [False, True]
    with pytest.raises(bal.LedgerError, match="overdraw"):
        b.debit(t)
    assert b.net(0).tolist() == [3, 4]
    # the same spend as a foreign tip takes the outstanding spend's place
    assert bal.validate_tip_payloads([t], b) == [True]


# ---------------------------------------------------------------------------
# The ledger book's windows
# ---------------------------------------------------------------------------

def test_a_window_moves_confirmed_spend_and_credits_the_destination():
    # two blocks of one chain land in one window: account 0 spends in both,
    # and both pay account 1 of chain 2
    b = book([10, 10], [0, 0], [0, 0])
    blocks = [bal.Transfers(source=0, dest=2, senders=[0, 1],
                            receivers=[1, 0], amounts=[3, 2]),
              bal.Transfers(source=0, dest=2, senders=[0], receivers=[1],
                            amounts=[4])]
    for t in blocks:
        b.debit(t)
    b.ingest(blocks)
    assert b.spent.tolist() == [[7, 2], [0, 0], [0, 0]]
    # received: held + spent - genesis
    assert (b.held + b.spent - b.genesis).tolist() == \
        [[0, 0], [0, 0], [2, 7]]
    assert not b.outstanding.any()
    assert nets(b).tolist() == [[3, 8], [0, 0], [2, 7]]
    assert b.windows == 1
    s = b.state(2)
    assert (s.w_in.shape, s.w_out.shape) == ((1, 2), (2, 1))
    assert bal.net_balances(s).tolist() == [2, 7]


def test_a_window_confirming_spend_no_proposal_held_lands_nothing():
    b = book([10], [0])
    t = bal.Transfers(source=0, dest=1, senders=[0], receivers=[0],
                      amounts=[4])
    b.debit(bal.Transfers(source=0, dest=1, senders=[0], receivers=[0],
                          amounts=[3]))
    with pytest.raises(bal.LedgerError):
        b.ingest([t])
    assert (b.held == b.genesis).all() and not b.spent.any()
    assert b.windows == 0


def test_a_window_of_no_block_lands_nothing_and_is_not_counted():
    # it once raised numpy's bare "need at least one array to concatenate"
    b = book([10, 10], [0, 0])
    t = bal.Transfers(source=0, dest=1, senders=[0], receivers=[1],
                      amounts=[4])
    b.debit(t)
    before = [x.copy() for x in (b.held, b.spent, b.outstanding)]
    b.ingest([])
    assert all((x == y).all()
               for x, y in zip((b.held, b.spent, b.outstanding), before))
    assert b.windows == 0
    b.ingest([t])
    assert b.windows == 1


NO_INTS = [pytest.param(1.5, id="float"), pytest.param(True, id="bool"),
           pytest.param(np.int64(1), id="np.int64")]


@pytest.mark.parametrize("chain", [-1, -2, 2, *NO_INTS])
def test_the_state_of_a_chain_outside_the_book_raises(chain):
    # state(-1) once gave the last chain's totals labelled as chain -1;
    # net(1.5) and state(1.5) raised numpy's bare IndexError, and net(True)
    # returned every chain's balances: numpy reads a bool index as a mask
    b = book([5], [5])
    with pytest.raises(bal.LedgerError, match="no ledger state"):
        b.state(chain)
    with pytest.raises(bal.LedgerError, match="no ledger state"):
        b.net(chain)


@pytest.mark.parametrize("chain", NO_INTS)
def test_a_transfer_between_chains_that_are_no_ints_is_refused(chain):
    for source, dest in ((chain, 2), (2, chain)):
        with pytest.raises(bal.LedgerError, match="must be ints"):
            bal.Transfers(source=source, dest=dest, senders=[0],
                          receivers=[0], amounts=[1])


@pytest.mark.parametrize("chain", NO_INTS)
def test_a_debit_of_a_block_from_a_chain_that_is_no_int_holds_nothing(chain):
    b = book([5], [5], [5])
    with pytest.raises(bal.LedgerError, match="must be ints"):
        b.debit(bal.Transfers(source=chain, dest=2, senders=[0],
                              receivers=[0], amounts=[1]))
    assert not b.outstanding.any()


def test_a_window_whose_inflow_sum_wraps_raises_a_named_overflow_error():
    # four 2**61 transfers into one account sum to 2**63, which np.add.at
    # would wrap to -2**63 before any check saw it
    b = book(*[[2**61]] * 5)
    blocks = [bal.Transfers(source=c, dest=0, senders=[0], receivers=[0],
                            amounts=[2**61]) for c in range(1, 5)]
    for t in blocks:
        b.debit(t)
    with pytest.raises(bal.LedgerOverflowError):
        b.ingest(blocks)
    assert (b.held == b.genesis).all() and not b.spent.any()
    # three of them fit the flow, but not on top of chain 0's genesis
    b = book(*[[2**61]] * 4)
    for t in blocks[:3]:
        b.debit(t)
    with pytest.raises(bal.LedgerOverflowError):
        b.ingest(blocks[:3])
    assert (b.held == b.genesis).all() and not b.spent.any()


def test_the_largest_window_that_fits_lands_exactly():
    # the count-times-largest bounds are inconclusive; the exact sums fit.
    # Each window lands two blocks of chain 1, both spent by its account 0
    top = bal.INT64_MAX

    def land(b, receivers, amounts):
        blocks = [bal.Transfers(source=1, dest=0, senders=[0],
                                receivers=[r], amounts=[a])
                  for r, a in zip(receivers, amounts)]
        for t in blocks:
            b.debit(t)
        b.ingest(blocks)

    b = book([0, 0], [top, 0])
    land(b, [0, 1], [top - 5, 5])
    assert b.net(0).tolist() == [top - 5, 5]
    assert b.net(1).tolist() == [0, 0]
    b = book([1, 0], [top - 1, 0])
    land(b, [0, 0], [top - 2, 1])
    assert b.net(0).tolist() == [top, 0]


# ---------------------------------------------------------------------------
# Properties, over drawn senders, books and blocks
# ---------------------------------------------------------------------------

PROPERTY = settings(derandomize=True, deadline=None, database=None)

#: an amount: small, anywhere in int64, or its largest value
AMOUNT = st.one_of(st.integers(0, 30), st.integers(0, bal.INT64_MAX),
                   st.just(bal.INT64_MAX))


def owned(values, read_only):
    """`values` as an int64 array that owns its memory, read-only or not."""
    arr = np.array(values, dtype=np.int64)
    arr.setflags(write=not read_only)
    return arr


#: an entry of a drawn block or genesis row: a few negative, most not
ENTRY = st.integers(-5, 30)


@PROPERTY
@given(st.one_of(st.lists(st.integers(-3, 9), max_size=6),
                 st.sets(st.integers(-3, 9), max_size=6).map(sorted)),
       st.lists(ENTRY, max_size=6), st.sampled_from([0, 1]), st.booleans(),
       st.lists(ENTRY, min_size=1, max_size=4))
@example([0], [-5], 1, True, [10])          # a read-only negative amount
@example([-3], [1], 1, True, [5, 5, 5])     # a read-only negative sender
@example([0], [1], 0, True, [5])            # a read-only intra-chain block
def test_transfers_accept_exactly_the_strictly_increasing_senders(
        senders, amounts, dest, read_only, genesis):
    # a block and a genesis are checked whatever their arrays' flags: a
    # negative entry, an intra-chain block and unsorted senders are refused
    n = len(senders)
    amounts = (amounts + [1] * n)[:n]
    triplets = dict(source=0, dest=dest, senders=owned(senders, read_only),
                    receivers=owned([0] * n, read_only),
                    amounts=owned(amounts, read_only))
    if dest == 0:
        refused = "intra-chain"
    elif min(senders + amounts, default=0) < 0:
        refused = "non-negative"
    elif any(a >= b for a, b in zip(senders, senders[1:])):
        refused = "strictly increasing"
    else:
        refused = None
    if refused:
        with pytest.raises(bal.LedgerError, match=refused):
            bal.Transfers(**triplets)
    else:
        t = bal.Transfers(**triplets)
        assert (t.senders.tolist(), t.amounts.tolist()) == (senders, amounts)
        for name, given_arr in triplets.items():
            if name in ("senders", "receivers", "amounts"):
                arr = getattr(t, name)
                assert arr is not given_arr and not arr.flags.writeable
    rows = owned([genesis, genesis], read_only)
    if min(genesis) < 0:
        with pytest.raises(bal.LedgerError, match="non-negative"):
            bal.LedgerBook(rows)
        return
    b = bal.LedgerBook(rows)
    if not refused:
        try:
            b.debit(t)
        except bal.LedgerError:
            assert b.outstanding.tolist() == [[0] * len(genesis)] * 2
    # a debit never leaves a net balance negative or above the held one
    assert (nets(b) >= 0).all() and (nets(b) <= b.held).all()


@st.composite
def book_and_block(draw):
    """A two-chain book whose chain 0 holds an outstanding debit, landed by
    a window or not, and a block from chain 0 that may overdraw."""
    m = draw(st.integers(1, 6))
    genesis = draw(st.lists(AMOUNT, min_size=m, max_size=m))
    b = bal.LedgerBook(np.array([genesis, [0] * m], dtype=np.int64))
    senders = sorted(draw(st.sets(st.integers(0, m - 1))))
    prior = bal.Transfers(
        source=0, dest=1, senders=senders,
        receivers=[draw(st.integers(0, m - 1)) for _ in senders],
        amounts=[draw(st.integers(0, genesis[a])) for a in senders])
    b.debit(prior)
    if draw(st.booleans()):
        b.ingest([prior])
    senders = sorted(draw(st.sets(st.integers(0, m - 1))))
    block = bal.Transfers(
        source=0, dest=1, senders=senders,
        receivers=[draw(st.integers(0, m - 1)) for _ in senders],
        amounts=[draw(AMOUNT) for _ in senders])
    return b, block


@PROPERTY
@given(book_and_block())
def test_validation_tip_check_and_debit_agree_with_the_dense_oracle(drawn):
    b, t = drawn
    m = b.accounts
    want = proposed_outflow(t, m)
    net = b.net(0).tolist()
    held = b.held[0].tolist()
    assert bal.validate_tip_payloads([t], b) == [all(
        held[a] >= want[a] for a in range(m) if want[a])]
    before = b.outstanding.tolist()
    if all(net[a] >= want[a] for a in range(m)):
        b.debit(t)
        assert b.outstanding.tolist() == [
            [o + w for o, w in zip(before[0], want)], before[1]]
    else:
        with pytest.raises(bal.LedgerError, match="overdraw"):
            b.debit(t)
        assert b.outstanding.tolist() == before
    assert (nets(b) >= 0).all()



#: an int64 entry of either sign: small, anywhere, or near either limit
SIGNED = st.one_of(st.integers(-30, 30),
                   st.integers(-bal.INT64_MAX - 1, bal.INT64_MAX),
                   st.integers(bal.INT64_MAX - 30, bal.INT64_MAX),
                   st.integers(-bal.INT64_MAX - 1, -bal.INT64_MAX + 30))


@st.composite
def sums_at(draw):
    """A base, an index and amounts for `_sum_at`: a 1-D base with a list
    of indices that may repeat, or a 2-D base added to at slice(None)."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        shape, index, count = (n, 2), slice(None), 2 * n
    else:
        index = draw(st.lists(st.integers(0, n - 1), max_size=6))
        shape, count = (n,), len(index)
    size = int(np.prod(shape))
    base = draw(st.lists(SIGNED, min_size=size, max_size=size))
    amounts = draw(st.lists(SIGNED, min_size=count, max_size=count))
    return (np.array(base, dtype=np.int64).reshape(shape), index,
            np.array(amounts, dtype=np.int64).reshape(-1, *shape[1:]))


@PROPERTY
@given(sums_at())
@example((np.array([-2**62]), [0, 0], np.array([-2**62, -2**62])))
@example((np.array([2**61]), [0, 0, 0], np.array([2**61] * 3)))
def test_the_one_guard_sums_exactly_or_raises_by_name(drawn):
    # the guard of the book, the update fold, the spam rows and the coded
    # stores, against Python-int sums: once a total of either sign past
    # int64 came back wrapped
    base, index, amounts = drawn
    want = base.tolist()
    if isinstance(index, slice):
        want = [[b + a for b, a in zip(rb, ra)]
                for rb, ra in zip(want, amounts.tolist())]
        flat = [v for row in want for v in row]
    else:
        for i, a in zip(index, amounts.tolist()):
            want[i] += a
        flat = want
    before = base.copy()
    if all(-bal.INT64_MAX - 1 <= v <= bal.INT64_MAX for v in flat):
        assert bal._sum_at(base, index, amounts, "a total").tolist() == want
    else:
        with pytest.raises(bal.LedgerOverflowError,
                           match="^a total exceeds int64$"):
            bal._sum_at(base, index, amounts, "a total")
        with pytest.raises(KeyError):
            bal._sum_at(base, index, amounts, "a total", error=KeyError)
    assert np.array_equal(base, before)
