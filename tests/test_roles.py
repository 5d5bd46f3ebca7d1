"""Fleet construction, straggler silence, adversarial blocks, issuance."""

import importlib
import itertools
from array import array
from pathlib import Path

import numpy as np
import pytest

import chainmesh
from chainmesh.balances import (INT64_MAX, LedgerError, LedgerOverflowError,
                               Transfers)
from chainmesh.roles import (OVERSPEND_MARGIN, RoleError, _draw_block,
                             _draw_bounds, build_fleet, make_invalid_block,
                             make_valid_block, schedule_issuance)


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Fleet and stragglers
# ---------------------------------------------------------------------------

class TestBuildFleet:
    def test_exact_straggler_count_hundred_nodes(self):
        profile = build_fleet(100, 0.1, rng())
        assert len(profile.probabilities) == 100
        assert len(profile.straggler_set()) == 10

    def test_silent_set_partitions_fleet(self):
        silent = build_fleet(20, 0.3, rng(3)).straggler_set()
        assert list(silent) == sorted(set(silent))
        assert set(silent) <= set(range(20))
        assert len(silent) == 6

    def test_silent_nodes_have_highest_straggle_probability(self):
        profile = build_fleet(20, 0.25, rng(7))
        silent = set(profile.straggler_set())
        probs = profile.probabilities
        worst_silent = min(probs[i] for i in silent)
        best_responder = max(p for i, p in enumerate(probs)
                             if i not in silent)
        assert worst_silent >= best_responder

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_likelihoods_are_the_uniform_unit_draws(self, seed):
        # the same stream as `uniform(0, 1)`, value for value
        profile = build_fleet(1000, 0.1, rng(seed))
        assert profile.probabilities == tuple(
            rng(seed).uniform(0.0, 1.0, size=1000).tolist())

    def test_zero_fraction_everyone_responds(self):
        assert build_fleet(15, 0.0, rng()).straggler_set() == ()

    def test_half_up_rounding_of_straggler_count(self):
        # 0.25 of 10 rounds to 3
        assert len(build_fleet(10, 0.25, rng()).straggler_set()) == 3

    def test_empty_fleet_rejected(self):
        with pytest.raises(RoleError):
            build_fleet(0, 0.0, rng())


# ---------------------------------------------------------------------------
# Adversarial blocks
# ---------------------------------------------------------------------------

def dense(t, m):
    """The m x m amount matrix of Transfers `t`."""
    out = np.zeros((m, m), dtype=np.int64)
    np.add.at(out, (t.senders, t.receivers), t.amounts)
    return out


def overspending_rows(tm, balances):
    spent = dense(tm, len(balances)).sum(axis=1)
    return {a for a in range(len(balances))
            if spent[a] > balances[a] and spent[a] > 0}


def active_row_count(tm, m):
    return int((dense(tm, m).sum(axis=1) > 0).sum())


class TestMakeInvalidBlock:
    def test_fraction_one_every_active_row_overspends(self):
        balances = np.full(20, 50, dtype=np.int64)
        tm = make_invalid_block(dest=1, balances=balances,
                                invalid_tx_fraction=1.0, rng=rng(2),
                                source=0, active_rows=8, bounds={})
        assert active_row_count(tm, 20) == 8
        assert len(overspending_rows(tm, balances)) == 8

    def test_fraction_half_floors_to_five_of_ten(self):
        balances = np.full(30, 50, dtype=np.int64)
        tm = make_invalid_block(dest=2, balances=balances,
                                invalid_tx_fraction=0.5, rng=rng(5),
                                source=0, active_rows=10, bounds={})
        assert active_row_count(tm, 30) == 10
        assert len(overspending_rows(tm, balances)) == 5

    def test_fraction_zero_spends_within_balance_everywhere(self):
        balances = np.full(10, 50, dtype=np.int64)
        tm = make_invalid_block(dest=1, balances=balances,
                                invalid_tx_fraction=0.0, rng=rng(0),
                                source=0, active_rows=6, bounds={})
        assert overspending_rows(tm, balances) == set()

    def test_rows_limited_to_funded_accounts(self):
        balances = np.zeros(10, dtype=np.int64)
        balances[[2, 5]] = 7
        tm = make_invalid_block(dest=1, balances=balances,
                                invalid_tx_fraction=1.0, rng=rng(0),
                                source=0, active_rows=5, bounds={})
        spent = dense(tm, 10).sum(axis=1)
        assert set(np.nonzero(spent)[0]) <= {2, 5}

    def test_same_chain_target_rejected(self):
        # the drawn block's own `Transfers` refuses it
        with pytest.raises(LedgerError, match="intra-chain"):
            make_invalid_block(dest=0,
                               balances=np.ones(4, dtype=np.int64),
                               invalid_tx_fraction=0.5, rng=rng(), source=0,
                               active_rows=2, bounds={})


class TestMakeValidBlock:
    def test_every_row_within_budget(self):
        balances = np.arange(1, 21, dtype=np.int64)
        tm = make_valid_block(dest=1, balances=balances, rng=rng(4),
                              source=0, active_rows=12, bounds={})
        spent = dense(tm, 20).sum(axis=1)
        assert np.all(spent <= balances)
        assert active_row_count(tm, 20) == 12

    def test_deterministic_under_same_rng_seed(self):
        balances = np.full(15, 9, dtype=np.int64)
        a = make_valid_block(1, balances, rng(9), source=0, active_rows=5,
                             bounds={})
        b = make_valid_block(1, balances, rng(9), source=0, active_rows=5,
                             bounds={})
        assert np.array_equal(dense(a, 15), dense(b, 15))

    def test_same_draw_as_an_invalid_block_with_fraction_zero(self):
        balances = np.array([0, 3, 50, 7, 0, 12, 1, 40, 9, 2], dtype=np.int64)
        a = make_valid_block(1, balances, rng(11), source=0,
                             active_rows=6, amount_max=10, bounds={})
        b = make_invalid_block(1, balances, invalid_tx_fraction=0.0,
                               rng=rng(11), source=0, active_rows=6,
                               bounds={})
        for field in ("senders", "receivers", "amounts"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert len(a.senders) == 6


def per_row_draw(dest, balances, invalid_tx_fraction, rng, source,
                 active_rows, amount_max):
    """The block draw as one scalar `rng.integers` call per value, row by
    row: the oracle for the single array-bounds call of `_draw_block`."""
    m = len(balances)
    funded = np.flatnonzero(np.asarray(balances) > 0)
    active_rows = min(active_rows, len(funded))
    chosen = sorted(int(a) for a in
                    rng.choice(funded, size=active_rows, replace=False))
    receivers, amounts = [], []
    n_bad = int(invalid_tx_fraction * active_rows)
    bad = set(chosen[:n_bad])
    for acct in chosen:
        bal = int(balances[acct])
        receivers.append(int(rng.integers(0, m)))
        if acct in bad:
            amounts.append(bal + 1_000_000_000 + int(rng.integers(0, 100)))
        else:
            amounts.append(max(1, min(bal, int(rng.integers(1, amount_max + 1)))))
    return Transfers(source=source, dest=dest, senders=chosen,
                     receivers=receivers, amounts=amounts)


class TestDrawBlockOracle:
    @pytest.mark.parametrize("accounts", [1, 7, 100, 1000])
    def test_equals_the_per_row_draw_and_leaves_the_same_stream(self,
                                                               accounts):
        cases = itertools.product(range(4), (0, 1, 10, accounts + 5),
                                  (0.0, 0.3, 1.0), (1, 10))
        for seed, rows, fraction, amount_max in cases:
            setup = np.random.default_rng([seed, accounts])
            balances = setup.integers(0, 60, size=accounts)
            balances[setup.random(accounts) < 0.2] = 0      # some unfunded
            a, b = rng(seed), rng(seed)
            got = _draw_block(1, balances, fraction, a, 0, rows,
                              amount_max, {})
            want = per_row_draw(1, balances, fraction, b, 0, rows,
                                amount_max)
            for field in ("senders", "receivers", "amounts"):
                assert np.array_equal(getattr(got, field),
                                      getattr(want, field)), field
            assert a.integers(0, 2**62) == b.integers(0, 2**62)

    def test_senders_are_strictly_increasing(self):
        # validation takes a drawn block's amounts as its per-sender spend
        for seed, fraction, rows in itertools.product(
                range(40), (0.0, 0.5, 1.0), (1, 4, 10, 60)):
            setup = np.random.default_rng([seed, rows])
            balances = setup.integers(0, 5, size=50)
            tm = _draw_block(1, balances, fraction, rng(seed), 0, rows,
                             10, {})
            assert (np.diff(tm.senders) > 0).all(), (seed, fraction, rows)

    def test_a_shared_bounds_memo_draws_the_same_blocks(self):
        # one memo serves every block of a run, whatever its shape; no src
        # module keeps one of its own, which would outlive the run
        for path in sorted(Path(chainmesh.__file__).parent.glob("*.py")):
            module = importlib.import_module(f"chainmesh.{path.stem}")
            assert not [name for name, value in vars(module).items()
                        if hasattr(value, "cache_clear")], module.__name__
        bounds = {}
        cases = list(itertools.product(range(6), (0.0, 0.5), (0, 3, 10),
                                       (1, 10)))
        for seed, fraction, rows, amount_max in cases:
            balances = np.random.default_rng(seed).integers(0, 9, size=20)
            a, b = rng(seed), rng(seed)
            got = _draw_block(1, balances, fraction, a, 0, rows, amount_max,
                              bounds)
            want = per_row_draw(1, balances, fraction, b, 0, rows,
                                amount_max)
            for field in ("senders", "receivers", "amounts"):
                assert np.array_equal(getattr(got, field),
                                      getattr(want, field)), field
            assert a.integers(0, 2**62) == b.integers(0, 2**62)
        assert len(bounds) < len(cases)         # shapes met again reuse it
        for key, (low, high) in bounds.items():
            assert all(np.array_equal(x, y)
                       for x, y in zip((low, high), _draw_bounds(*key)))
            assert not low.flags.writeable and not high.flags.writeable

    def test_arrays_are_read_only_int64(self):
        tm = make_valid_block(1, np.full(9, 5), rng(1), source=0,
                              active_rows=4, bounds={})
        for arr in (tm.senders, tm.receivers, tm.amounts):
            assert arr.dtype == np.int64 and not arr.flags.writeable


def two_pass_draw(dest, balances, invalid_tx_fraction, rng, source,
                  active_rows, amount_max):
    """The block draw that fills the overspending and the honest amounts in
    two separate passes, checking for overflow on every block: the oracle
    for the single `np.minimum` pass of `_draw_block`."""
    balances = np.asarray(balances, dtype=np.int64)
    m = len(balances)
    funded = np.flatnonzero(balances > 0)
    rows = min(active_rows, len(funded))
    senders = np.sort(rng.choice(funded, size=rows, replace=False))
    n_bad = int(invalid_tx_fraction * rows)
    low = np.zeros((rows, 2), dtype=np.int64)
    high = np.full((rows, 2), m, dtype=np.int64)
    low[n_bad:, 1] = 1
    high[:n_bad, 1] = 100
    high[n_bad:, 1] = amount_max + 1
    draws = rng.integers(low, high)
    held = balances[senders]
    bad, extra = held[:n_bad], draws[:n_bad, 1]
    if (bad > INT64_MAX - OVERSPEND_MARGIN - extra).any():
        raise LedgerOverflowError("overspending row exceeds int64")
    amounts = np.empty(rows, dtype=np.int64)
    amounts[:n_bad] = bad + OVERSPEND_MARGIN + extra
    np.minimum(held[n_bad:], draws[n_bad:, 1], out=amounts[n_bad:])
    return Transfers(source=source, dest=dest, senders=senders,
                     receivers=draws[:, 0].copy(), amounts=amounts)


class TestDrawBlockTwoPassOracle:
    @pytest.mark.parametrize("funded", [3, 10, 40])    # active_rows is 10
    def test_equals_the_two_pass_draw(self, funded):
        for seed, fraction in itertools.product(range(100), (0.0, 0.5, 1.0)):
            setup = np.random.default_rng([seed, funded])
            balances = np.zeros(50, dtype=np.int64)
            balances[setup.choice(50, size=funded, replace=False)] = \
                setup.integers(1, 30, size=funded)
            a, b = rng(seed), rng(seed)
            got = _draw_block(1, balances, fraction, a, 0, 10, 10, {})
            want = two_pass_draw(1, balances, fraction, b, 0, 10, 10)
            for field in ("senders", "receivers", "amounts"):
                assert np.array_equal(getattr(got, field),
                                      getattr(want, field)), (seed, field)
            assert a.integers(0, 2**62) == b.integers(0, 2**62)

    # one past the largest balance an overspending row can cover
    NEAR = INT64_MAX - OVERSPEND_MARGIN + 1

    def test_overspend_near_the_int64_limit_still_raises(self):
        near = np.full(4, self.NEAR, dtype=np.int64)
        for seed in range(20):
            with pytest.raises(LedgerOverflowError):
                _draw_block(1, near, 0.5, rng(seed), 0, 4, 10, {})

    def test_honest_block_near_the_int64_limit_is_drawn(self):
        near = np.full(4, self.NEAR, dtype=np.int64)
        for seed in range(20):
            tm = make_valid_block(1, near, rng(seed), source=0,
                                  active_rows=4, bounds={})
            assert 1 <= tm.amounts.min() and tm.amounts.max() <= 10


class TestOverspendOverflow:
    def test_overspend_past_int64_raises_a_named_error(self):
        balances = np.array([INT64_MAX - 1_000_000_000, 5], dtype=np.int64)
        # worded as the corpus's fuzz runs print it
        with pytest.raises(LedgerOverflowError, match=(
                "^overspending row of chain 0 on a balance of "
                f"{INT64_MAX - 1_000_000_000} exceeds int64$")):
            make_invalid_block(1, balances, invalid_tx_fraction=1.0,
                               rng=rng(0), source=0, active_rows=2,
                               bounds={})

    def test_overspend_that_reaches_int64_max_exactly_is_drawn(self):
        top = INT64_MAX - 1_000_000_000 - 99
        tm = make_invalid_block(1, np.array([top]), invalid_tx_fraction=1.0,
                                rng=rng(0), source=0, active_rows=1,
                                bounds={})
        assert top + 1_000_000_000 <= int(tm.amounts[0]) <= INT64_MAX


# ---------------------------------------------------------------------------
# Issuance schedule
# ---------------------------------------------------------------------------

def as_lists(slots):
    """Each chain's slot times as a list."""
    return {c: times.tolist() for c, times in slots.items()}


class TestScheduleIssuance:
    def test_total_count_rate_times_duration(self):
        slots = schedule_issuance(100.0, 0.0, [0, 1, 2], [], 5.0)
        assert sum(map(len, slots.values())) == 500

    def test_faction_split_matches_spam_fraction(self):
        slots = schedule_issuance(100.0, 0.55, [0, 1], [2, 3], 1.0)
        assert len(slots[2]) + len(slots[3]) == 55
        assert len(slots[0]) + len(slots[1]) == 45

    def test_round_robin_is_even_within_one(self):
        slots = schedule_issuance(90.0, 0.0, [0, 1, 2, 3], [], 1.0)
        counts = [len(times) for times in slots.values()]
        assert max(counts) - min(counts) <= 1

    def test_round_robin_deals_the_stream_in_turn(self):
        slots = schedule_issuance(60.0, 0.0, [0, 1, 2], [], 0.1)
        # each chain's slot times are one array of machine floats
        assert {type(t) for t in slots.values()} == {array}
        assert {t.typecode for t in slots.values()} == {"d"}
        assert as_lists(slots) == {0: [1.0, 4.0], 1: [2.0, 5.0],
                                   2: [3.0, 6.0]}

    def test_even_spacing_within_each_stream(self):
        slots = schedule_issuance(60.0, 0.5, [0], [1], 1.0)
        for times in slots.values():
            gaps = {round(b - a, 9) for a, b in zip(times, times[1:])}
            assert gaps == {2.0}

    def test_sorted_by_time(self):
        slots = schedule_issuance(77.0, 0.3, [0, 1], [2], 2.0)
        for times in slots.values():
            assert list(times) == sorted(times)

    def test_every_chain_has_an_entry_possibly_empty(self):
        slots = schedule_issuance(3.0, 0.0, [0, 1, 2, 3, 4], [5], 1.0)
        assert as_lists(slots) == {0: [20.0], 1: [40.0], 2: [60.0], 3: [],
                                   4: [], 5: []}

    def test_zero_spam_needs_no_adversarial_chains(self):
        assert schedule_issuance(10.0, 0.0, [0], [], 1.0)[0]

    def test_spam_without_adversarial_chains_rejected(self):
        with pytest.raises(RoleError):
            schedule_issuance(10.0, 0.2, [0], [], 1.0)

    def test_bad_rate_rejected(self):
        with pytest.raises(RoleError):
            schedule_issuance(0.0, 0.0, [0], [], 1.0)

    def test_slots_are_the_floats_of_slot_index_times_period(self):
        # the oracle: chain k of C takes slots k + 1, k + 1 + C, ... of its
        # faction's stream, slot i at the Python float i * (60 / rate)
        grid = np.random.default_rng(27)
        rates = (1.0, 7.0, 60.0, 60 * 0.45, 240.0, 1e3 / 7)
        for rate, spam in itertools.product(rates, (0.0, 0.55, 1.0)):
            for _ in range(12):
                minutes = float(grid.uniform(0.5, 300.0))
                honest = list(range(int(grid.integers(1, 41))))
                adversarial = list(range(len(honest), len(honest)
                                         + int(grid.integers(1, 41))))
                slots = schedule_issuance(rate, spam, honest, adversarial,
                                          minutes)
                for share, chains in ((rate * (1.0 - spam), honest),
                                      (rate * spam, adversarial)):
                    total = int(round(minutes * share)) if share else 0
                    for k, c in enumerate(chains):
                        want = [i * (60.0 / share)
                                for i in range(k + 1, total + 1, len(chains))]
                        assert slots[c].tolist() == want, \
                            (rate, spam, minutes, c)
                        assert all(type(x) is float for x in slots[c])
