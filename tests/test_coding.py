"""Coded worker-fleet layer: planning, butterfly transform, erasure decoding."""

import itertools
import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest

from chainmesh import balances as bal
from chainmesh import coding
from chainmesh.config import ScenarioConfig
from chainmesh.engine import derive_seed
from chainmesh.roles import build_fleet
from test_acceptance import dense_hadamard, rank_oracle


def make_group(size, frozen, rows, index=0, start=0):
    return coding.GroupSpec(index=index, size=size,
                            members=tuple(range(start, start + size)),
                            rows=rows, row_start=0, frozen=tuple(sorted(frozen)))


# ---------------------------------------------------------------------------
# Fleet planning
# ---------------------------------------------------------------------------

def test_binary_group_sizes():
    assert coding.binary_group_sizes(100) == (64, 32, 4)
    assert coding.binary_group_sizes(8) == (8,)
    assert coding.binary_group_sizes(6) == (4, 2)
    assert coding.binary_group_sizes(1) == (1,)
    with pytest.raises(coding.CodingError):
        coding.binary_group_sizes(0)


def test_plan_rows_proportional_to_group_size():
    profile = coding.StragglerProfile.from_probabilities([0.0] * 6, fraction=0.0)
    plan = coding.plan_groups(6, 12, profile)
    assert [g.size for g in plan.groups] == [4, 2]
    assert [g.rows for g in plan.groups] == [8, 4]
    assert [g.row_start for g in plan.groups] == [0, 8]
    assert plan.groups[0].members == (0, 1, 2, 3)
    assert plan.groups[1].members == (4, 5)


def test_plan_row_apportionment_is_exact_for_uneven_splits():
    profile = coding.StragglerProfile.from_probabilities([0.0] * 6, fraction=0.0)
    plan = coding.plan_groups(6, 10, profile)
    assert sum(g.rows for g in plan.groups) == 10
    assert [g.rows for g in plan.groups] == [7, 3]   # 40/6 -> 6.67, 20/6 -> 3.33
    # 112/21, 28/21 and 7/21 leave equal remainders: the first group wins
    profile = coding.StragglerProfile.from_probabilities([0.0] * 21, 0.0)
    assert [g.rows for g in coding.plan_groups(21, 7, profile).groups] == \
        [6, 1, 0]


def test_frozen_positions_are_highest_probability_members():
    probs = [0.1, 0.9, 0.2, 0.9, 0.05, 0.3, 0.0, 0.0]
    profile = coding.StragglerProfile.from_probabilities(probs, fraction=0.25)
    plan = coding.plan_groups(8, 16, profile)
    (g,) = plan.groups
    # two frozen slots (0.25 * 8); top probabilities at positions 1 and 3
    assert g.frozen == (1, 3)


def test_frozen_ties_break_to_lowest_index():
    probs = [0.5, 0.5, 0.5, 0.5]
    profile = coding.StragglerProfile.from_probabilities(probs, fraction=0.25)
    plan = coding.plan_groups(4, 8, profile)
    assert plan.groups[0].frozen == (0,)


def test_frozen_set_repaired_when_top_probability_set_is_unusable():
    # Positions {1, 2} of a 4-group leave a singular survivor system; the
    # planner must move to a nearby set that the code can actually absorb.
    probs = [0.0, 0.9, 0.8, 0.1]
    profile = coding.StragglerProfile.from_probabilities(probs, fraction=0.5)
    plan = coding.plan_groups(4, 8, profile)
    (g,) = plan.groups
    assert len(g.frozen) == 2
    survivors = [p for p in range(4) if p not in g.frozen]
    assert coding.decodable(survivors, g)
    assert rank_oracle(4, g.frozen, survivors)


def test_straggler_count_rounds_half_up():
    quarter = coding.written_ratio(0.25)
    assert coding.straggler_count(2, quarter) == 1     # 0.5 rounds up
    assert coding.straggler_count(4, quarter) == 1
    assert coding.straggler_count(8, quarter) == 2
    # the rate as written: 0.35 * 90 and 0.29 * 50 are exact halves that
    # binary floats put below .5
    for rate, size, count in ((0.3, 5, 2), (0.35, 90, 32), (0.29, 50, 15)):
        assert coding.straggler_count(size, coding.written_ratio(rate)) \
            == count
        profile = coding.StragglerProfile.from_probabilities([0.2] * size,
                                                             rate)
        assert len(profile.straggler_set()) == count


@pytest.mark.parametrize("probs", [[0.2, math.nan], [math.nan, -1.0],
                                   [math.nan], [0.5, 1.5], [-0.1, 0.5]])
def test_a_likelihood_outside_the_unit_interval_or_nan_is_refused(probs):
    with pytest.raises(coding.CodingError, match="lie in"):
        coding.StragglerProfile.from_probabilities(probs, 0.5)


@pytest.mark.parametrize("probs, fraction", [
    (("a",), 0.1), ((None,), 0.1), ((0.2, "0.3"), 0.1), ((0.2,), "0.1"),
    ((0.2,), None), ((0.2,), math.nan), ((0.2,), math.inf), ((0.2,), -0.1),
    ((0.2,), 1.5),
], ids=["str-likelihood", "none-likelihood", "one-str-likelihood",
        "str-fraction", "none-fraction", "nan-fraction", "inf-fraction",
        "negative-fraction", "fraction-above-one"])
def test_a_profile_of_anything_but_numbers_in_range_raises_a_coding_error(
        probs, fraction):
    # these once raised a bare TypeError from comparing a string or None
    with pytest.raises(coding.CodingError):
        coding.StragglerProfile(probs, fraction)
    if not isinstance(fraction, float):
        with pytest.raises(coding.CodingError, match="finite number"):
            coding.written_ratio(fraction)


def test_the_written_ratio_equals_the_fraction_of_the_written_float():
    rng = random.Random(20)
    floats = [rng.random() for _ in range(10_000)]
    # doubles of every exponent, from random bit patterns
    floats += [abs(struct.unpack("<d", rng.randbytes(8))[0])
               for _ in range(10_000)]
    floats += [0.35, 1e-05, 5e-324, 0.9999999999999999, 0.0, 1.0, 0.67]
    for x in floats:
        if math.isfinite(x):
            f = Fraction(str(x))
            assert coding.written_ratio(x) == (f.numerator, f.denominator)
    assert coding.written_ratio(3) == (3, 1)
    assert coding.written_ratio(Fraction(6, 4)) == (3, 2)


def test_straggler_set_takes_highest_probabilities_ties_to_lower_index():
    profile = coding.StragglerProfile.from_probabilities(
        [0.5, 0.9, 0.5, 0.5, 0.1], fraction=0.5)
    assert len(profile.straggler_set()) == 3       # 2.5 rounds up
    assert profile.straggler_set() == (0, 1, 2)


self_loss_cases = [(size, lam) for size in (2, 4, 8, 16) for lam in (0.25, 0.5)]


@pytest.mark.parametrize("size,lam", self_loss_cases)
def test_designed_loss_pattern_always_decodable(size, lam):
    rng = random.Random(size * 100 + int(lam * 100))
    for _ in range(20):
        probs = [round(rng.random(), 3) for _ in range(size)]
        profile = coding.StragglerProfile.from_probabilities(probs, fraction=lam)
        plan = coding.plan_groups(size, size * 2, profile)
        (g,) = plan.groups
        survivors = [p for p in range(size) if p not in g.frozen]
        assert coding.decodable(survivors, g)


# ---------------------------------------------------------------------------
# Expansion
# ---------------------------------------------------------------------------

def test_expand_without_frozen_is_identity_partition():
    g = make_group(4, (), rows=8)
    x = np.arange(32, dtype=np.int64).reshape(8, 4)
    blocks = coding.expand(x, g)
    assert blocks.shape == (4, 2, 4)
    for i in range(4):
        assert np.array_equal(blocks[i], x[2 * i:2 * i + 2])


def test_expand_places_zero_blocks_at_frozen_positions():
    g = make_group(2, (1,), rows=2)
    x = np.array([[1, 2], [3, 4]], dtype=np.int64)
    blocks = coding.expand(x, g)
    assert np.array_equal(blocks[0], x)
    assert not blocks[1].any()


def test_expand_round_trips_through_data_positions():
    rng = np.random.default_rng(5)
    g = make_group(4, (0, 2), rows=4)
    x = rng.integers(0, 50, size=(4, 4)).astype(np.int64)
    blocks = coding.expand(x, g)
    back = np.concatenate([blocks[p] for p in g.data_positions], axis=0)
    assert np.array_equal(back[:4], x)
    for p in g.frozen:
        assert not blocks[p].any()


def test_expand_pads_uneven_rows_with_zeros():
    g = make_group(4, (3,), rows=7)     # 3 data positions, 3 rows per block
    x = np.ones((7, 2), dtype=np.int64)
    blocks = coding.expand(x, g)
    flat = np.concatenate([blocks[p] for p in g.data_positions], axis=0)
    assert np.array_equal(flat[:7], x)
    assert not flat[7:].any()


# ---------------------------------------------------------------------------
# Butterfly transform
# ---------------------------------------------------------------------------

def test_hadamard_single_block_is_identity():
    x = np.array([[[1, 2], [3, 4]]], dtype=np.int64)
    assert np.array_equal(coding.hadamard(x), x)


def test_hadamard_two_blocks_by_hand():
    blocks = np.array([[[1, 2]], [[3, 4]]], dtype=np.int64)
    out = coding.hadamard(blocks)
    assert np.array_equal(out[0], [[4, 6]])
    assert np.array_equal(out[1], [[-2, -2]])


@pytest.mark.parametrize("n", [2, 4, 8, 16, 64])
def test_hadamard_equals_dense_matrix_product(n):
    rng = np.random.default_rng(n)
    blocks = rng.integers(-20, 20, size=(n, 3, 2)).astype(np.int64)
    got = coding.hadamard(blocks)
    h = dense_hadamard(n)
    want = np.einsum("ik,kab->iab", h, blocks)
    assert np.array_equal(got, want)


def test_hadamard_rejects_non_power_of_two():
    with pytest.raises(coding.CodingError):
        coding.hadamard(np.zeros((3, 1, 1), dtype=np.int64))


def test_butterfly_on_python_ints_is_exact_beyond_int64():
    rng = random.Random(8)
    blocks = np.array([[[rng.randint(-2 ** 70, 2 ** 70)] * 2] for _ in range(8)],
                      dtype=object)
    got = coding._butterfly(blocks)
    h = dense_hadamard(8)
    for i in range(8):
        want = sum(int(h[i, k]) * blocks[k] for k in range(8))
        assert (got[i] == want).all()


def test_hadamard_raises_instead_of_wrapping_int64():
    # int64 would wrap 2**62 + 2**62 to -2**63, and decoding the wrapped
    # blocks would return [-2**62, -2**62]: a wrong slice
    g = make_group(2, (), rows=2)
    with pytest.raises(coding.CodingError, match="overflows"):
        coding.hadamard(coding.expand(np.array([[2 ** 62], [2 ** 62]]), g))
    x = np.array([[2 ** 62 - 1], [-(2 ** 62 - 1)]], dtype=np.int64)
    blocks = coding.hadamard(coding.expand(x, g))
    assert np.array_equal(coding.decode({0: blocks[0], 1: blocks[1]}, g), x)


# ---------------------------------------------------------------------------
# decodable / decode
# ---------------------------------------------------------------------------

def test_all_positions_received_is_decodable():
    g = make_group(8, (1, 5), rows=12)
    assert coding.decodable(range(8), g)


def test_missing_exactly_frozen_set_is_decodable():
    probs = [0.1, 0.8, 0.2, 0.7]
    profile = coding.StragglerProfile.from_probabilities(probs, fraction=0.5)
    plan = coding.plan_groups(4, 8, profile)
    (g,) = plan.groups
    assert coding.decodable([p for p in range(4) if p not in g.frozen], g)


@pytest.mark.parametrize("size", [2, 4])
def test_decodable_matches_rank_oracle_exhaustively(size):
    for fmask in range(1 << size):
        frozen = [i for i in range(size) if fmask >> i & 1]
        if len(frozen) == size:
            continue
        g = make_group(size, frozen, rows=(size - len(frozen)) * 2)
        for rmask in range(1 << size):
            received = [i for i in range(size) if rmask >> i & 1]
            assert coding.decodable(received, g) == rank_oracle(size, frozen, received)


def test_decodable_matches_rank_oracle_on_random_patterns():
    rng = random.Random(88)
    for _ in range(300):
        size = rng.choice([8, 16])
        frozen = sorted(rng.sample(range(size), rng.randint(0, size // 2)))
        received = sorted(rng.sample(range(size), rng.randint(0, size)))
        g = make_group(size, frozen, rows=(size - len(frozen)) * 2)
        assert coding.decodable(received, g) == rank_oracle(size, frozen, received)


def test_decode_round_trip_no_losses():
    rng = np.random.default_rng(3)
    g = make_group(8, (2, 6), rows=12)
    x = rng.integers(0, 99, size=(12, 5)).astype(np.int64)
    blocks = coding.hadamard(coding.expand(x, g))
    out = coding.decode({p: blocks[p] for p in range(8)}, g)
    assert np.array_equal(out, x)


def test_decode_round_trip_with_designed_losses():
    rng = np.random.default_rng(4)
    g = make_group(8, (0, 4), rows=12)
    x = rng.integers(0, 99, size=(12, 5)).astype(np.int64)
    blocks = coding.hadamard(coding.expand(x, g))
    received = {p: blocks[p] for p in range(8) if p not in g.frozen}
    assert np.array_equal(coding.decode(received, g), x)


def test_decode_solves_patterns_that_stall_cell_peeling():
    # frozen {0,2} with outputs {1,2}: every butterfly cell holds only one
    # known wire, so cell-by-cell peeling stalls, yet the frozen-by-lost block
    # H[{0,2}, {0,3}] is nonsingular (det -2) and the exact solve recovers it.
    g = make_group(4, (0, 2), rows=4)
    x = np.array([[1, 7], [2, 5], [9, 0], [4, 4]], dtype=np.int64)
    blocks = coding.hadamard(coding.expand(x, g))
    received = {1: blocks[1], 2: blocks[2]}
    assert coding._bareiss(coding._frozen_by_lost((0, 2), (0, 3)), 2) == (2, -2)
    assert coding.decodable([1, 2], g)
    assert np.array_equal(coding.decode(received, g), x)


def test_decode_random_patterns_match_or_raise():
    rng = random.Random(42)
    nprng = np.random.default_rng(42)
    decodable_seen = undecodable_seen = 0
    for _ in range(100):
        size = rng.choice([2, 4, 8, 16])
        frozen = sorted(rng.sample(range(size), rng.randint(0, size - 1)))
        g = make_group(size, frozen, rows=(size - len(frozen)) * 2)
        x = nprng.integers(-30, 200, size=(g.rows, 3)).astype(np.int64)
        blocks = coding.hadamard(coding.expand(x, g))
        received_pos = sorted(rng.sample(range(size), rng.randint(0, size)))
        received = {p: blocks[p] for p in received_pos}
        if coding.decodable(received_pos, g):
            assert np.array_equal(coding.decode(received, g), x)
            decodable_seen += 1
        else:
            with pytest.raises(coding.NotDecodableError):
                coding.decode(received, g)
            undecodable_seen += 1
    assert decodable_seen and undecodable_seen


@pytest.mark.parametrize("size", [2, 4, 8, 16, 32, 64])
def test_decode_round_trip_across_group_sizes(size):
    rng = random.Random(size)
    nprng = np.random.default_rng(size)
    frozen = sorted(rng.sample(range(size), max(1, size // 4)))
    g = make_group(size, frozen, rows=(size - len(frozen)) * 2)
    x = nprng.integers(0, 1000, size=(g.rows, 4)).astype(np.int64)
    blocks = coding.hadamard(coding.expand(x, g))
    # losses beyond the frozen set, chosen so the pattern stays decodable
    candidates = [p for p in range(size)]
    rng.shuffle(candidates)
    received = set(range(size))
    for p in candidates[: size // 4]:
        trial = received - {p}
        if coding.decodable(trial, g):
            received = trial
    out = coding.decode({p: blocks[p] for p in received}, g)
    assert np.array_equal(out, x)


def test_corrupted_shard_detected_not_returned():
    rng = np.random.default_rng(9)
    g = make_group(8, (3,), rows=14)
    x = rng.integers(0, 99, size=(14, 4)).astype(np.int64)
    blocks = coding.hadamard(coding.expand(x, g))
    received = {p: blocks[p].copy() for p in range(8)}
    received[5][0, 0] += 1
    with pytest.raises(coding.ShardCorruptionError):
        coding.decode(received, g)


def test_corruption_detected_through_exact_solve_path():
    g = make_group(4, (0, 2), rows=4)
    x = np.arange(8, dtype=np.int64).reshape(4, 2)
    blocks = coding.hadamard(coding.expand(x, g))
    received = {1: blocks[1].copy(), 2: blocks[2].copy(), 3: blocks[3].copy()}
    received[3][0, 0] += 2
    with pytest.raises(coding.ShardCorruptionError):
        coding.decode(received, g)


def test_corrupted_shard_on_undecodable_positions_is_not_decodable():
    # the verdict depends on the positions only and comes first: a corrupted
    # shard on a position set `decodable` rejects raises NotDecodableError,
    # although here cell peeling could already see an odd butterfly sum
    g = make_group(8, (0, 4), rows=12)
    x = np.arange(36, dtype=np.int64).reshape(12, 3)
    blocks = coding.hadamard(coding.expand(x, g))
    received = {p: blocks[p].copy() for p in range(6)}
    received[0][0, 0] += 1
    assert not coding.decodable(received, g)
    with pytest.raises(coding.NotDecodableError):
        coding.decode(received, g)


def test_decode_rejects_misshapen_blocks():
    g = make_group(4, (1,), rows=6)
    blocks = coding.hadamard(coding.expand(np.ones((6, 2), dtype=np.int64), g))
    received = {p: blocks[p] for p in (0, 2, 3)}
    received[2] = blocks[2][:, :1]
    with pytest.raises(coding.CodingError, match="shape"):
        coding.decode(received, g)


def test_decode_insufficient_blocks_raises():
    g = make_group(4, (), rows=8)
    x = np.ones((8, 2), dtype=np.int64)
    blocks = coding.hadamard(coding.expand(x, g))
    with pytest.raises(coding.NotDecodableError):
        coding.decode({0: blocks[0], 1: blocks[1]}, g)
    with pytest.raises(coding.NotDecodableError):
        coding.decode({}, g)


# ---------------------------------------------------------------------------
# The frozen-by-lost system: "rank_full" below is its verdict, H[F, L] having
# full column rank
# ---------------------------------------------------------------------------

#: frozen positions per group (64, 32, 4) that `plan_groups` picks for the
#: engine's seed-0 fleets at paper scale (100 workers, 1000 accounts, coded)
PAPER_FROZEN = {
    0: ((22, 33, 39, 49, 54, 60), (11, 19, 28), ()),
    1: ((6, 8, 18, 46, 53, 60), (8, 25, 28), ()),
}

#: the same for seed 6, chains 7 and 8: the fleets where the top-probability
#: 64-group set and every single swap are singular, so the planner reaches
#: its pair swaps
PAPER_FROZEN_SEED6 = {
    7: ((0, 2, 27, 28, 37, 50), (1, 2, 28), ()),
    8: ((1, 4, 15, 42, 51, 63), (6, 21, 29), ()),
}

#: (size, frozen, received) where cell peeling stalls yet the system is
#: solvable; the last one has more received rows than data positions
STALLED_SOLVABLE = [
    (4, (0, 2), (1, 2)),
    (8, (2, 4, 6), (0, 2, 3, 4, 5, 7)),
    (16, (4, 6, 10, 13), (0, 1, 2, 3, 5, 6, 7, 8, 9, 12, 13, 14, 15)),
]


PAPER_CFG = ScenarioConfig(fleet_size=100, accounts=1000, coding=True)


def paper_profile(chain, seed=0):
    rng = np.random.default_rng(derive_seed(seed, "fleet", chain))
    return build_fleet(PAPER_CFG.fleet_size, PAPER_CFG.straggler_fraction,
                       rng)


def paper_plan(chain, seed=0):
    return coding.plan_groups(PAPER_CFG.fleet_size, PAPER_CFG.accounts,
                              paper_profile(chain, seed))


def lost_of(size, received):
    rec = set(received)
    return [p for p in range(size) if p not in rec]


@pytest.mark.parametrize("chain", sorted(PAPER_FROZEN))
def test_paper_scale_frozen_sets_are_pinned(chain):
    plan = paper_plan(chain)
    assert [g.size for g in plan.groups] == [64, 32, 4]
    assert tuple(g.frozen for g in plan.groups) == PAPER_FROZEN[chain]


@pytest.mark.parametrize("chain", sorted(PAPER_FROZEN_SEED6))
def test_paper_scale_seed6_frozen_sets_are_pinned(chain):
    plan = paper_plan(chain, seed=6)
    assert [g.size for g in plan.groups] == [64, 32, 4]
    assert tuple(g.frozen for g in plan.groups) == PAPER_FROZEN_SEED6[chain]
    top = coding._group_frozen_positions(
        paper_profile(chain, seed=6).probabilities[:64], 6)
    swaps = [sorted(set(top) - {i} | {o})
             for i in top for o in range(64) if o not in top]
    assert not any(coding._pins_lost(f, f) for f in [top] + swaps)


@pytest.mark.parametrize("size,trials", [(8, 60), (16, 40), (32, 8)])
def test_rank_full_matches_oracle_on_rectangular_received_sets(size, trials):
    rng = random.Random(size)
    verdicts = set()
    for _ in range(trials):
        frozen = rng.sample(range(size), rng.randint(1, size // 2))
        received = rng.sample(range(size), rng.randint(size - len(frozen) + 1, size))
        verdict = coding._pins_lost(frozen, lost_of(size, received))
        assert verdict == rank_oracle(size, frozen, received)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_rank_full_matches_oracle_where_peeling_stalls():
    for size, frozen, received in STALLED_SOLVABLE:
        assert coding._pins_lost(frozen, lost_of(size, received))
        assert rank_oracle(size, frozen, received)


@pytest.mark.parametrize("frozen", [PAPER_FROZEN[0][0], PAPER_FROZEN[1][0], (1, 2),
                                    PAPER_FROZEN_SEED6[7][0]])
def test_rank_full_matches_oracle_on_64_groups(frozen):
    # (1, 2) is never planned: H[{1,2},{1,2}] is singular, so by Jacobi's
    # complementary-minor identity so is the survivors' submatrix
    survivors = [p for p in range(64) if p not in frozen]
    verdict = coding._pins_lost(frozen, frozen)
    assert verdict == rank_oracle(64, frozen, survivors)
    assert verdict == coding.decodable(survivors, make_group(64, frozen, rows=64))
    assert verdict == (frozen != (1, 2))


def test_rank_full_matches_oracle_on_random_64_groups():
    rng = random.Random(64)
    verdicts = []
    for _ in range(8):
        frozen = sorted(rng.sample(range(64), 6))
        lost = sorted(rng.sample(range(64), rng.randint(5, 6)))
        verdict = coding._pins_lost(frozen, lost)
        assert verdict == rank_oracle(64, frozen, lost_of(64, lost))
        verdicts.append(verdict)
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("solvable", [True, False])
def test_rank_full_matches_oracle_on_128_groups(solvable):
    if solvable:
        rng = random.Random(128)
        profile = coding.StragglerProfile.from_probabilities(
            [rng.random() for _ in range(128)], 0.1)
        (g,) = coding.plan_groups(128, 256, profile).groups
        frozen = g.frozen
    else:
        frozen = (1, 2)
    survivors = [p for p in range(128) if p not in frozen]
    assert coding._pins_lost(frozen, frozen) == solvable
    assert rank_oracle(128, frozen, survivors) == solvable


def test_eliminations_build_no_fractions(monkeypatch):
    def no_fraction(*args):
        raise AssertionError("elimination built a Fraction")

    probs = paper_profile(7, seed=6).probabilities[:64]
    monkeypatch.setattr(Fraction, "__new__", no_fraction)
    frozen = PAPER_FROZEN[0][0]
    assert coding._pins_lost(frozen, frozen)
    assert not coding._pins_lost((1, 2), (1, 2))
    # the planner's repair reaches the pair swaps
    candidate = coding._group_frozen_positions(probs, 6)
    assert coding._repair_frozen(64, probs, candidate) == PAPER_FROZEN_SEED6[7][0]
    nprng = np.random.default_rng(11)
    for size, frozen, received in STALLED_SOLVABLE:
        g = make_group(size, frozen, rows=(size - len(frozen)) * 3)
        x = nprng.integers(-500, 500, size=(g.rows, 4)).astype(np.int64)
        blocks = coding.hadamard(coding.expand(x, g))
        shards = {p: blocks[p] for p in received}
        assert np.array_equal(coding.decode(shards, g), x)
        one_short = received[:size - len(frozen) - 1]
        with pytest.raises(coding.NotDecodableError):
            coding.decode({p: blocks[p] for p in one_short}, g)
    # det = -2 for the 4-group pattern: an odd shard error leaves no integer solution
    g = make_group(4, (0, 2), rows=4)
    x = np.arange(8, dtype=np.int64).reshape(4, 2)
    blocks = coding.hadamard(coding.expand(x, g))
    shards = {1: blocks[1], 2: blocks[2] + 1}
    with pytest.raises(coding.ShardCorruptionError, match="non-integer"):
        coding.decode(shards, g)


# ---------------------------------------------------------------------------
# The planner's rank bound
# ---------------------------------------------------------------------------

def unpruned_repair(size, probs, candidate):
    """The frozen-set repair walking every tier in full: the original set,
    every single swap by decreasing total probability, every pair swap in
    `combinations` order, then the leading positions. Returns the set and
    the number of sets tested."""
    cand = tuple(sorted(candidate))
    inside = set(cand)
    outside = [p for p in range(size) if p not in inside]
    singles = sorted(((probs[o] - probs[i], i, o)
                      for i in cand for o in outside),
                     key=lambda t: (-t[0], t[1], t[2]))
    trials = itertools.chain(
        [inside], (inside - {i} | {o} for _, i, o in singles),
        (inside - set(pi) | set(po)
         for pi in itertools.combinations(cand, 2)
         for po in itertools.combinations(outside, 2)))
    for tested, trial in enumerate(trials, 1):
        trial = tuple(sorted(trial))
        if not cand or coding._pins_lost(trial, trial):
            return trial, tested
    return tuple(range(len(cand))), tested + 1


def repair_cases():
    """(size, probs, top set) of seeded random groups of 4 to 128 at rates
    0.1 and 0.3, then of the 64-groups of the pinned seed-6 chains."""
    for size in (4, 8, 16, 32, 64, 128):
        for rate in (0.1, 0.3):
            for seed in range(40):
                rng = random.Random(seed)
                probs = [rng.random() for _ in range(size)]
                yield size, probs, coding._group_frozen_positions(
                    probs, coding.straggler_count(size,
                                                  coding.written_ratio(rate)))
    for chain in sorted(PAPER_FROZEN_SEED6):
        probs = paper_profile(chain, seed=6).probabilities[:64]
        yield 64, probs, coding._group_frozen_positions(probs, 6)


def test_the_rank_bound_picks_the_frozen_sets_of_the_unpruned_walk():
    past_singles = 0
    for size, probs, top in repair_cases():
        want, tested = unpruned_repair(size, probs, top)
        assert coding._repair_frozen(size, probs, top) == want, (size, top)
        past_singles += tested > 1 + len(top) * (size - len(top))
    # the pair tier, which the bound reaches without the singles, is walked
    assert past_singles >= 3


@pytest.mark.parametrize("size,s", [(16, 8), (32, 8), (32, 12)])
def test_no_single_swap_decodes_a_set_two_ranks_short(size, s):
    # random sets, not top-probability ones: ranks 3 and 4 short are common
    # enough to draw, and the repair must still match the unpruned walk
    rng = random.Random(size * 100 + s)
    h = dense_hadamard(size)
    short = 0
    while short < 4:
        frozen = sorted(rng.sample(range(size), s))
        rank, _ = coding._bareiss(coding._frozen_by_lost(frozen, frozen), s)
        assert rank == np.linalg.matrix_rank(h[np.ix_(frozen, frozen)])
        if rank + 2 >= s:
            continue
        short += 1
        outside = [p for p in range(size) if p not in frozen]
        for i in frozen:
            for o in outside:
                trial = sorted(set(frozen) - {i} | {o})
                assert not coding._pins_lost(trial, trial)
        probs = [rng.random() for _ in range(size)]
        assert coding._repair_frozen(size, probs, frozen) == \
            unpruned_repair(size, probs, frozen)[0]


def test_planning_a_rank_deficient_fleet_takes_few_eliminations(monkeypatch):
    # fleet 200, seed 0, chain 1: the 128-group's top set is three ranks
    # short, so no single swap can decode it; walking them all took 1502
    eliminations = 0
    bareiss = coding._bareiss

    def counted(*args):
        nonlocal eliminations
        eliminations += 1
        return bareiss(*args)

    profile = build_fleet(200, PAPER_CFG.straggler_fraction,
                          np.random.default_rng(derive_seed(0, "fleet", 1)))
    monkeypatch.setattr(coding, "_bareiss", counted)
    plan = coding.plan_groups(200, 1000, profile)
    assert [g.size for g in plan.groups] == [128, 64, 8]
    assert eliminations <= 20


def test_a_self_orthogonal_set_falls_back_to_the_leading_positions(
        monkeypatch):
    # every two of these positions AND to an even popcount, so H[F, F] is
    # all ones, of rank 1: both swap tiers are out of reach of rank 8
    frozen = (0, 3, 12, 15, 48, 51, 60, 63)
    assert coding._bareiss(coding._frozen_by_lost(frozen, frozen), 8)[0] == 1
    eliminations = 0
    bareiss = coding._bareiss

    def counted(*args):
        nonlocal eliminations
        eliminations += 1
        return bareiss(*args)

    monkeypatch.setattr(coding, "_bareiss", counted)
    assert coding._repair_frozen(64, [0.5] * 64, frozen) == tuple(range(8))
    # the original set's rank only: no swap is tried, and the fallback,
    # absorbable by the leading minors below, is not checked again
    assert eliminations == 1


def test_the_leading_minors_follow_the_schur_recurrence():
    # det L_{m+t} = det H_m * (-2)^t * det L_t for 0 < t <= m, exactly.
    # Forward Bareiss takes pivot k, det L_k, from row k unless a zero
    # pivot made it swap rows, which would show as an entry above the
    # diagonal of the eliminated identity block
    n = 128
    rows = coding._frozen_by_lost(range(n), range(n), augment=True)
    rank, last = coding._bareiss(rows, n)
    assert rank == n
    assert not any(rows[k][n + j] for k in range(n) for j in range(k + 1, n))
    det = {k: rows[k - 1][k - 1] for k in range(1, n + 1)}
    assert det[n] == last and all(det.values())
    for m in (1, 2, 4, 8, 16, 32, 64):
        for t in range(1, m + 1):
            assert det[m + t] == det[m] * (-2) ** t * det[t], (m, t)


def test_every_leading_minor_up_to_512_is_nonzero_mod_a_prime():
    # elimination without pivoting: pivot k is det L_k / det L_{k-1} mod p,
    # so no zero pivot certifies every leading minor nonzero over Q
    p = 2 ** 31 - 1                     # a prime: products fit int64
    n = 512
    idx = np.arange(n)
    popcount = np.zeros((n, n), dtype=np.int64)
    both = idx[:, None] & idx[None, :]
    while both.any():
        popcount += both & 1
        both >>= 1
    a = np.where(popcount & 1, p - 1, 1).astype(np.int64)
    for k in range(n):
        pivot = int(a[k, k])
        assert pivot, k + 1
        factors = a[k + 1:, k] * pow(pivot, -1, p) % p
        a[k + 1:, k:] = (a[k + 1:, k:]
                         - factors[:, None] * a[k, k:][None, :] % p) % p


# ---------------------------------------------------------------------------
# Coded worker stores, linearity
# ---------------------------------------------------------------------------

def small_plan(n=6, rows=12, lam=0.0, probs=None):
    if probs is None:
        probs = [0.0] * n
    profile = coding.StragglerProfile.from_probabilities(probs, fraction=lam)
    return coding.plan_groups(n, rows, profile)


def coded_stores(plan, mat):
    """Per-group stores holding coded `mat`; frozen positions store nothing."""
    stores = []
    for g in plan.groups:
        y = coding.hadamard(coding.expand(mat[g.row_start:g.row_start + g.rows], g))
        y[list(g.frozen)] = 0
        stores.append(y)
    return stores


def test_encode_epoch_zero_inputs_give_zero_shards():
    plan = small_plan()
    z = np.zeros((12, 12), dtype=np.int64)
    image = coding.CodedLedgerImage(plan, cols=12)
    image.apply_epoch(z, z, z)
    assert len(image.w_in) == len(image.w_out) == len(plan.groups)
    for w_in, w_out in zip(image.w_in, image.w_out):
        assert w_in.size and not w_in.any() and not w_out.any()


def test_encode_epoch_without_frozen_concatenates_plain_partitions():
    plan = small_plan(n=4, rows=8, lam=0.0)
    (g,) = plan.groups
    assert g.data_positions == (0, 1, 2, 3)
    rng = np.random.default_rng(11)
    a = rng.integers(0, 50, size=(8, 8)).astype(np.int64)
    z = np.zeros_like(a)
    image = coding.CodedLedgerImage(plan, cols=8)
    image.apply_epoch(a, z, z)
    # lam=0: the butterfly still mixes blocks, but decoding from everyone
    # must reproduce the plain row partition exactly
    assert np.array_equal(image.w_in[0], coding.hadamard(coding.expand(a, g)))
    assert np.array_equal(image.decode_totals()[0], a)


def test_two_group_fleet_round_trips_the_full_matrix():
    plan = small_plan(n=6, rows=12, lam=0.25,
                      probs=[0.9, 0.1, 0.1, 0.2, 0.8, 0.0])
    assert any(g.frozen for g in plan.groups)
    rng = np.random.default_rng(21)
    a, b, dc = (rng.integers(0, 30, size=(12, 12)).astype(np.int64)
                for _ in range(3))
    z = np.zeros_like(a)
    for mat in (a, b, dc):
        image = coding.CodedLedgerImage(plan, cols=12)
        image.apply_epoch(mat, z, z)
        assert np.array_equal(image.decode_totals()[0], mat)
    image = coding.CodedLedgerImage(plan, cols=12)
    image.apply_epoch(a, b, dc)
    dec_in, dec_out = image.decode_totals()
    assert np.array_equal(dec_in, a)
    assert np.array_equal(dec_out, b + dc)


def test_encode_is_linear():
    plan = small_plan(n=4, rows=8, lam=0.25, probs=[0.5, 0.1, 0.2, 0.3])
    rng = np.random.default_rng(31)
    x = rng.integers(0, 40, size=(8, 8)).astype(np.int64)
    y = rng.integers(0, 40, size=(8, 8)).astype(np.int64)
    for sx, sy, sxy in zip(coded_stores(plan, x), coded_stores(plan, y),
                           coded_stores(plan, x + y)):
        assert np.array_equal(sxy, sx + sy)


def test_worker_update_zero_incoming_is_identity():
    plan = small_plan(n=4, rows=8, lam=0.25, probs=[0.5, 0.1, 0.2, 0.3])
    rng = np.random.default_rng(41)
    a, b, c = (rng.integers(0, 40, size=(8, 8)).astype(np.int64)
               for _ in range(3))
    image = coding.CodedLedgerImage(plan, cols=8)
    image.apply_epoch(a, b, c)
    before = [w.copy() for w in image.w_in + image.w_out]
    z = np.zeros_like(a)
    image.apply_epoch(z, z, z)
    assert all(np.array_equal(w, v)
               for w, v in zip(image.w_in + image.w_out, before))


def test_apply_epoch_rejects_mismatched_shapes():
    plan = small_plan(n=4, rows=8)
    image = coding.CodedLedgerImage(plan, cols=8)
    z = np.zeros((8, 8), dtype=np.int64)
    with pytest.raises(coding.CodingError, match="one shape"):
        image.apply_epoch(z, z, np.zeros((8, 1), dtype=np.int64))
    with pytest.raises(coding.CodingError, match="image holds"):
        image.apply_epoch(*(np.zeros((6, 8), dtype=np.int64),) * 3)
    # a narrower matrix would broadcast into every store column
    with pytest.raises(coding.CodingError, match="image holds"):
        image.apply_epoch(*(np.zeros((8, 1), dtype=np.int64),) * 3)
    assert not any(w.any() for w in image.w_in + image.w_out)


def test_apply_epoch_error_leaves_the_stores_unchanged():
    plan = small_plan(n=6, rows=12)
    assert len(plan.groups) == 2
    image = coding.CodedLedgerImage(plan, cols=2)
    ok = np.ones((12, 2), dtype=np.int64)
    image.apply_epoch(ok, ok, ok)
    before = [w.copy() for w in image.w_in + image.w_out]
    # only the last group's slice overflows the butterfly
    big = ok.copy()
    big[-1, 0] = 2 ** 62
    with pytest.raises(coding.CodingError, match="overflows"):
        image.apply_epoch(ok, big, ok)
    assert all(np.array_equal(w, v)
               for w, v in zip(image.w_in + image.w_out, before))


def test_five_epoch_worker_trace_equals_encoding_the_aggregate():
    # Linearity means folding coded per-epoch deltas equals encoding the
    # centrally tracked running totals.
    plan = small_plan(n=6, rows=10, lam=0.25,
                      probs=[0.7, 0.0, 0.1, 0.4, 0.6, 0.2])
    rng = np.random.default_rng(77)
    m = 10
    image = coding.CodedLedgerImage(plan, cols=m)
    w_in_total = np.zeros((m, m), dtype=np.int64)
    w_out_total = np.zeros((m, m), dtype=np.int64)
    last_prop = np.zeros((m, m), dtype=np.int64)
    for _ in range(5):
        a = rng.integers(0, 9, size=(m, m)).astype(np.int64)
        b = rng.integers(0, 9, size=(m, m)).astype(np.int64)
        c = rng.integers(0, 9, size=(m, m)).astype(np.int64)
        dc = c - last_prop
        image.apply_epoch(a, b, dc)
        w_in_total += a
        w_out_total += b + dc
        last_prop = c
        for got, want in ((image.w_in, coded_stores(plan, w_in_total)),
                          (image.w_out, coded_stores(plan, w_out_total))):
            assert all(np.array_equal(x, y) for x, y in zip(got, want))
        dec_in, dec_out = image.decode_totals()
        assert np.array_equal(dec_in, w_in_total)
        assert np.array_equal(dec_out, w_out_total)


def test_coded_image_matches_central_ledger_over_trace():
    rng = random.Random(500)
    m = 8
    plan = small_plan(n=4, rows=m, lam=0.25, probs=[0.8, 0.1, 0.0, 0.3])
    state = bal.new_state(0, [20] * m)
    image = coding.CodedLedgerImage(plan, cols=m)
    for epoch in range(1, 8):
        def rnd():
            return np.array([[rng.randint(0, 4) for _ in range(m)]
                             for _ in range(m)], dtype=np.int64)
        a, b, c = rnd(), rnd(), rnd()
        dc = c - state.last_proposed
        image.apply_epoch(a, b, dc)
        state = bal.update_cumulative(state, bal.FlowAggregates(
            chain=0, epoch=epoch, inflow=a, outflow_confirmed=b,
            outflow_proposed=c))
        dec_in, dec_out = image.decode_totals()
        assert np.array_equal(dec_in, state.w_in)
        assert np.array_equal(dec_out, state.w_out)


def test_coded_image_tracks_the_engine_state_at_cols_1():
    # the engine's summed resolution: w_in is 1xM, w_out and proposals Mx1
    cfg = ScenarioConfig()
    rng = np.random.default_rng(derive_seed(cfg.seed, "fleet", 0))
    profile = build_fleet(cfg.fleet_size, cfg.straggler_fraction, rng)
    plan = coding.plan_groups(cfg.fleet_size, cfg.accounts, profile)
    assert any(g.frozen for g in plan.groups)
    m = cfg.accounts
    spent = np.zeros((m, 1), dtype=np.int64)
    state = bal.CumulativeState(
        chain=0, epoch=0, genesis=np.full(m, cfg.genesis_balance, dtype=np.int64),
        w_in=spent.T, w_out=spent, last_proposed=spent)
    image = coding.CodedLedgerImage(plan, cols=1)
    flows = np.random.default_rng(13)
    shrunk = 0
    for epoch in range(1, 21):
        inflow = flows.integers(0, 6, size=(1, m))
        confirmed = flows.integers(0, 6, size=(m, 1))
        proposed = flows.integers(0, 6, size=(m, 1))
        delta = proposed - state.last_proposed
        shrunk += int((delta < 0).any())
        image.apply_epoch(inflow.T, confirmed, delta)
        state = bal.update_cumulative(state, bal.FlowAggregates(
            chain=0, epoch=epoch, inflow=inflow, outflow_confirmed=confirmed,
            outflow_proposed=proposed))
        dec_in, dec_out = image.decode_totals()
        assert np.array_equal(dec_in, state.w_in.T)
        assert np.array_equal(dec_out, state.w_out)
        for g, w_in, w_out in zip(plan.groups, image.w_in, image.w_out):
            assert not w_in[list(g.frozen)].any()
            assert not w_out[list(g.frozen)].any()
    assert shrunk
