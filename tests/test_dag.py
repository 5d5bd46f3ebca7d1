"""Block ledger: attachment, stake-weighted confirmation, parent selection."""

import math
import random
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from chainmesh import dag
from test_acceptance import brute_force_weight


def equal_ledger(n, eta=Fraction(67, 100)):
    return dag.DagLedger(dag.ChainWeights.equal(n), eta)


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

def test_weights_validate():
    with pytest.raises(dag.DagError):
        dag.ChainWeights((Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(dag.DagError):
        dag.ChainWeights((Fraction(3, 2), Fraction(-1, 2)))
    w = dag.ChainWeights.from_values([2, 1, 1])
    assert w[0] == Fraction(1, 2)
    assert sum(w.weights) == 1


def test_equal_weights_of_no_chain_are_refused_by_name():
    # it once raised a bare ZeroDivisionError
    with pytest.raises(dag.DagError, match="at least one chain weight"):
        dag.ChainWeights.equal(0)
    assert dag.ChainWeights.equal(3).weights == (Fraction(1, 3),) * 3


def test_weights_a_hair_over_one_are_refused():
    with pytest.raises(dag.DagError, match="sum to exactly 1"):
        dag.ChainWeights((Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10**30)))


@pytest.mark.parametrize("weights", [(0.5, 0.5), (Fraction(1, 2), 0.5),
                                     (Decimal("0.5"), Decimal("0.5"))])
def test_weights_that_are_not_exact_are_refused_by_name(weights):
    # floats once raised a bare AttributeError on `.denominator`
    with pytest.raises(dag.DagError, match="from_values"):
        dag.ChainWeights(weights)
    assert dag.ChainWeights.from_values(weights).weights == \
        (Fraction(1, 2), Fraction(1, 2))


@pytest.mark.parametrize("value", [
    "0.5", None, math.nan, math.inf, -math.inf, Decimal("NaN"),
    Decimal("Infinity"), [0.5],
], ids=["str", "none", "nan", "inf", "-inf", "decimal-nan", "decimal-inf",
        "list"])
def test_a_threshold_or_weight_that_is_not_a_finite_number_raises_a_dag_error(
        value):
    # these once raised a bare AttributeError, ValueError or OverflowError
    with pytest.raises(dag.DagError, match="finite number"):
        dag.DagLedger(dag.ChainWeights.equal(2), eta=value)
    with pytest.raises(dag.DagError, match="finite number"):
        dag.ChainWeights.from_values([value, 1])


def test_stakes_are_the_weights_over_the_common_denominator():
    w = dag.ChainWeights.from_values((1, 2, 3.5))
    assert w.weights == (Fraction(2, 13), Fraction(4, 13), Fraction(7, 13))
    ledger = dag.DagLedger(w, eta=0.67)
    assert ledger._stakes == [int(x * ledger._denom) for x in w.weights]
    assert ledger._threshold == int(Fraction(67, 100) * ledger._denom)


# ---------------------------------------------------------------------------
# Attachment and status
# ---------------------------------------------------------------------------

def test_attach_to_genesis_makes_sole_tip():
    led = equal_ledger(3)
    led.attach("a", proposer=0, epoch=1, parents=[dag.GENESIS_ID], time=1.0)
    assert led.tips == {"a"}
    assert led.blocks[dag.GENESIS_ID].status == dag.CONFIRMED
    assert led.blocks["a"].status == dag.TIP


def test_attach_unknown_parent_leaves_ledger_unchanged():
    led = equal_ledger(3)
    with pytest.raises(dag.DagError):
        led.attach("a", proposer=0, epoch=1, parents=["nope"], time=1.0)
    assert "a" not in led.blocks
    assert led.tips == set()


@pytest.mark.parametrize("proposer", [np.int64(65), 1.0, True, 70, -1],
                         ids=["np.int64", "float", "bool", "past-last",
                              "negative"])
def test_a_refused_proposer_leaves_the_ledger_unchanged(proposer):
    # np.int64(65) once raised a bare OverflowError and 1.0 a bare
    # TypeError, with the block already attached and its parent approved
    led = equal_ledger(70, Fraction(1, 2))
    led.attach("a", 0, 1, [dag.GENESIS_ID])
    before = list(led.snapshot_lines())
    with pytest.raises(dag.DagError, match="no chain index"):
        led.attach("b", proposer, 1, ["a"])
    assert list(led.snapshot_lines()) == before
    assert led.tips == {"a"}
    assert led.select_tips(2, random.Random(0)) == ["a"]
    assert led.update_confirmations() == set()


def test_attach_duplicate_id_rejected():
    led = equal_ledger(3)
    led.attach("a", 0, 1, [dag.GENESIS_ID], time=1.0)
    with pytest.raises(dag.DagError):
        led.attach("a", 1, 1, [dag.GENESIS_ID], time=2.0)


def test_parent_loses_tip_status_when_approved():
    led = equal_ledger(3)
    led.attach("a", 0, 1, [dag.GENESIS_ID], time=1.0)
    led.attach("b", 1, 2, ["a"], time=2.0)
    assert led.blocks["a"].status == dag.UNCONFIRMED
    assert led.tips == {"b"}


# ---------------------------------------------------------------------------
# Aggregated weight
# ---------------------------------------------------------------------------

def test_fresh_tip_carries_own_chain_weight():
    led = equal_ledger(5)
    led.attach("a", 2, 1, [dag.GENESIS_ID], time=1.0)
    assert led.aggregated_weight("a") == Fraction(1, 5)


def test_three_block_chain_from_three_chains_of_four():
    led = equal_ledger(4)
    led.attach("a", 0, 1, [dag.GENESIS_ID], time=1.0)
    led.attach("b", 1, 2, ["a"], time=2.0)
    led.attach("c", 2, 3, ["b"], time=3.0)
    assert led.aggregated_weight("a") == Fraction(3, 4)
    assert led.aggregated_weight("a") == brute_force_weight(led, "a")


def test_same_chain_approvals_count_once():
    led = equal_ledger(4)
    led.attach("a", 0, 1, [dag.GENESIS_ID], time=1.0)
    led.attach("b", 1, 2, ["a"], time=2.0)
    led.attach("c", 1, 3, ["a"], time=2.0)
    assert led.aggregated_weight("a") == Fraction(1, 2)


def test_weight_matches_brute_force_on_random_dags():
    rng = random.Random(321)
    for trial in range(30):
        n = rng.randint(2, 8)
        led = equal_ledger(n)
        ids = [dag.GENESIS_ID]
        for i in range(rng.randint(5, 60)):
            parents = rng.sample(ids, min(len(ids), rng.randint(1, 3)))
            bid = f"b{i}"
            led.attach(bid, rng.randrange(n), i, parents, time=float(i))
            ids.append(bid)
        for bid in ids:
            assert led.aggregated_weight(bid) == brute_force_weight(led, bid)


def test_weight_never_decreases_as_blocks_attach():
    rng = random.Random(11)
    led = equal_ledger(6)
    ids = [dag.GENESIS_ID]
    watched: dict[str, Fraction] = {}
    for i in range(80):
        parents = rng.sample(ids, min(len(ids), rng.randint(1, 2)))
        bid = f"b{i}"
        led.attach(bid, rng.randrange(6), i, parents, time=float(i))
        ids.append(bid)
        for w_id, prev in watched.items():
            cur = led.aggregated_weight(w_id)
            assert cur >= prev
            watched[w_id] = cur
        watched[bid] = led.aggregated_weight(bid)
        assert all(Fraction(0) < w <= 1 for w in watched.values())


# ---------------------------------------------------------------------------
# Confirmation
# ---------------------------------------------------------------------------

def test_block_approved_by_both_other_chains_confirms():
    led = equal_ledger(3)
    led.attach("a", 0, 1, [dag.GENESIS_ID], time=1.0)
    led.attach("b", 1, 2, ["a"], time=2.0)
    led.attach("c", 2, 2, ["a"], time=2.0)
    newly = led.update_confirmations(now=3.0)
    assert newly == {"a"}
    assert led.blocks["a"].status == dag.CONFIRMED
    assert led.update_confirmations(now=4.0) == set()


def test_confirmed_is_absorbing():
    led = equal_ledger(3)
    led.attach("a", 0, 1, [dag.GENESIS_ID], time=1.0)
    led.attach("b", 1, 2, ["a"], time=2.0)
    led.attach("c", 2, 2, ["a"], time=2.0)
    led.update_confirmations(now=3.0)
    led.attach("d", 0, 3, ["b"], time=4.0)
    assert "a" not in led.update_confirmations(now=5.0)
    assert led.blocks["a"].status == dag.CONFIRMED


def test_six_chain_two_stage_confirmation_fixture():
    # Six equal chains. First wave: chains 2-4 approve chain 1's block, which
    # reaches 4/6 < 0.67 and stays unconfirmed. Second wave: chains 5 and 6
    # cover the remaining stake and it confirms; the wave itself stays at
    # two-chain weight.
    led = equal_ledger(6)
    led.attach("z1", 0, 1, [dag.GENESIS_ID], time=1.0)
    led.attach("z2", 1, 2, ["z1"], time=2.0)
    led.attach("z3", 2, 2, ["z1"], time=2.0)
    led.attach("z4", 3, 2, ["z1"], time=2.0)
    assert led.update_confirmations(now=2.5) == set()
    assert led.aggregated_weight("z1") == Fraction(4, 6)
    assert led.blocks["z1"].status == dag.UNCONFIRMED
    assert led.tips == {"z2", "z3", "z4"}

    led.attach("z5", 4, 3, ["z2", "z3"], time=3.0)
    led.attach("z6", 5, 3, ["z4"], time=3.0)
    newly = led.update_confirmations(now=3.5)
    assert newly == {"z1"}
    assert led.aggregated_weight("z1") == Fraction(1)
    assert led.aggregated_weight("z2") == Fraction(2, 6)
    assert led.aggregated_weight("z4") == Fraction(2, 6)
    assert led.tips == {"z5", "z6"}
    assert led.blocks["z3"].status == dag.UNCONFIRMED
    for bid in ("z2", "z3", "z4", "z5", "z6"):
        assert led.aggregated_weight(bid) == brute_force_weight(led, bid)


def check_against_rescan(rng, stakes, blocks, cadence):
    """Attach `blocks` random blocks, confirming with probability `cadence`
    after each; compare every pass with a full brute-force rescan."""
    eta = Fraction(67, 100)
    led = dag.DagLedger(dag.ChainWeights.from_values(stakes), eta)
    ids = [dag.GENESIS_ID]
    confirmed = {dag.GENESIS_ID}
    for i in range(blocks):
        parents = rng.sample(ids, min(len(ids), rng.randint(1, 3)))
        bid = f"b{i}"
        led.attach(bid, rng.randrange(len(stakes)), i, parents, time=float(i))
        ids.append(bid)
        if rng.random() >= cadence and i < blocks - 1:
            continue
        now = i + 0.5
        weights = {b: brute_force_weight(led, b) for b in ids}
        want = {b for b in ids if b not in confirmed and weights[b] >= eta}
        assert led.update_confirmations(now=now) == want
        confirmed.update(want)
        for b in ids:
            assert led.aggregated_weight(b) == weights[b], b
        assert led.deepest_confirmed() == min(
            confirmed, key=lambda b: (-led.blocks[b].depth, b))
        approved = {p for b in ids for p in led.blocks[b].parents}
        for b in ids:
            if b in confirmed:
                status = dag.CONFIRMED
            else:
                status = dag.UNCONFIRMED if b in approved else dag.TIP
            assert led.blocks[b].status == status


def test_incremental_confirmation_matches_full_rescan():
    rng = random.Random(2024)
    for trial in range(40):
        n = rng.randint(2, 8)
        stakes = rng.sample(range(1, 100), n)
        check_against_rescan(rng, stakes, rng.randint(5, 60),
                             cadence=rng.choice((0.1, 0.3, 1.0)))
    # 64 chains of unequal stake: each block sums the stakes of many
    # distinct chain masks as its approvers arrive
    for trial in range(4):
        stakes = [rng.randint(1, 1000) for _ in range(64)]
        check_against_rescan(rng, stakes, rng.randint(60, 120),
                             cadence=rng.choice((0.1, 0.3)))


def test_whale_chain_confirms_its_block_at_attach():
    led = dag.DagLedger(dag.ChainWeights.from_values([70, 10, 10, 10]),
                        Fraction(67, 100))
    led.attach("w", 0, 1, [dag.GENESIS_ID], time=1.0)
    assert led.update_confirmations(now=1.0) == {"w"}
    led.attach("s", 1, 1, ["w"], time=2.0)
    assert led.update_confirmations(now=2.0) == set()
    check_against_rescan(random.Random(5), [70, 10, 10, 10], 50, cadence=0.5)


def test_tip_set_equals_zero_approver_blocks():
    rng = random.Random(9)
    led = equal_ledger(5)
    ids = [dag.GENESIS_ID]
    for i in range(60):
        parents = rng.sample(ids, min(len(ids), rng.randint(1, 2)))
        bid = f"b{i}"
        led.attach(bid, rng.randrange(5), i, parents, time=float(i))
        ids.append(bid)
        if i % 7 == 0:
            led.update_confirmations(now=float(i))
        approved = {p for b in led.blocks.values() for p in b.parents}
        want = {bid for bid, b in led.blocks.items()
                if bid not in approved and bid != dag.GENESIS_ID
                and b.status != dag.CONFIRMED}
        assert led.tips == want


# ---------------------------------------------------------------------------
# Parent selection
# ---------------------------------------------------------------------------

def test_single_tip_selected_even_for_larger_k():
    led = equal_ledger(3)
    led.attach("a", 0, 1, [dag.GENESIS_ID], time=1.0)
    assert led.select_tips(2, random.Random(0)) == ["a"]


def test_empty_tip_set_falls_back_to_deepest_confirmed():
    # select_tips offers only tips; the engine falls back to deepest_confirmed
    led = equal_ledger(3)
    assert led.select_tips(2, random.Random(0)) == []
    assert led.deepest_confirmed() == dag.GENESIS_ID
    led.attach("a", 0, 1, [dag.GENESIS_ID], time=1.0)
    led.attach("b", 1, 2, ["a"], time=2.0)
    led.attach("c", 2, 2, ["a"], time=2.0)
    led.update_confirmations(now=3.0)
    assert led.deepest_confirmed() == "a"


def test_honest_selection_uniform_over_pairs():
    led = equal_ledger(4)
    for i in range(10):
        led.attach(f"t{i}", i % 4, 1, [dag.GENESIS_ID], time=1.0)
    rng = random.Random(1234)
    counts = {pair: 0 for pair in combinations(sorted(led.tips), 2)}
    trials = 10_000
    for _ in range(trials):
        pick = tuple(led.select_tips(2, rng))
        counts[pick] += 1
    p = 1 / 45
    sigma = math.sqrt(trials * p * (1 - p))
    for pair, c in counts.items():
        assert abs(c - trials * p) <= 3 * sigma, (pair, c)


def test_honest_selection_deterministic_for_fixed_seed():
    led = equal_ledger(4)
    for i in range(10):
        led.attach(f"t{i}", i % 4, 1, [dag.GENESIS_ID], time=1.0)
    assert (led.select_tips(2, random.Random(7))
            == led.select_tips(2, random.Random(7)))


def test_skipped_tips_are_never_selected():
    led = equal_ledger(4)
    for i in range(6):
        led.attach(f"t{i}", i % 4, 1, [dag.GENESIS_ID], time=1.0)
    for bid in ("t0", "t3"):
        led.exclude(bid)
    assert led.tips == {f"t{i}" for i in range(6)}     # still tips
    rng = random.Random(5)
    for _ in range(200):
        assert not {"t0", "t3"} & set(led.select_tips(2, rng))
    # the sample is drawn from the sorted remaining pool, one call per epoch
    expected = sorted(random.Random(9).sample(["t1", "t2", "t4", "t5"], 2))
    assert led.select_tips(2, random.Random(9)) == expected
    for bid in ("t1", "t2", "t4", "t5"):
        led.exclude(bid)
    assert led.select_tips(2, rng) == []


def test_tip_confirming_while_still_a_tip_leaves_the_pool():
    # at threshold 1/2 of two chains, a block's own stake confirms it
    led = dag.DagLedger(dag.ChainWeights.equal(2), Fraction(1, 2))
    led.attach("a", 0, 1, [dag.GENESIS_ID], time=1.0)
    assert led.select_tips(2, random.Random(0)) == ["a"]
    assert led.update_confirmations(now=1.0) == {"a"}
    assert led.tips == set()
    assert led.select_tips(2, random.Random(0)) == []


def test_eligible_pool_matches_a_rescan_through_a_spam_trace():
    """After every attach, exclusion and confirmation pass of a seeded spam
    run, the pool `select_tips` draws from is the sorted tips not
    excluded, with the exclusions tracked here."""
    from chainmesh.config import ScenarioConfig
    from chainmesh.engine import Simulation

    sim = Simulation(ScenarioConfig(tip_sample=2, spam_fraction=0.55,
                                    duration_min=4.0))
    led = sim.dag
    excluded: set[str] = set()
    calls = {"attach": 0, "exclude": 0, "update_confirmations": 0}

    def checked(name):
        method = getattr(led, name)

        def run(*args, **kwargs):
            # the engine excludes tips; the DAG's own calls drop non-tips
            if name == "exclude" and args[0] in led.tips:
                excluded.add(args[0])
            calls[name] += 1
            out = method(*args, **kwargs)
            # k above the pool size samples the whole pool, then sorts it
            pool = led.select_tips(len(led.blocks), random.Random(0))
            assert pool == sorted(led.tips - excluded), name
            return out
        setattr(led, name, run)

    for name in calls:
        checked(name)
    result = sim.run()
    assert result.report.conservation_ok
    assert calls["attach"] == result.report.attached_blocks > 200
    assert result.report.confirmed_blocks > 0
    assert len(excluded) > 50 and calls["update_confirmations"] > 200


# ---------------------------------------------------------------------------
# Snapshot export
# ---------------------------------------------------------------------------

def test_snapshot_lines_cover_all_blocks_in_attach_order():
    led = equal_ledger(3)
    led.attach("a", 0, 1, [dag.GENESIS_ID], time=1.0)
    led.attach("b", 1, 2, ["a"], time=2.0)
    led.attach("c", 2, 2, ["a"], time=2.0)
    led.update_confirmations(now=3.0)
    lines = list(led.snapshot_lines())
    assert len(lines) == 4
    assert lines[0].startswith("genesis - 0 - confirmed")
    fields = lines[1].split()
    assert fields == ["a", "0", "1", "genesis", "confirmed", "1/1"]
    assert lines[2] == "b 1 2 a tip 1/3"
