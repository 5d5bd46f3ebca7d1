"""End-to-end behaviour of the discrete-event simulation."""

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from chainmesh import coding, engine
from chainmesh import events as ev
from chainmesh.balances import (FlowAggregates, LedgerBook,
                                LedgerOverflowError, net_balances, new_state,
                                update_cumulative)
from chainmesh.coding import CodingError, plan_groups
from chainmesh.config import ScenarioConfig, config_from_mapping, replace
from chainmesh.engine import Simulation, run_scenario
from chainmesh.dag import DagLedger
from chainmesh.events import LEDGER_APPEND, EventPools
from chainmesh.metrics import SeriesRecorder
from chainmesh.roles import build_fleet, make_valid_block
from corpus import ARTIFACTS, PINS


def quick(**kw) -> ScenarioConfig:
    base = dict(duration_min=1.0, issuance_rate=60.0, seed=0)
    base.update(kw)
    return replace(ScenarioConfig(), **base)


@pytest.fixture(scope="module")
def base_run():
    return run_scenario(quick(), "base")


SPAM = quick(spam_fraction=0.35, duration_min=2.0)


@pytest.fixture(scope="module")
def spam_run():
    return run_scenario(SPAM, "spam")


# -- determinism ------------------------------------------------------------

def test_rerun_writes_byte_identical_artifacts(tmp_path):
    cfg = quick(spam_fraction=0.2, double_spend={"pairs": 2, "regular": 6},
                duration_min=2.0)
    a, b = tmp_path / "a", tmp_path / "b"
    run_scenario(cfg, "det", a)
    run_scenario(cfg, "det", b)
    for name in ARTIFACTS:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_changing_the_seed_changes_the_artifacts():
    # a saturated tip pool makes parent choice genuinely random, so the
    # ledger itself (not just the seed stamp) must change with the seed
    a = run_scenario(quick(spam_fraction=0.55, duration_min=2.0, seed=0), "s")
    b = run_scenario(quick(spam_fraction=0.55, duration_min=2.0, seed=1), "s")
    assert list(a.snapshot_lines) != list(b.snapshot_lines)


def test_one_committee_draw_per_chain_and_epoch(monkeypatch):
    draws = Counter()
    select = engine.select_committee

    def counting(candidates, shared_seed, epoch, *rest, **kw):
        draws[shared_seed, epoch] += 1
        return select(candidates, shared_seed, epoch, *rest, **kw)

    monkeypatch.setattr(engine, "select_committee", counting)
    sim = Simulation(quick(spam_fraction=0.55, tip_sample=2))
    lines = list(sim.run().event_lines)
    published = set()
    for line in lines:
        rec = json.loads(line)
        published.add((sim.chains[rec["chain"]].committee_seed, rec["epoch"]))
    assert set(draws) == published
    assert set(draws.values()) == {1}
    assert len(lines) > len(draws)      # committees were reused


def test_every_logged_proposer_holds_the_highest_draw(tmp_path):
    # the draw from its definition alone: sha256(node_id|seed|epoch) as a
    # 256-bit integer, over the chain's candidates, ties to the lower id
    cfg = quick(spam_fraction=0.35, duration_min=0.5, fleet_size=25)
    run_scenario(cfg, "oracle", tmp_path)
    lines = (tmp_path / "events.log").read_text().splitlines()
    kinds = set()
    for line in lines:
        rec = json.loads(line)
        seed = f"{cfg.seed}|committee|{rec['chain']}"
        draws = {nid: int.from_bytes(hashlib.sha256(
                     f"{nid}|{seed}|{rec['epoch']}".encode()).digest(), "big")
                 for nid in (f"c{rec['chain']}n{i}"
                             for i in range(cfg.fleet_size))}
        assert rec["proposer"] == min(draws, key=lambda n: (-draws[n], n))
        assert rec["approve"] == cfg.committee_size() == 3
        kinds.add(rec["kind"])
    # every kind shows up, window epochs included
    assert kinds == set(ev.KINDS)


def test_committee_keys_are_built_at_the_first_draw_not_at_set_up(
        monkeypatch):
    def no_hashing(*args):
        raise AssertionError("lottery hashing during set-up")

    monkeypatch.setattr(ev, "vrf_keys", no_hashing)
    monkeypatch.setattr(ev, "vrf_draws", no_hashing)
    cfg = quick(duration_min=0.5)
    sim = Simulation(cfg)
    monkeypatch.undo()

    keys = Counter()
    vrf_keys = ev.vrf_keys

    def counting(secrets, shared_seed):
        keys[shared_seed] += len(secrets)
        return vrf_keys(secrets, shared_seed)

    monkeypatch.setattr(ev, "vrf_keys", counting)
    assert list(sim.run().event_lines)
    # each chain keys its fleet once, for its own seed, whatever the epochs
    assert set(keys) == {rt.committee_seed for rt in sim.chains.values()}
    assert set(keys.values()) == {cfg.fleet_size}


# -- accounting -------------------------------------------------------------

def test_conservation_identity_is_exact(base_run):
    total_net = 0
    outstanding = 0
    supply = 0
    for state in base_run.states.values():
        total_net += int(net_balances(state).sum())
        outstanding += int(state.last_proposed.sum())
        supply += int(state.genesis.sum())
    assert total_net + outstanding == supply
    assert base_run.report.conservation_ok is True


def test_state_and_payloads_are_sized_to_their_content(monkeypatch):
    m = 1000
    cfg = quick(accounts=m, spam_fraction=0.35)
    # every payload as it attaches: a window or an exclusion releases it
    payloads = []
    attach = DagLedger.attach

    def keep_payload(dag, *args, **kw):
        block = attach(dag, *args, **kw)
        payloads.append(block.payload)
        return block

    monkeypatch.setattr(DagLedger, "attach", keep_payload)
    tracemalloc.start()
    try:
        result = run_scenario(cfg, "sized")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (accounts, accounts) int64 array would take 8 MB on its own
    assert peak < 8 * m * m
    for state in result.states.values():
        assert state.w_in.shape == (1, m)
        assert state.w_out.shape == state.last_proposed.shape == (m, 1)
    assert len(payloads) == result.report.attached_blocks
    honest = set(cfg.honest_chains())
    assert {p.source in honest for p in payloads} == {True, False}
    for payload in payloads:
        assert len(payload.senders) <= cfg.active_rows
        assert payload.triplets.shape == (3, len(payload.senders))


def test_conservation_holds_under_spam_and_conflicts(spam_run):
    assert spam_run.report.conservation_ok is True


def test_honest_net_balances_never_negative(spam_run):
    honest = set(SPAM.honest_chains())
    for chain, state in spam_run.states.items():
        if chain in honest:
            assert (net_balances(state) >= 0).all()


def test_the_book_equals_a_dense_state_replay_at_every_window(monkeypatch):
    """Every debit and window the book takes, replayed per chain through MxM
    `update_cumulative`, gives the book's rows, its held balances among
    them, after every window."""
    cfg = quick(spam_fraction=0.3, duration_min=2.0,
                double_spend={"pairs": 3, "regular": 6})
    sim = Simulation(cfg)
    m = cfg.accounts
    zero = np.zeros((m, m), dtype=np.int64)
    states = {c: new_state(c, sim.book.genesis[c]) for c in sim.chains}
    windows = []

    def fold(c, inflow, confirmed, proposed):
        s = states[c]
        states[c] = update_cumulative(s, FlowAggregates(
            chain=c, epoch=s.epoch + 1, inflow=inflow,
            outflow_confirmed=confirmed, outflow_proposed=proposed))

    debit, ingest = LedgerBook.debit, LedgerBook.ingest

    def replay_debit(book, t):
        # the debit is the proposal's one check: every proposal passes it
        debit(book, t)
        block = np.zeros((m, m), dtype=np.int64)
        np.add.at(block, (t.senders, t.receivers), t.amounts)
        # the rows debited hold the same spend as the dense oracle
        debited = np.zeros(m, dtype=np.int64)
        debited[t.senders] = t.amounts
        assert block.sum(axis=1).tolist() == debited.tolist()
        fold(t.source, zero, zero, states[t.source].last_proposed + block)

    def replay_ingest(book, blocks):
        ingest(book, blocks)
        inflow = {c: zero.copy() for c in states}
        confirmed = {c: zero.copy() for c in states}
        for t in blocks:
            np.add.at(inflow[t.dest], (t.senders, t.receivers), t.amounts)
            np.add.at(confirmed[t.source], (t.senders, t.receivers),
                      t.amounts)
        for c, s in states.items():
            fold(c, inflow[c], confirmed[c],
                 s.last_proposed - confirmed[c])
            s = states[c]
            assert (s.genesis + s.w_in.sum(axis=0)).tolist() == \
                (book.held[c] + book.spent[c]).tolist()
            assert s.w_out.sum(axis=1).tolist() == \
                (book.spent[c] + book.outstanding[c]).tolist()
            assert s.last_proposed.sum(axis=1).tolist() == \
                book.outstanding[c].tolist()
            # held: the net balance with the outstanding spend released
            assert (net_balances(s) + s.last_proposed.sum(axis=1)).tolist() \
                == book.held[c].tolist()
        windows.append(len(blocks))

    monkeypatch.setattr(LedgerBook, "debit", replay_debit)
    monkeypatch.setattr(LedgerBook, "ingest", replay_ingest)
    result = sim.run()
    assert len(windows) > 10 and sum(windows) == \
        result.report.confirmed_blocks
    assert result.report.double_spend is not None
    for c, s in states.items():
        assert net_balances(s).tolist() == \
            net_balances(result.states[c]).tolist()


def watch_payloads(monkeypatch, cfg):
    """Run `cfg`, keeping each block's payload as it attaches, the
    payloads each window ingests, and the ids of the tips the engine
    excluded: those it checked and found invalid or conflicting."""
    attached, ingested, checked = {}, [], {}
    attach, ingest = DagLedger.attach, LedgerBook.ingest
    validate = engine.validate_tip_payloads

    def keep_attached(dag, block_id, *args, **kw):
        block = attach(dag, block_id, *args, **kw)
        attached[block_id] = block.payload
        return block

    def keep_ingested(book, blocks):
        ingested.extend(blocks)
        ingest(book, blocks)

    def keep_verdicts(tips, book):
        verdicts = validate(tips, book)
        checked.update(zip(map(id, tips), verdicts))
        return verdicts

    monkeypatch.setattr(DagLedger, "attach", keep_attached)
    monkeypatch.setattr(LedgerBook, "ingest", keep_ingested)
    monkeypatch.setattr(engine, "validate_tip_payloads", keep_verdicts)
    sim = Simulation(cfg)
    result = sim.run()
    excluded = {bid for bid, t in attached.items() if id(t) in checked
                and (not checked[id(t)] or bid in sim.tracker.candidates)}
    return sim, result, attached, ingested, excluded


#: spam and conflicting pairs, so tips are excluded both ways
EXCLUDING = quick(spam_fraction=0.3, duration_min=2.0,
                  double_spend={"pairs": 3, "regular": 6})


def test_a_window_releases_the_payloads_it_ingests(monkeypatch):
    # every payload stays with its block until a window has landed it in the
    # book, or until the block is excluded as an invalid or conflicting tip
    sim, result, attached, ingested, excluded = watch_payloads(
        monkeypatch, EXCLUDING)
    assert sim.tracker.detections        # tips were sighted conflicting
    landed = {id(t) for t in ingested}
    ingested_ids = {bid for bid, t in attached.items() if id(t) in landed}
    assert len(ingested_ids) == len(ingested) > 10
    assert excluded and excluded.isdisjoint(ingested_ids)
    released = ingested_ids | excluded
    for bid, payload in attached.items():
        block = result.dag.blocks[bid]
        if bid in released:
            assert block.payload is None, bid
        else:
            assert block.payload is payload is not None, bid
    assert result.dag.tips and result.dag.tips.isdisjoint(ingested_ids)


def test_an_excluded_tip_is_released_and_never_confirmed_nor_ingested(
        monkeypatch):
    from chainmesh.dag import CONFIRMED
    sim, result, attached, ingested, excluded = watch_payloads(
        monkeypatch, EXCLUDING)
    adversarial = set(EXCLUDING.adversarial_chains())
    blocks = result.dag.blocks
    # both kinds of exclusion happen: invalid spam and conflicting pairs
    assert {blocks[bid].proposer in adversarial for bid in excluded} == {
        True, False}
    assert excluded & set(sim.tracker.candidates)
    landed = {id(t) for t in ingested}
    for bid in excluded:
        assert blocks[bid].payload is None, bid
        assert blocks[bid].status != CONFIRMED, bid
        assert id(attached[bid]) not in landed, bid


#: ledger amounts near the top of int64
EXTREME = (2**60, 2**61, 2**62)


def test_extreme_amounts_run_or_stop_on_a_named_overflow():
    # a window's summed flows are checked before they land: none may wrap
    # into a balance, or into another error
    outcomes = Counter()
    for chains, accounts, genesis, amount, minutes in itertools.product(
            (2, 10), (1, 2, 3), EXTREME, EXTREME, (1.0, 2.0)):
        cfg = replace(ScenarioConfig(), chains=chains, accounts=accounts,
                      active_rows=accounts, genesis_balance=genesis,
                      amount_max=amount, duration_min=minutes, seed=0)
        try:
            result = Simulation(cfg).run()
        except LedgerOverflowError:
            outcomes["overflow"] += 1
            continue
        assert result.report.conservation_ok, cfg
        outcomes["ran"] += 1
    assert outcomes["ran"] and outcomes["overflow"], outcomes


# -- inter-chain ledger -----------------------------------------------------

def test_every_chain_appends_at_every_superblock_window(monkeypatch):
    cfg = quick(chains=2, duration_min=2.0)
    times = []
    record = SeriesRecorder.record_confirmed

    def keep_time(recorder, time_s):
        times.append(time_s)
        record(recorder, time_s)

    monkeypatch.setattr(SeriesRecorder, "record_confirmed", keep_time)
    res = run_scenario(cfg, "pair")
    appends = {0: [], 1: []}
    for line in res.event_lines:
        rec = json.loads(line)
        if rec["kind"] == LEDGER_APPEND:
            appends[rec["chain"]].append(rec["epoch"])
    # window i runs at (i + 1) intervals and appends at epoch -(i + 1), but
    # only if it ingests blocks: those confirmed since the window before
    interval = cfg.ledger_interval_s
    assert all(t % interval for t in times)     # no tie with a window
    windows = {math.ceil(t / interval) for t in times}
    want = sorted((-w for w in windows
                   if w * interval <= cfg.duration_min * 60), reverse=True)
    assert len(want) > 1
    assert appends[0] == appends[1] == want


def test_confirmed_blocks_are_honest_and_valid(spam_run):
    from chainmesh.dag import CONFIRMED, GENESIS_ID
    honest = set(SPAM.honest_chains())
    dishonest_seen = 0
    for bid, block in spam_run.dag.blocks.items():
        if bid == GENESIS_ID:
            continue
        if block.proposer not in honest:
            dishonest_seen += 1
            assert block.status != CONFIRMED
    assert dishonest_seen > 0


def test_invalid_blocks_are_never_approved(spam_run):
    from chainmesh.dag import GENESIS_ID
    honest = set(SPAM.honest_chains())
    for bid, block in spam_run.dag.blocks.items():
        if bid == GENESIS_ID or block.proposer not in honest:
            continue
        for parent in block.parents:
            if parent == GENESIS_ID:
                continue
            # only honest chains propose valid blocks
            assert spam_run.dag.blocks[parent].proposer in honest, \
                f"{bid} approved invalid {parent}"


def test_spam_grows_the_tip_pool():
    low = run_scenario(quick(spam_fraction=0.2, duration_min=2.0), "lo")
    high = run_scenario(quick(spam_fraction=0.5, duration_min=2.0), "hi")
    assert high.report.final_tip_pool > low.report.final_tip_pool


# -- worker fleet regimes ---------------------------------------------------

def test_total_silence_stalls_the_coded_fleet():
    # fleets the group planner cannot lay out stall the same way as total
    # silence instead of failing at set-up
    for fleet, frac in ((20, 1.0), (20, 0.9), (21, 0.5)):
        res = run_scenario(quick(fleet_size=fleet, straggler_fraction=frac,
                                 coding=True), "mute")
        assert res.report.intra_blocks_per_min == 0.0, (fleet, frac)
        assert res.report.attached_blocks == 0, (fleet, frac)
        assert res.report.confirmed_blocks == 0, (fleet, frac)
        assert res.report.conservation_ok, (fleet, frac)


def test_a_stalled_coded_epoch_draws_no_block(monkeypatch):
    # an honest chain without a coded layout times out at every epoch,
    # before it would build a payload, so it draws none
    calls = []

    def counted(**kw):
        calls.append(kw)
        return make_valid_block(**kw)

    monkeypatch.setattr(engine, "make_valid_block", counted)
    overrides = PINS["coded-fleet21-all-skip"][0]
    res = run_scenario(config_from_mapping(overrides), "skip")
    kinds = Counter(json.loads(line)["kind"] for line in res.event_lines)
    assert kinds[ev.PROPOSAL_FORMED] > 0         # the epochs did run
    assert res.report.attached_blocks == 0 and len(calls) == 0


def test_total_silence_uncoded_limps_through_fallback():
    res = run_scenario(quick(straggler_fraction=1.0, coding=False), "limp")
    assert res.report.intra_blocks_per_min > 0.0


def test_coding_outpaces_plain_sharding_under_stragglers():
    coded = run_scenario(quick(straggler_fraction=0.3, coding=True,
                               issuance_rate=240.0), "c")
    plain = run_scenario(quick(straggler_fraction=0.3, coding=False,
                               issuance_rate=240.0), "u")
    assert coded.report.intra_blocks_per_min > plain.report.intra_blocks_per_min


def slowest_group_stage_s(sim, chain, factor):
    """The coded shard stage as the slowest of the layout's groups."""
    cfg, m = sim.cfg, sim.cfg.accounts
    rng = np.random.default_rng(engine.derive_seed(cfg.seed, "fleet", chain))
    profile = build_fleet(cfg.fleet_size, cfg.straggler_fraction, rng)
    worst = 0.0
    for g in plan_groups(cfg.fleet_size, m, profile).groups:
        rows = factor * g.rows_per_block
        worst = max(worst, sim._transfer_s(8.0 * 3 * rows * m)
                    + rows * cfg.worker_ms_per_row / 1000.0
                    + sim._transfer_s(8.0 * 2 * rows * m))
    return worst


@pytest.mark.parametrize("fleet,accounts", [(20, 100), (37, 100), (100, 1000),
                                            (7, 5)])
def test_coded_shard_stage_lasts_as_long_as_the_slowest_group(fleet,
                                                              accounts):
    sim = Simulation(quick(fleet_size=fleet, accounts=accounts, coding=True,
                           straggler_fraction=0.3))
    for c, rt in sim.chains.items():
        assert rt.missing_rows == 0
        assert sim._shard_stage_s(rt, 0) == 0.0
        for factor in range(1, 6):
            assert (sim._shard_stage_s(rt, factor)
                    == slowest_group_stage_s(sim, c, factor))


def test_the_stage_table_is_sized_by_the_largest_tip_batch():
    # a tip batch keeps one tip per source chain, so a tip_sample far above
    # chains forms no larger batch and builds no larger table of stage
    # durations: its traced peak stays within twice that of tip_sample 2
    peaks = []
    for tip_sample in (2, 10**5):
        tracemalloc.start()
        try:
            run_scenario(quick(duration_min=0.1, tip_sample=tip_sample))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0], peaks


def test_plain_shard_rows_follow_the_uneven_split():
    # 100 rows over 7 workers: workers 0 and 1 hold 15 rows, the rest 14
    sim = Simulation(quick(fleet_size=7, accounts=100, coding=False,
                           straggler_fraction=0.3))
    for rt in sim.chains.values():
        rng = np.random.default_rng(
            engine.derive_seed(0, "fleet", rt.chain))
        silent = build_fleet(7, 0.3, rng).straggler_set()
        assert len(silent) == 2
        assert sim.worker_rows == 15
        assert rt.missing_rows == sum(15 if i < 2 else 14 for i in silent)


def test_plain_shard_rows_on_an_even_split_count_every_silent_worker():
    # 1000 rows over 100 workers: every worker holds 10
    sim = Simulation(quick(fleet_size=100, accounts=1000, coding=False))
    for rt in sim.chains.values():
        rng = np.random.default_rng(
            engine.derive_seed(0, "fleet", rt.chain))
        silent = build_fleet(100, 0.1, rng).straggler_set()
        assert sim.worker_rows == 10
        assert rt.missing_rows == sum(10 for _ in silent) == 100


@pytest.mark.parametrize("overrides,drawn", [
    ({"coding": False}, False),                         # 100 rows over 20
    ({"fleet_size": 100, "accounts": 1000, "coding": False}, False),
    ({"coding": True}, False),                          # the layout alone
    ({"fleet_size": 7, "accounts": 100, "coding": False,
      "straggler_fraction": 0.3}, True),                # ranked stragglers
    ({"fleet_size": 7, "accounts": 100, "coding": True,
      "straggler_fraction": 0.3}, False),
])
def test_a_fleet_is_drawn_only_where_its_likelihoods_are_read(
        monkeypatch, overrides, drawn):
    calls = []

    def counted(*args):
        calls.append(args)
        return build_fleet(*args)

    monkeypatch.setattr(engine, "build_fleet", counted)
    sim = Simulation(quick(**overrides))
    assert len(calls) == (sim.cfg.chains if drawn else 0)


def test_a_coded_run_never_plans_its_groups(monkeypatch):
    def refuse(*args):
        raise AssertionError("a run planned its frozen sets")

    for name in ("plan_groups", "_repair_frozen"):
        monkeypatch.setattr(coding, name, refuse)
    monkeypatch.setattr(engine, "plan_groups", refuse, raising=False)
    res = run_scenario(quick(coding=True, straggler_fraction=0.3), "coded")
    assert res.report.intra_blocks_per_min > 0


def layout_cases():
    """(fleet, accounts, rate) of a seeded grid: every account count at
    fleets 1 to 40, 64, 100 and 128 and rates 0 to 1, stalls among them."""
    rng = np.random.default_rng(28)
    rates = (0.0, 0.1, 0.25, 0.3, 0.5, 0.7, 0.9, 1.0)
    for accounts in (1, 7, 100, 1000):
        for fleet in (1, 2, 3, 5, 20, 21, 37, 64, 100, 128):
            yield fleet, accounts, float(rng.choice(rates))
        for _ in range(12):
            yield int(rng.integers(1, 41)), accounts, float(rng.choice(rates))


def test_the_coded_layout_equals_the_planners():
    # the planner on a drawn profile is the oracle of the engine's rows
    stalls = 0
    for seed, (fleet, accounts, rate) in enumerate(layout_cases()):
        cfg = quick(chains=2, fleet_size=fleet, accounts=accounts,
                    straggler_fraction=rate, coding=True, seed=seed)
        sim = Simulation(cfg)
        profile = build_fleet(fleet, rate, np.random.default_rng(
            engine.derive_seed(seed, "fleet", 0)))
        try:
            groups = plan_groups(fleet, accounts, profile).groups
        except CodingError:
            want = None
            stalls += 1
        else:
            want = max(g.rows_per_block for g in groups)
            for g in groups:
                assert g.rows_per_block == math.ceil(
                    g.rows / len(g.data_positions))
        assert sim.worker_rows == want, (fleet, accounts, rate)
        for rt in sim.chains.values():
            assert rt.missing_rows == 0
    assert stalls


LAZY_IMPORT_PROBE = """
import json, sys, tempfile
from pathlib import Path
import chainmesh.engine, chainmesh.metrics
from chainmesh.config import config_from_mapping
cfgs = [config_from_mapping({"duration_min": 0.5, **o})
        for o in json.loads(sys.argv[1])]
with tempfile.TemporaryDirectory() as tmp:
    before = set(sys.modules)
    for i, cfg in enumerate(cfgs):
        res = chainmesh.engine.Simulation(cfg).run()
        chainmesh.metrics.write_artifacts(
            Path(tmp) / str(i), res.recorder, res.report,
            res.snapshot_lines, res.event_lines)
    print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_no_set_up_run_or_write_imports_a_module():
    # numpy loads `numpy.random` at its first use: the engine loads it as
    # it is imported, so no set-up or run pays for it
    overrides = [{"coding": True, "double_spend": {"pairs": 1, "regular": 1},
                  "spam_fraction": 0.3},
                 {"coding": False},
                 {"coding": False, "fleet_size": 7}]
    src = Path(engine.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_IMPORT_PROBE, json.dumps(overrides)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, check=True)
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize("n", [1, 9, 10, 11, 99, 100, 101, 1000])
def test_candidate_node_ids_are_each_chains_ids_in_sorted_order(n):
    sim = Simulation(quick(fleet_size=n, coding=False, chains=3))
    for c, rt in sim.chains.items():
        assert rt.candidates.node_ids == tuple(
            sorted(f"c{c}n{i}" for i in range(n)))


def test_candidate_node_ids_are_unique_and_chain_scoped():
    sim = Simulation(quick(fleet_size=10))
    for c, rt in sim.chains.items():
        assert rt.candidates.node_ids == tuple(f"c{c}n{i}" for i in range(10))


# -- reporting --------------------------------------------------------------

def test_report_totals_match_the_ledger(base_run):
    rep = base_run.report
    assert rep.attached_blocks == len(base_run.dag.blocks) - 1
    assert 0 < rep.confirmed_blocks <= rep.attached_blocks
    assert rep.intra_blocks_per_min > 0
    assert rep.mean_finality_s > 0
    assert rep.confirmation_gini is not None


def test_event_log_is_json_with_known_kinds(base_run):
    kinds = set()
    chains = set()
    for line in base_run.event_lines:
        rec = json.loads(line)
        kinds.add(rec["kind"])
        chains.add(rec["chain"])
        assert rec["outcome"] in {"active", "discarded"}
    assert kinds <= set(ev.KINDS)
    assert chains == set(range(quick().chains))


def test_artifact_files_round_trip(tmp_path, base_run):
    out = tmp_path / "run"
    run_scenario(quick(), "base", out)
    for name in ARTIFACTS:
        assert (out / name).exists(), name
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["conservation_ok"] is True
    rows = (out / "tip_pool.csv").read_text().strip().splitlines()
    assert rows[0] == "time_s,count"
    assert len(rows) - 1 == 60          # one per sample second through the end


def test_artifact_lines_read_twice_equal_the_written_files(tmp_path):
    result = run_scenario(quick(spam_fraction=0.35), "twice", tmp_path)
    for name, attr in (("events.log", "event_lines"),
                       ("dag_snapshot.txt", "snapshot_lines")):
        lines = list(getattr(result, attr))
        assert lines and list(getattr(result, attr)) == lines, name
        assert "".join(line + "\n" for line in lines) == \
            (tmp_path / name).read_text(), name


def test_run_formats_no_artifact_line(monkeypatch):
    calls = Counter()

    def counting(cls, name):
        method = getattr(cls, name)

        def counted(*args, **kw):
            calls[name] += 1
            return method(*args, **kw)
        monkeypatch.setattr(cls, name, counted)

    counting(EventPools, "audit_lines")
    counting(DagLedger, "snapshot_lines")
    cfg = quick()
    result = Simulation(cfg).run()
    assert not calls
    assert list(result.event_lines) and list(result.snapshot_lines)
    assert calls == {"audit_lines": cfg.chains, "snapshot_lines": 1}


def test_run_builds_no_ledger_state_until_read(monkeypatch):
    calls = Counter()
    state = LedgerBook.state

    def counted(book, chain):
        calls[chain] += 1
        return state(book, chain)

    monkeypatch.setattr(LedgerBook, "state", counted)
    cfg = quick()
    result = Simulation(cfg).run()
    assert not calls
    states = result.states
    assert list(states) == list(range(cfg.chains))
    assert calls == Counter(range(cfg.chains))
    # each read builds them afresh, from the book as the run left it
    again = result.states
    for c, s in states.items():
        assert again[c] is not s and again[c].epoch == s.epoch
        assert again[c].w_in.tolist() == s.w_in.tolist()


@pytest.mark.parametrize("k", [2, 4])
def test_labeled_candidates_are_never_approved_nor_confirmed(k):
    from chainmesh.dag import CONFIRMED
    from chainmesh.presets import build_preset
    (cfg,) = build_preset(f"double-spend-k{k}").values()
    sim = Simulation(cfg, "ds")
    res = sim.run()
    # a candidate is sighted in the first tip batch that holds it, so none
    # is ever approved
    conflicting = set(sim.tracker.candidates)
    assert sim.tracker.detections        # the check below is not vacuous
    for bid, block in res.dag.blocks.items():
        assert not conflicting & set(block.parents), bid
        if bid in conflicting:
            assert block.status != CONFIRMED, bid


HONEST_STAGES = [ev.PROPOSAL_FORMED, ev.PROPOSAL_RESULTS, ev.TIP_BATCH_FORMED,
                 ev.TIP_RESULTS, ev.DAG_SUBMISSION, ev.WEIGHT_UPDATE]
ADVERSARIAL_STAGES = [ev.PROPOSAL_FORMED, ev.DAG_SUBMISSION, ev.WEIGHT_UPDATE]


@pytest.mark.parametrize("changes, honest", [
    ({"spam_fraction": 0.35, "double_spend": {"pairs": 2, "regular": 6}},
     HONEST_STAGES),
    ({"straggler_fraction": 0.3, "coding": False, "issuance_rate": 240.0},
     HONEST_STAGES),
    ({"fleet_size": 21, "straggler_fraction": 0.5},      # every epoch skips
     [ev.PROPOSAL_FORMED]),
], ids=["spam-conflicts", "plain-fallback", "no-layout"])
def test_a_chain_runs_one_epoch_at_a_time(tmp_path, changes, honest):
    cfg = quick(**changes)
    run_scenario(cfg, "serial", tmp_path)
    adversarial = set(cfg.adversarial_chains())
    last: dict[int, int] = {}
    stages: dict[tuple[int, int], list[str]] = {}
    for line in (tmp_path / "events.log").read_text().splitlines():
        rec = json.loads(line)
        if rec["epoch"] > 0:
            # an epoch's events are contiguous: the log never returns to it
            assert rec["epoch"] >= last.get(rec["chain"], 0), rec
            last[rec["chain"]] = rec["epoch"]
            stages.setdefault((rec["chain"], rec["epoch"]), []).append(
                rec["kind"])
        else:                            # window epochs are negative
            assert rec["kind"] == LEDGER_APPEND, rec
    assert last
    for (chain, epoch), kinds in stages.items():
        # each epoch runs its chain's stages in pipeline order; only the
        # run's end may cut one short, and only a chain's last epoch
        full = ADVERSARIAL_STAGES if chain in adversarial else honest
        assert kinds == full[:len(kinds)], (chain, epoch, kinds)
        assert len(kinds) == len(full) or epoch == last[chain], \
            (chain, epoch, kinds)


def test_double_spend_metrics_in_report():
    res = run_scenario(quick(spam_fraction=0.2, duration_min=3.0,
                             issuance_rate=100.0,
                             double_spend={"pairs": 4, "regular": 12}), "ds")
    ds = res.report.double_spend
    assert ds is not None
    assert ds["p_detect"] == 1.0
    assert ds["p_false_alarm"] == 0.0
    assert ds["mean_delay_s"] > 0
