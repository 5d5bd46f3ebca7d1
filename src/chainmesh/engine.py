"""Deterministic discrete-event simulator tying every layer together.

Each chain runs a staged epoch pipeline, one epoch per slot of its own
issuance schedule: form a transfer proposal, shard it across the worker
fleet (coded or plain partitions), validate, pick and check foreign tips,
attach to the shared DAG, and update confirmations; a committee drawn as the
epoch opens signs off on each stage event. A chain runs one epoch at a time.
A block carries the transaction id the injection plan keys to its (chain,
epoch); the conflict tracker, present in every run, keeps which conflicts
each chain has sighted at which epoch, and finalises them when a block of
that chain and epoch or later confirms. Every timed process -- a chain's
epochs, the ledger windows, the tip-pool samples -- is one generator,
resumed by the event queue at each time it waits for. A tip sighted invalid
or conflicting is excluded in the DAG for good, and its payload is
released: it is never sampled, confirmed or ingested again. Confirmed
blocks are ingested into the exact cross-chain ledger book at fixed ledger
windows, where every chain's committee signs off on the append; an
ingested block's payload is released. Only honest chains propose valid
blocks: that cross-checks every tip verdict, confirmation and ingestion.
The report reads each run fact from its one holder: the balances from the
book, whose held balances must still sum to the genesis supply, each
chain's confirmations from the DAG, the series from the recorder.
The run keeps its events and series in flat columns and each chain's slot
times as one array of floats; the `events.log` and DAG snapshot lines are
formatted only as they are written, and the end-of-run ledger states only
as they are read. All randomness flows from purpose-keyed streams of the
scenario seed, so a rerun reproduces every artifact byte for byte.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import random
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.random import default_rng    # numpy loads it at its first use

from . import events as ev
from .balances import (CumulativeState, LedgerBook, Transfers,
                       validate_tip_payloads)
from .coding import (CodingError, block_rows, group_layout, straggler_count,
                     written_ratio)
from .config import ScenarioConfig
from .dag import CONFIRMED, GENESIS_ID, ChainWeights, DagBlock, DagLedger
from .doublespend import NO_INJECTIONS, ConflictTracker, plan_injections
from .events import Candidates, EventPools, select_committee
from .metrics import MetricsReport, SeriesRecorder, gini, write_artifacts
from .roles import (build_fleet, make_invalid_block, make_valid_block,
                    schedule_issuance)


class SimulationError(Exception):
    """Inconsistent simulation state; indicates a modeling bug."""


def derive_seed(seed: int, *keys) -> int:
    """Stable purpose-keyed sub-seed."""
    text = "|".join(map(str, (seed, *keys)))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


@dataclass
class _ChainRuntime:
    chain: int
    honest: bool
    pool: EventPools
    candidates: Candidates
    committee_seed: str
    dests: tuple[int, ...]          # destination chains, cycled by epoch
    slots: array                    # slot time of each epoch
    missing_rows: int = 0           # rows of silent workers on a plain fleet


@dataclass
class RunResult:
    """Everything a finished run exposes for reporting and inspection."""

    report: MetricsReport
    recorder: SeriesRecorder
    pools: list[EventPools]         # in chain order
    book: LedgerBook
    dag: DagLedger

    @property
    def states(self) -> dict[int, CumulativeState]:
        """Each chain's end-of-run totals as a summed state; built afresh
        on each read."""
        return {c: self.book.state(c) for c in range(len(self.book.genesis))}

    @property
    def event_lines(self) -> Iterator[str]:
        """The `events.log` lines, chain by chain; a fresh iterator."""
        return itertools.chain.from_iterable(
            pool.audit_lines() for pool in self.pools)

    @property
    def snapshot_lines(self) -> Iterator[str]:
        """The `dag_snapshot.txt` lines; a fresh iterator."""
        return self.dag.snapshot_lines()


class Simulation:
    """One deterministic run of a scenario."""

    def __init__(self, cfg: ScenarioConfig, scenario: str = "scenario"):
        self.cfg = cfg
        self.scenario = scenario
        self._end = cfg.duration_min * 60.0
        self.recorder = SeriesRecorder(cfg.duration_min)
        self.dag = DagLedger(ChainWeights.equal(cfg.chains),
                             eta=cfg.confirm_threshold)
        self.tracker = ConflictTracker()
        self._to_ingest: list[DagBlock] = []
        self.book = LedgerBook(np.full((cfg.chains, cfg.accounts),
                                       cfg.genesis_balance, dtype=np.int64))
        self._bounds: dict = {}         # the block draws' bounds, by shape
        self._setup()

    # -- construction ------------------------------------------------------

    def _setup(self) -> None:
        cfg = self.cfg
        adversarial = cfg.adversarial_chains()
        honest = cfg.honest_chains()
        slots = schedule_issuance(cfg.issuance_rate, cfg.spam_fraction,
                                  honest, adversarial, cfg.duration_min)
        ds = cfg.double_spend
        self.injection = NO_INJECTIONS
        if ds.pairs or ds.regular:
            self.injection = plan_injections(
                {c: slots[c] for c in honest}, ds.pairs, ds.regular,
                default_rng(derive_seed(cfg.seed, "inject")))
        self.chains: dict[int, _ChainRuntime] = {}
        # a chain's node ids are its prefix "c{c}n" before each index
        # string; dealt from the index strings in sorted order, by one join
        # and split, they come in sorted order
        tails = sorted(map(str, range(cfg.fleet_size)))
        # a run reads the same of every chain's fleet, but for the ranked
        # straggler set of an uneven plain split, the one fleet it draws
        rate = written_ratio(cfg.straggler_fraction)
        base, extra = divmod(cfg.accounts, cfg.fleet_size)
        if cfg.coding:
            # the largest block sets the round; no data position, no layout
            try:
                rows, silent = max(block_rows(*g) for g in group_layout(
                    cfg.fleet_size, cfg.accounts, rate)), 0
            except CodingError:
                rows, silent = None, 0
        else:
            rows = base + (extra > 0)       # the first `extra` hold one more
            silent = base * straggler_count(cfg.fleet_size, rate)
        self.worker_rows = rows     # each chain's largest job; None: no layout
        for c in range(cfg.chains):
            prefix = f"c{c}n"
            missing = silent
            if extra and not cfg.coding:
                profile = build_fleet(cfg.fleet_size, cfg.straggler_fraction,
                                      default_rng(derive_seed(cfg.seed,
                                                              "fleet", c)))
                missing += sum(i < extra for i in profile.straggler_set())
            self.chains[c] = _ChainRuntime(
                chain=c,
                honest=c not in adversarial,
                dests=(tuple(d for d in range(cfg.chains) if d != c)
                       if c not in adversarial else honest),
                slots=slots[c],
                pool=EventPools(chain=c, approvals=cfg.committee_size()),
                candidates=Candidates(
                    (prefix + f" {prefix}".join(tails)).split()),
                committee_seed=f"{cfg.seed}|committee|{c}",
                missing_rows=missing,
            )

    # -- timing model ------------------------------------------------------

    def _transfer_s(self, nbytes: float) -> float:
        cfg = self.cfg
        return cfg.link_latency_ms / 1000.0 + nbytes / (cfg.bandwidth_mbps
                                                        * 125000.0)

    def _shard_stage_s(self, rt: _ChainRuntime, factor: int) -> float:
        """Worker round duration for `factor` matrix-sized jobs.

        The round lasts as long as the largest job: no term of it decreases
        as the rows grow. Coded fleets wait for every data position; their
        silent nodes sit at frozen positions, which change no block size,
        so the designed reception always decodes. Plain fleets fall back to
        central recomputation of the silent partitions after the timeout.
        """
        cfg = self.cfg
        if factor <= 0:
            return 0.0
        rows = factor * self.worker_rows
        nominal = (self._transfer_s(8.0 * 3 * rows * cfg.accounts)
                   + rows * cfg.worker_ms_per_row / 1000.0
                   + self._transfer_s(8.0 * 2 * rows * cfg.accounts))
        if rt.missing_rows:
            fallback = (cfg.task_timeout_ms / 1000.0 + factor
                        * rt.missing_rows * cfg.fallback_ms_per_row / 1000.0)
            return max(nominal, fallback)
        return nominal

    # -- chain pipeline ----------------------------------------------------

    def _epochs(self, rt: _ChainRuntime) -> Iterator[float]:
        """The chain's epochs, one at a time and in slot order; yields each
        time the pipeline waits for, at which `run` resumes it."""
        cfg = self.cfg
        vote_s = 2.0 * cfg.link_latency_ms / 1000.0
        publish = rt.pool.publish
        # the shard stage of 0 .. tip_sample jobs, at most one per chain
        stage_s = () if self.worker_rows is None else tuple(
            self._shard_stage_s(rt, f)
            for f in range(min(cfg.tip_sample, cfg.chains) + 1))
        first_block: str | None = None
        now = 0.0
        for epoch, slot_time in enumerate(rt.slots, 1):
            if slot_time > now:
                yield slot_time
                now = slot_time
            t0 = now
            proposer = select_committee(rt.candidates, rt.committee_seed,
                                        epoch)
            publish(ev.PROPOSAL_FORMED, epoch, proposer)
            if rt.honest and self.worker_rows is None:
                # no coded layout, nothing to draw or decode: one re-poll,
                # then the stage times out and the chain moves on
                timeout = cfg.task_timeout_ms / 1000.0
                now = t0 + vote_s + 2.0 * timeout
                yield now
                continue
            # drawn within the net balances at t0, before the first wait
            dest = rt.dests[(epoch - 1) % len(rt.dests)]
            rng = default_rng(derive_seed(
                cfg.seed, "payload" if rt.honest else "spam", rt.chain, epoch))
            if not rt.honest:
                payload = make_invalid_block(
                    dest=dest, balances=self.book.net(rt.chain),
                    invalid_tx_fraction=cfg.invalid_tx_fraction, rng=rng,
                    source=rt.chain, active_rows=cfg.active_rows,
                    bounds=self._bounds)
                now = t0 + 3.0 * vote_s
                yield now
                # stale single parent: the chain's own first block, else
                # genesis -- approving an already-covered ancestor removes
                # nothing from the pool
                parents = [first_block or GENESIS_ID]
            else:
                payload = make_valid_block(
                    dest=dest, balances=self.book.net(rt.chain), rng=rng,
                    source=rt.chain, active_rows=cfg.active_rows,
                    bounds=self._bounds, amount_max=cfg.amount_max)
                now = t0 + vote_s + stage_s[1] + vote_s
                yield now
                publish(ev.PROPOSAL_RESULTS, epoch, proposer)
                parents, tips = self._stage_tips(
                    rt, epoch, payload, random.Random(derive_seed(
                        cfg.seed, "tips", rt.chain, epoch)))
                publish(ev.TIP_BATCH_FORMED, epoch, proposer)
                now = now + vote_s + stage_s[tips] + 2.0 * vote_s
                yield now
                publish(ev.TIP_RESULTS, epoch, proposer)
                # every checked tip failed: fall back to the deepest
                # confirmed block as of attach time
                parents = parents or [self.dag.deepest_confirmed()]

            block_id = f"c{rt.chain:02d}e{epoch:05d}"
            self.dag.attach(block_id, proposer=rt.chain, epoch=epoch,
                            parents=parents, payload=payload, time=now)
            first_block = first_block or block_id
            txn = self.injection.carriers.get((rt.chain, epoch))
            if txn:
                self.tracker.register_attach(block_id, txn, now)
            publish(ev.DAG_SUBMISSION, epoch, proposer)
            self._confirmations(now)
            publish(ev.WEIGHT_UPDATE, epoch, proposer)

    def _stage_tips(self, rt: _ChainRuntime, epoch: int, payload: Transfers,
                    rng: random.Random) -> tuple[list[str], int]:
        """Debit the proposal of `epoch`, then pick foreign tips with `rng`
        and check them: returns the approvable ones and the batch size."""
        # drawn within the net balance, so the book's one check passes it
        self.book.debit(payload)

        selected = self.dag.select_tips(self.cfg.tip_sample, rng)
        batch: dict[int, str] = {}      # one tip per source chain
        for bid in selected:
            batch.setdefault(self.dag.blocks[bid].proposer, bid)
        parents: list[str] = []
        if batch:
            blocks = [self.dag.blocks[b] for b in batch.values()]
            verdicts = validate_tip_payloads(
                [block.payload for block in blocks], self.book)
            for (src, bid), block, verdict in zip(batch.items(), blocks,
                                                  verdicts):
                # only honest chains propose valid blocks
                if verdict != self.chains[src].honest:
                    raise SimulationError(
                        f"tip verdict for {bid} disagrees with ground truth")
                conflicting = self.tracker.inspect_tip(rt.chain, epoch, bid)
                if verdict and not conflicting:
                    parents.append(bid)
                else:
                    # verdicts are deterministic and shared: a tip sighted
                    # invalid or conflicting is never sampled again, so it
                    # wastes one approval slot in total, not one per epoch;
                    # it is never confirmed or ingested, so nothing reads
                    # its payload again
                    self.dag.exclude(bid)
                    block.payload = None
        else:
            # no tip to check: fall back to the deepest confirmed block
            parents = [self.dag.deepest_confirmed()]
        return parents, len(batch)

    # -- confirmation and ingestion ----------------------------------------

    def _confirmations(self, now: float) -> None:
        newly = self.dag.update_confirmations()
        for bid in sorted(newly):
            block = self.dag.blocks[bid]
            if not self.chains[block.proposer].honest:
                raise SimulationError(f"invalid block {bid} confirmed")
            self.recorder.record_finality(bid, now - block.attach_time)
            self.recorder.record_confirmed(now)
            self._to_ingest.append(block)
            self.tracker.on_confirm(block.proposer, block.epoch, now)

    def _windows(self) -> Iterator[float]:
        """The ledger windows, one every `ledger_interval_s`: each ingests
        the blocks confirmed since the last one."""
        now = 0.0
        # windows use their own epoch space: -1, -2, ...
        for window_epoch in itertools.count(-1, -1):
            now += self.cfg.ledger_interval_s
            yield now
            # confirmed, so honest and debited; an empty window lands nothing
            self.book.ingest([block.payload for block in self._to_ingest])
            if not self._to_ingest:
                continue
            for block in self._to_ingest:
                block.payload = None    # never a tip again: nothing reads it
            self._to_ingest.clear()
            for rt in self.chains.values():
                proposer = select_committee(rt.candidates, rt.committee_seed,
                                            window_epoch)
                rt.pool.publish(ev.LEDGER_APPEND, window_epoch, proposer)

    def _samples(self) -> Iterator[float]:
        """The tip-pool samples, one every `tip_pool_sample_s`."""
        now = 0.0
        while True:
            now += self.cfg.tip_pool_sample_s
            yield now
            self.recorder.sample_tip_pool(now, len(self.dag.tips))

    # -- top level ---------------------------------------------------------

    def run(self) -> RunResult:
        # the event queue: each timed process starts at time 0, in this
        # order, and is resumed at each time it waits for, unless that lies
        # past the end of the run; equal times resume in the order queued
        queue = [(0.0, i, process) for i, process in enumerate((
            *(self._epochs(rt) for rt in self.chains.values()),
            self._windows(), self._samples()))]
        order = itertools.count(len(queue))
        end = self._end
        while queue:
            process = heapq.heappop(queue)[2]
            wake = next(process, None)
            if wake is not None and wake <= end:
                heapq.heappush(queue, (wake, next(order), process))
        times = self.recorder.tip_times
        if not times or times[-1] != round(self._end, 6):
            self.recorder.sample_tip_pool(self._end, len(self.dag.tips))
        return RunResult(report=self._report(),
                         recorder=self.recorder,
                         pools=[rt.pool for rt in self.chains.values()],
                         book=self.book,
                         dag=self.dag)

    def _report(self) -> MetricsReport:
        cfg = self.cfg
        # only an honest chain's epoch publishes its proposal's results
        code = ev.KIND_CODES[ev.PROPOSAL_RESULTS]
        intra = sum(rt.pool.kinds.count(code) for rt in self.chains.values())
        # confirmed blocks per chain; genesis, proposed by none, is left out
        by_chain = Counter(b.proposer for b in self.dag.blocks.values()
                           if b.status == CONFIRMED)
        counts = [by_chain[c] for c in range(cfg.chains)]
        confirmed = sum(counts)
        attached = len(self.dag.blocks) - 1
        finals = self.recorder.finality_s
        pools = self.recorder.tip_counts
        plan = self.injection
        ds = (self.tracker.score(plan.pair_ids, plan.regular_ids)
              if plan.carriers else None)
        return MetricsReport(
            scenario=self.scenario,
            seed=cfg.seed,
            duration_min=cfg.duration_min,
            intra_blocks_per_min=intra / cfg.duration_min,
            inter_blocks_per_min=confirmed / cfg.duration_min,
            confirmed_blocks=confirmed,
            attached_blocks=attached,
            mean_finality_s=(float(np.mean(finals)) if finals else None),
            mean_tip_pool=(float(np.mean(pools)) if pools else None),
            final_tip_pool=(pools[-1] if pools else None),
            confirmation_gini=gini(counts),
            # in Python ints: held, nets + outstanding, sums to the supply
            conservation_ok=(sum(self.book.held.ravel().tolist())
                             == sum(self.book.genesis.ravel().tolist())),
            double_spend=ds,
        )


def run_scenario(cfg: ScenarioConfig, scenario: str = "scenario",
                 out_dir=None) -> RunResult:
    """Run one scenario deterministically; optionally write its artifacts."""
    sim = Simulation(cfg, scenario=scenario)
    result = sim.run()
    if out_dir is not None:
        write_artifacts(out_dir, result.recorder, result.report,
                        result.snapshot_lines, result.event_lines)
    return result
