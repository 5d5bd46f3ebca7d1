"""Conflicting-spend injection, first-seen detection, and scoring.

A conflicting pair is two blocks carrying the same transaction id. The
earlier-attached block passes; the later one is a conflict candidate. Once
an honest chain's tip batch sights a candidate, the DAG never offers it as
a tip again, so no block approves it. The tracker keeps the transaction ids
each chain has sighted, with the epoch it sighted them at; the chain's
first block of that epoch or later to confirm makes the detection final
ledger knowledge. Carriers are keyed by (chain, epoch), drawn from the
honest slots of `injection_window` in time order; config validation reads
the window too, so every accepted plan fits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np


class InjectionError(Exception):
    """Invalid injection plan."""


@dataclass(frozen=True)
class InjectionPlan:
    """Which honest slots carry which transaction ids."""

    carriers: Mapping[tuple[int, int], str]     # (chain, epoch) -> txn id
    pair_ids: tuple[str, ...]
    regular_ids: tuple[str, ...]


#: the plan of a run that injects nothing
NO_INJECTIONS = InjectionPlan(carriers=MappingProxyType({}), pair_ids=(),
                              regular_ids=())

#: share of the honest slots, from and to, that carriers are drawn from
INJECTION_WINDOW = (0.1, 0.5)


def injection_window(honest_slots: int) -> range:
    """Indices of the honest slots that carriers are drawn from."""
    lo = int(INJECTION_WINDOW[0] * honest_slots)
    return range(lo, max(lo, int(INJECTION_WINDOW[1] * honest_slots)))


def plan_injections(honest_slots: Mapping[int, Sequence[float]], pairs: int,
                    regular: int, rng: np.random.Generator) -> InjectionPlan:
    """Choose carrier slots for conflicting pairs and regular tagged blocks.

    `honest_slots` maps each honest chain to its slot times; the chain's
    n-th slot is its epoch n. Carriers are drawn from `INJECTION_WINDOW` of
    the honest slots in time order, so detections can complete before the
    run ends; the two slots of a pair land on different chains whenever
    possible. The engine calls it only for a run with carriers, so a run
    without builds no generator; its plan is `NO_INJECTIONS`.
    """
    need = 2 * pairs + regular
    # the (chain, epoch) of every honest slot, in time order
    order = [slot for _, slot in sorted(
        (t, (chain, epoch)) for chain, times in honest_slots.items()
        for epoch, t in enumerate(times, 1))]
    eligible = injection_window(len(order))
    if need > len(eligible):
        raise InjectionError(f"{need} carrier slots needed but only "
                             f"{len(eligible)} fall in the injection window")
    picked = sorted(int(i) for i in rng.choice(np.asarray(eligible),
                                               size=need, replace=False))
    carriers: dict[tuple[int, int], str] = {}
    pair_ids = []
    pool = [order[i] for i in picked]
    for p in range(pairs):
        first = pool.pop(0)
        # prefer a partner on a different chain
        partner_pos = next((i for i, s in enumerate(pool)
                            if s[0] != first[0]), 0)
        second = pool.pop(partner_pos)
        tid = f"pair-{p:03d}"
        pair_ids.append(tid)
        carriers[first] = tid
        carriers[second] = tid
    regular_ids = []
    for r, slot in enumerate(pool):
        tid = f"tx-{r:03d}"
        regular_ids.append(tid)
        carriers[slot] = tid
    return InjectionPlan(carriers=carriers, pair_ids=tuple(pair_ids),
                         regular_ids=tuple(regular_ids))


@dataclass
class ConflictTracker:
    """First-seen conflict registry shared by every honest validator; it
    keeps only what detection reads."""

    seen: set[str] = field(default_factory=set)     # txn ids attached
    candidates: dict[str, str] = field(default_factory=dict)   # block -> txn
    second_attach: dict[str, float] = field(default_factory=dict)
    #: chain -> (epoch, txn id) of each candidate it sighted and no block of
    #: that epoch or later has confirmed, in epoch order
    sightings: dict[int, list[tuple[int, str]]] = field(default_factory=dict)
    detections: dict[str, float] = field(default_factory=dict)  # txn -> time

    def register_attach(self, block_id: str, txn: str, time_s: float) -> None:
        """Record a block's transaction id; a repeat makes it a candidate."""
        if txn in self.seen:
            self.candidates[block_id] = txn
            self.second_attach.setdefault(txn, time_s)
        else:
            self.seen.add(txn)

    def inspect_tip(self, chain: int, epoch: int, block_id: str) -> bool:
        """Note a conflict candidate that `chain` sighted among its tips at
        `epoch`, its latest; True if the tip is conflicting."""
        txn = self.candidates.get(block_id)
        if txn is not None:
            self.sightings.setdefault(chain, []).append((epoch, txn))
        return txn is not None

    def on_confirm(self, chain: int, epoch: int, time_s: float) -> None:
        """The chain's block of `epoch` confirmed: what the chain sighted by
        that epoch is now final; an earlier detection stands."""
        sighted = self.sightings.get(chain)
        while sighted and sighted[0][0] <= epoch:
            self.detections.setdefault(sighted.pop(0)[1], time_s)

    def score(self, pair_ids: Sequence[str], regular_ids: Sequence[str]
              ) -> dict[str, float]:
        pairs = len(pair_ids)
        detected = [tid for tid in pair_ids if tid in self.detections]
        delays = [self.detections[t] - self.second_attach[t]
                  for t in detected]
        # no false alarm: a regular id's one carrier is never a candidate
        out = {
            "pairs": float(pairs),
            "regular": float(len(regular_ids)),
            "detected": float(len(detected)),
            "p_detect": (len(detected) / pairs) if pairs else 1.0,
            "false_alarms": 0.0,
            "p_false_alarm": 0.0,
        }
        if delays:
            out["mean_delay_s"] = float(np.mean(delays))
            out["max_delay_s"] = float(np.max(delays))
        return out
