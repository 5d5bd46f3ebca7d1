"""Conflicting-spend injection, first-seen detection, and scoring.

A conflicting pair is two blocks carrying the same transaction id. The
earlier-attached block passes; the later one is a conflict candidate. The
first honest chain whose tip batch sights a candidate labels it, excluding it
from every later parent set. The sighting chain then carries the observation
on each of its follow-up proposals until one of them confirms, which is when
the detection becomes final ledger knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np


class InjectionError(Exception):
    """Invalid injection plan."""


@dataclass(frozen=True)
class InjectionPlan:
    """Which issuance slots carry which transaction ids."""

    carriers: Mapping[int, str]     # honest-slot index -> transaction id
    pair_ids: tuple[str, ...]
    regular_ids: tuple[str, ...]


#: share of the honest slots, from and to, that carriers are drawn from
INJECTION_WINDOW = (0.1, 0.5)


def plan_injections(slot_chains: Sequence[int], pairs: int, regular: int,
                    rng: np.random.Generator) -> InjectionPlan:
    """Choose carrier slots for conflicting pairs and regular tagged blocks.

    `slot_chains` lists the proposing chain of each honest issuance slot in
    time order. Carriers are drawn from `INJECTION_WINDOW` of the run so
    detections can complete before it ends; the two slots of a pair land on
    different chains whenever possible.
    """
    total = len(slot_chains)
    need = 2 * pairs + regular
    lo = int(INJECTION_WINDOW[0] * total)
    hi = max(lo, int(INJECTION_WINDOW[1] * total))
    eligible = list(range(lo, hi))
    if need > len(eligible):
        raise InjectionError(f"{need} carrier slots needed but only "
                             f"{len(eligible)} fall in the injection window")
    picked = sorted(int(i) for i in rng.choice(np.asarray(eligible),
                                               size=need, replace=False))
    carriers: dict[int, str] = {}
    pair_ids = []
    pool = list(picked)
    for p in range(pairs):
        first = pool.pop(0)
        # prefer a partner on a different chain
        partner_pos = next((i for i, s in enumerate(pool)
                            if slot_chains[s] != slot_chains[first]), 0)
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
    """First-seen conflict registry shared by every honest validator."""

    first_carrier: dict[str, str] = field(default_factory=dict)
    candidates: dict[str, str] = field(default_factory=dict)   # block -> txn
    second_attach: dict[str, tuple[str, float]] = field(default_factory=dict)
    labeled: dict[str, float] = field(default_factory=dict)    # block -> time
    _labeler_claims: dict[str, list[str]] = field(default_factory=dict)
    detections: dict[str, tuple[float, str]] = field(default_factory=dict)

    def register_attach(self, block_id: str, txn_ids: Sequence[str],
                        time_s: float) -> None:
        """Record a block's transaction ids; repeats become candidates."""
        for tid in txn_ids:
            owner = self.first_carrier.get(tid)
            if owner is None:
                self.first_carrier[tid] = block_id
            elif owner != block_id:
                self.candidates[block_id] = tid
                self.second_attach.setdefault(tid, (block_id, time_s))

    def inspect_tip(self, block_id: str, time_s: float) -> bool:
        """Label a sighted conflict candidate; True if the tip is conflicting."""
        if block_id in self.labeled:
            return True
        if block_id in self.candidates:
            self.labeled[block_id] = time_s
            return True
        return False

    def is_labeled(self, block_id: str) -> bool:
        return block_id in self.labeled

    def attribute(self, claimer_block: str, labeled_blocks: Sequence[str]
                  ) -> None:
        """Tie sighted, still-undetected conflicts to a chain's proposal.

        A chain may claim the same observation on successive proposals; the
        first claimer to confirm finalises the detection.
        """
        txns = [self.candidates[b] for b in labeled_blocks
                if b in self.candidates
                and self.candidates[b] not in self.detections]
        if txns:
            self._labeler_claims.setdefault(claimer_block, []).extend(txns)

    def unresolved(self, labeled_blocks: Sequence[str]) -> tuple[str, ...]:
        """Subset of labeled candidate blocks whose conflict is undetected."""
        return tuple(b for b in labeled_blocks
                     if self.candidates.get(b) not in self.detections)

    def on_confirm(self, block_id: str, time_s: float) -> None:
        """A claiming proposal confirmed: its observations are now final."""
        for tid in self._labeler_claims.pop(block_id, ()):
            self.detections.setdefault(tid, (time_s, block_id))

    def score(self, pair_ids: Sequence[str], regular_ids: Sequence[str]
              ) -> dict[str, float]:
        pairs = len(pair_ids)
        detected = [tid for tid in pair_ids if tid in self.detections]
        delays = []
        for tid in detected:
            confirm_time, _ = self.detections[tid]
            _, attach_time = self.second_attach[tid]
            delays.append(confirm_time - attach_time)
        regular_blocks = [self.first_carrier[tid] for tid in regular_ids
                          if tid in self.first_carrier]
        false_alarms = sum(1 for b in regular_blocks if b in self.labeled)
        out = {
            "pairs": float(pairs),
            "regular": float(len(regular_ids)),
            "detected": float(len(detected)),
            "p_detect": (len(detected) / pairs) if pairs else 1.0,
            "false_alarms": float(false_alarms),
            "p_false_alarm": (false_alarms / len(regular_ids))
            if regular_ids else 0.0,
        }
        if delays:
            out["mean_delay_s"] = float(np.mean(delays))
            out["max_delay_s"] = float(np.max(delays))
        return out
