"""Shared inter-chain block ledger: a parent-approval DAG with stake weights.

Every block enters as a tip, turns unconfirmed once some later block names it
as a parent, and confirms when the combined stake of the distinct chains in
its approver closure -- the proposing chains of all blocks from which it is
reachable along parent edges, plus its own -- meets the confirmation
threshold. Each chain's stake counts once no matter how many of its blocks
approve, so no chain can push its own blocks over the threshold by itself.

Approver stake is maintained incrementally: each block carries a bitmask of
contributing chains and their summed stake numerator, over one common
denominator. A new block's chain is pushed to its ancestors on attach, pruned
where already present (a chain present on a block is always present on all of
that block's ancestors), and its stake added where its bit is set; genesis
carries every chain from the start, so no push passes it. Only blocks whose
mask grew since the last pass can newly confirm, so only those are checked.
Reachability walks are reserved for test oracles.

The eligible tips, those not excluded, are kept as a sorted list updated on
attach, approval, confirmation and exclusion; selection never rescans tips.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .balances import Transfers
from .coding import written_ratio

TIP = "tip"
UNCONFIRMED = "unconfirmed"
CONFIRMED = "confirmed"

GENESIS_ID = "genesis"


class DagError(Exception):
    """Structural error in the block ledger."""


@dataclass(frozen=True)
class ChainWeights:
    """Positive per-chain stake weights, normalized to sum to one."""

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.weights:
            raise DagError("at least one chain weight required")
        if not all(isinstance(w, (int, Fraction)) for w in self.weights):
            raise DagError("chain weights must be ints or Fractions; "
                           "ChainWeights.from_values takes other numbers")
        # checked as integer numerators over the common denominator
        denom = math.lcm(*(w.denominator for w in self.weights))
        nums = [w.numerator * (denom // w.denominator) for w in self.weights]
        if min(nums) <= 0:
            raise DagError("chain weights must be positive")
        if sum(nums) != denom:
            raise DagError("chain weights must sum to exactly 1")

    @classmethod
    def equal(cls, n: int) -> "ChainWeights":
        return cls(tuple(Fraction(1, n) for _ in range(n)))

    @classmethod
    def from_values(cls, values: Sequence) -> "ChainWeights":
        fracs = [Fraction(*written_ratio(v, DagError)) for v in values]
        total = sum(fracs)
        if total <= 0:
            raise DagError("chain weights must have a positive total")
        return cls(tuple(f / total for f in fracs))

    def __getitem__(self, chain: int) -> Fraction:
        return self.weights[chain]


@dataclass(slots=True)
class DagBlock:
    """One ledger block and its bookkeeping.

    `chains` is the bitmask of chains contributing stake to this block:
    its own proposer plus the proposers of everything in its future cone.
    `stake` is their summed stake numerator. `payload` is None on genesis,
    on every block a ledger window has ingested and on every tip the engine
    excluded as invalid or conflicting.
    """

    proposer: int | None
    epoch: int
    parents: tuple[str, ...]
    payload: Transfers | None
    attach_time: float
    status: str = TIP
    chains: int = 0
    stake: int = 0
    depth: int = 0


class DagLedger:
    """Single-writer DAG rooted at a synthetic confirmed genesis block."""

    def __init__(self, weights: ChainWeights, eta):
        self.weights = weights
        eta_num, eta_den = written_ratio(eta, DagError)
        if not 0 < eta_num <= eta_den:
            raise DagError("confirmation threshold must lie in (0, 1]")
        # stakes and threshold as integer numerators over one denominator
        self._denom = denom = math.lcm(
            eta_den, *(w.denominator for w in weights.weights))
        self._stakes = [w.numerator * (denom // w.denominator)
                        for w in weights.weights]
        self._threshold = eta_num * (denom // eta_den)
        genesis = DagBlock(proposer=None, epoch=0, parents=(), payload=None,
                           attach_time=0.0, status=CONFIRMED,
                           chains=(1 << len(self._stakes)) - 1, stake=denom)
        # keyed by id, in attach order, which the snapshot follows
        self.blocks: dict[str, DagBlock] = {GENESIS_ID: genesis}
        self.tips: set[str] = set()
        self._eligible: list[str] = []  # sorted tips not excluded
        self._grown: set[str] = set()   # mask grew since the last pass
        self._deepest = GENESIS_ID      # deepest confirmed block, ties to low id

    # -- attachment --------------------------------------------------------

    def attach(self, block_id: str, proposer: int, epoch: int,
               parents: Iterable[str], payload: Transfers | None = None,
               time: float = 0.0) -> DagBlock:
        """Add a block approving `parents`; errors leave the ledger unchanged."""
        if block_id in self.blocks:
            raise DagError(f"duplicate block id {block_id!r}")
        # an int only: `1 << proposer` fails unnamed on a numpy int or float
        if type(proposer) is not int or not 0 <= proposer < len(self._stakes):
            raise DagError(f"proposer {proposer!r} is no chain index in "
                           f"[0, {len(self._stakes)})")
        bit, stake = 1 << proposer, self._stakes[proposer]
        parent_ids = tuple(sorted(set(parents)))
        if not parent_ids:
            raise DagError("a block must approve at least one parent")
        approved = []
        depth = 0
        for p in parent_ids:
            parent = self.blocks.get(p)
            if parent is None:
                raise DagError(f"unknown parent {p!r}")
            approved.append(parent)
            if parent.depth > depth:
                depth = parent.depth
        block = DagBlock(proposer=proposer, epoch=epoch,
                         parents=parent_ids, payload=payload, attach_time=time,
                         chains=bit, stake=stake, depth=depth + 1)
        self.blocks[block_id] = block
        self.tips.add(block_id)
        insort(self._eligible, block_id)
        for p, parent in zip(parent_ids, approved):
            if parent.status == TIP:
                parent.status = UNCONFIRMED
                self.tips.discard(p)
                self.exclude(p)
        # push the proposer's chain and stake to the block's ancestors
        self._grown.add(block_id)
        stack = list(parent_ids)
        while stack:
            bid = stack.pop()
            b = self.blocks[bid]
            if b.chains & bit:
                continue            # ancestors already carry this chain
            b.chains |= bit
            b.stake += stake
            self._grown.add(bid)
            stack.extend(b.parents)
        return block

    # -- weight and confirmation ------------------------------------------

    def aggregated_weight(self, block_id: str) -> Fraction:
        """Stake share backing a block, deduplicated per chain, in (0, 1]."""
        block = self.blocks.get(block_id)
        if block is None:
            raise DagError(f"unknown block {block_id!r}")
        return Fraction(block.stake, self._denom)

    def update_confirmations(self, now: float = 0.0) -> set[str]:
        """Flip every pending block whose aggregated weight meets the threshold.

        Only blocks whose mask grew since the last call can newly confirm.
        `now` is unread: the engine records finality. Criterion 3 passes it.
        """
        newly: set[str] = set()
        deepest_id = self._deepest
        deepest = self.blocks[deepest_id]
        for bid in self._grown:
            block = self.blocks[bid]
            if block.status != CONFIRMED and block.stake >= self._threshold:
                block.status = CONFIRMED
                self.tips.discard(bid)
                self.exclude(bid)
                newly.add(bid)
                if (-block.depth, bid) < (-deepest.depth, deepest_id):
                    deepest_id, deepest = bid, block
        self._grown.clear()
        self._deepest = deepest_id
        return newly

    # -- parent selection --------------------------------------------------

    def deepest_confirmed(self) -> str:
        """Fallback attachment target: deepest confirmed block, ties to low id."""
        return self._deepest

    def exclude(self, block_id: str) -> None:
        """Never offer `block_id` as a tip again, e.g. once sighted invalid."""
        eligible = self._eligible
        i = bisect_left(eligible, block_id)
        if i < len(eligible) and eligible[i] == block_id:
            del eligible[i]

    def select_tips(self, k: int, rng: random.Random) -> list[str]:
        """Uniform sample of min(k, #tips) tips not excluded; [] when none is."""
        if k < 1:
            raise DagError("parent count must be at least 1")
        pool = self._eligible
        return sorted(rng.sample(pool, min(k, len(pool))))

    # -- accounting views --------------------------------------------------

    def snapshot_lines(self) -> Iterator[str]:
        """One line per block in attach order: id, chain, epoch, parents, status, weight."""
        for bid, b in self.blocks.items():
            aw = self.aggregated_weight(bid)
            proposer = "-" if b.proposer is None else str(b.proposer)
            parents = ",".join(b.parents) if b.parents else "-"
            yield (f"{bid} {proposer} {b.epoch} {parents} "
                   f"{b.status} {aw.numerator}/{aw.denominator}")

