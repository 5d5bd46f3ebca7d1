"""Straggler-tolerant coded distribution of balance matrices.

A fleet of n workers is split into power-of-two groups (binary decomposition
of n, largest group first). Each group codes its slice of the account matrix:
the slice rows are packed into the group's non-frozen block positions, zero
blocks sit at the frozen positions (the designated likely stragglers), and an
unnormalized Sylvester-Hadamard butterfly mixes the blocks. Every worker holds
one coded row block; updates are linear, so workers fold per-epoch coded
deltas into their stored totals without seeing plaintext rows.

Decoding works from any subset of returned blocks that pins down the data:
a peeling pass over the butterfly resolves each 2x2 cell once two of its four
wires are known, using exact integer halving (a failed halving means a
corrupted shard, never a wrong answer). Peeling alone is sound but not
complete -- some solvable loss patterns spread their information across cells
so that no single cell ever holds two known wires -- so both `decodable` and
`decode` finish stalled cases with an exact fraction-free (Bareiss) integer
elimination over the residual +-1 system. The verdict of `decodable` therefore
always equals the solvability of that system over the rationals, and `decode`
either returns the exact data or raises; it never returns a wrong slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np


class CodingError(Exception):
    """Structural error in the coding layer."""


class NotDecodableError(CodingError):
    """Received block set does not determine the data."""


class ShardCorruptionError(CodingError):
    """Returned blocks are inconsistent with any valid data assignment."""


def _round_half_up(x: Fraction) -> int:
    # Deterministic tie handling: .5 rounds up.
    return math.floor(x + Fraction(1, 2))


# ---------------------------------------------------------------------------
# Fleet profile and group planning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StragglerProfile:
    """Per-worker straggling likelihoods plus the design straggler rate."""

    probabilities: tuple[float, ...]
    fraction: float

    def __post_init__(self):
        if not self.probabilities:
            raise CodingError("profile needs at least one worker")
        if any(p < 0 or p > 1 for p in self.probabilities):
            raise CodingError("straggler probabilities must lie in [0, 1]")
        if not 0 <= self.fraction <= 1:
            raise CodingError("straggler fraction must lie in [0, 1]")

    @classmethod
    def from_probabilities(cls, probabilities: Sequence[float],
                           fraction: float | None = None) -> "StragglerProfile":
        probs = tuple(float(p) for p in probabilities)
        if fraction is None:
            fraction = sum(probs) / len(probs)
        return cls(probabilities=probs, fraction=float(fraction))

    def straggler_count(self, size: int | None = None) -> int:
        size = len(self.probabilities) if size is None else size
        return _round_half_up(Fraction(str(self.fraction)) * size)

    def straggler_set(self) -> tuple[int, ...]:
        """Fleet-wide designated stragglers: highest p first, ties by low index."""
        order = sorted(range(len(self.probabilities)),
                       key=lambda i: (-self.probabilities[i], i))
        return tuple(sorted(order[:self.straggler_count()]))


@dataclass(frozen=True)
class GroupSpec:
    """One power-of-two worker group and its slice of the account rows."""

    index: int
    size: int                      # n_k, power of two
    members: tuple[int, ...]       # global worker ids, one per block position
    rows: int                      # row count of this group's matrix slice
    row_start: int                 # offset of the slice in the full matrix
    frozen: tuple[int, ...]        # block positions carrying zero blocks

    @property
    def data_positions(self) -> tuple[int, ...]:
        fro = set(self.frozen)
        return tuple(p for p in range(self.size) if p not in fro)

    @property
    def rows_per_block(self) -> int:
        k = self.size - len(self.frozen)
        if k == 0:
            raise CodingError(f"group {self.index} has no data positions")
        return -(-self.rows // k) if self.rows else 0


@dataclass(frozen=True)
class GroupPlan:
    """Full fleet layout: group sizes, row apportionment, frozen positions."""

    workers: int
    total_rows: int
    groups: tuple[GroupSpec, ...]


def binary_group_sizes(n: int) -> tuple[int, ...]:
    """Powers of two summing to n, largest first (100 -> 64, 32, 4)."""
    if n < 1:
        raise CodingError("worker count must be positive")
    sizes = []
    bit = 1 << (n.bit_length() - 1)
    remaining = n
    while remaining:
        if bit <= remaining:
            sizes.append(bit)
            remaining -= bit
        bit >>= 1
    return tuple(sizes)


def _apportion_rows(total: int, sizes: Sequence[int], n: int) -> list[int]:
    # Largest-remainder split of `total` rows proportional to group sizes.
    shares = [Fraction(total * s, n) for s in sizes]
    rows = [int(sh) for sh in shares]
    remainders = [sh - r for sh, r in zip(shares, rows)]
    short = total - sum(rows)
    order = sorted(range(len(sizes)), key=lambda i: (-remainders[i], i))
    for i in order[:short]:
        rows[i] += 1
    return rows


def _group_frozen_positions(probs: Sequence[float], count: int) -> list[int]:
    order = sorted(range(len(probs)), key=lambda i: (-probs[i], i))
    return sorted(order[:count])


def _repair_frozen(size: int, probs: Sequence[float],
                   candidate: Sequence[int]) -> tuple[int, ...]:
    """Adjust a frozen set until losing exactly that set is decodable.

    Some highest-probability sets make the surviving +-1 submatrix singular
    (e.g. positions {1, 2} of a 4-group); the code must be planned around a
    set it can actually absorb. Candidates are tried in decreasing total
    probability: the original set, then single swaps, then pair swaps, then a
    leading-positions fallback that is always absorbable.
    """
    cand = tuple(sorted(candidate))
    s = len(cand)
    if s == 0:
        return cand

    def self_decodable(frozen: Sequence[int]) -> bool:
        fro = set(frozen)
        received = [p for p in range(size) if p not in fro]
        return _peel_flags(size, frozen, received) or _rank_full(size, frozen, received)

    if self_decodable(cand):
        return cand
    inside = set(cand)
    outside = [p for p in range(size) if p not in inside]
    swaps = sorted(((probs[o] - probs[i], i, o) for i in cand for o in outside),
                   key=lambda t: (-t[0], t[1], t[2]))
    for _, i, o in swaps:
        trial = tuple(sorted(inside - {i} | {o}))
        if self_decodable(trial):
            return trial
    for (i1, i2), (o1, o2) in ((pi, po)
                               for pi in combinations(cand, 2)
                               for po in combinations(outside, 2)):
        trial = tuple(sorted(inside - {i1, i2} | {o1, o2}))
        if self_decodable(trial):
            return trial
    fallback = tuple(range(s))
    if not self_decodable(fallback):
        raise CodingError(f"no absorbable straggler set of size {s} in group of {size}")
    return fallback


def plan_groups(n: int, total_rows: int, profile: StragglerProfile) -> GroupPlan:
    """Lay out groups, row slices, and per-group frozen positions for a fleet."""
    if len(profile.probabilities) != n:
        raise CodingError(f"profile covers {len(profile.probabilities)} workers, fleet has {n}")
    sizes = binary_group_sizes(n)
    rows = _apportion_rows(total_rows, sizes, n)
    groups = []
    start = 0
    row_start = 0
    frac = Fraction(str(profile.fraction))
    for gi, (size, r) in enumerate(zip(sizes, rows)):
        members = tuple(range(start, start + size))
        probs = profile.probabilities[start:start + size]
        s = _round_half_up(frac * size)
        if s >= size:
            raise CodingError(f"group of {size} cannot freeze {s} positions")
        frozen = _repair_frozen(size, probs, _group_frozen_positions(probs, s))
        groups.append(GroupSpec(index=gi, size=size, members=members,
                                rows=r, row_start=row_start, frozen=frozen))
        start += size
        row_start += r
    return GroupPlan(workers=n, total_rows=total_rows, groups=tuple(groups))


# ---------------------------------------------------------------------------
# Expansion and butterfly transform
# ---------------------------------------------------------------------------

def expand(matrix: np.ndarray, group: GroupSpec) -> np.ndarray:
    """Pack a slice into block positions: data at non-frozen slots, zeros at frozen.

    Returns an (n_k, r, cols) int64 array; input rows are zero-padded up to a
    multiple of the data-position count.
    """
    matrix = np.asarray(matrix, dtype=np.int64)
    if matrix.ndim != 2 or matrix.shape[0] != group.rows:
        raise CodingError(f"expected {group.rows} rows for group {group.index}, "
                          f"got shape {matrix.shape}")
    r = group.rows_per_block
    cols = matrix.shape[1]
    blocks = np.zeros((group.size, r, cols), dtype=np.int64)
    data = group.data_positions
    if r:
        padded = np.zeros((len(data) * r, cols), dtype=np.int64)
        padded[:group.rows] = matrix
        for bi, pos in enumerate(data):
            blocks[pos] = padded[bi * r:(bi + 1) * r]
    return blocks


def hadamard(blocks: np.ndarray) -> np.ndarray:
    """Unnormalized Sylvester-Hadamard butterfly over the leading block axis."""
    blocks = np.array(blocks, dtype=np.int64)
    n = blocks.shape[0]
    if n & (n - 1) or n == 0:
        raise CodingError(f"block count {n} is not a power of two")
    h = 1
    while h < n:
        for i in range(n):
            if not i & h:
                a = blocks[i].copy()
                b = blocks[i | h]
                blocks[i] = a + b
                blocks[i | h] = a - b
        h <<= 1
    return blocks


# ---------------------------------------------------------------------------
# Peeling over the butterfly
# ---------------------------------------------------------------------------

def _cell_resolve(w):
    """Fill a butterfly cell (a, b) -> (a+b, a-b) once two wires are known.

    w = [a, b, c, d] with None for unknown; returns resolved list or None.
    Halving is exact: odd sums mean corrupted inputs.
    """
    a, b, c, d = w
    for _ in range(2):
        if a is not None and b is not None:
            c2, d2 = a + b, a - b
            if c is None:
                c = c2
            if d is None:
                d = d2
        if c is not None and d is not None and (a is None or b is None):
            top, bot = c + d, c - d
            if np.any(top & 1) or np.any(bot & 1):
                raise ShardCorruptionError("odd butterfly sum: corrupted shard")
            a = top >> 1 if a is None else a
            b = bot >> 1 if b is None else b
        if a is not None and c is not None and b is None:
            b = c - a
        if a is not None and d is not None and b is None:
            b = a - d
        if b is not None and c is not None and a is None:
            a = c - b
        if b is not None and d is not None and a is None:
            a = b + d
    return [a, b, c, d]


def _levels(n: int) -> int:
    return n.bit_length() - 1


def _peel_flags(n: int, frozen: Iterable[int], received: Iterable[int]) -> bool:
    """Presence-only peeling: can the data wires be pinned down at all?"""
    levels = _levels(n)
    known = [[False] * n for _ in range(levels + 1)]
    for p in frozen:
        known[0][p] = True
    for p in received:
        known[levels][p] = True
    changed = True
    while changed:
        changed = False
        for lv in range(levels):
            h = 1 << lv
            row_in, row_out = known[lv], known[lv + 1]
            for i in range(n):
                if i & h:
                    continue
                j = i | h
                cnt = row_in[i] + row_in[j] + row_out[i] + row_out[j]
                if 2 <= cnt < 4:
                    row_in[i] = row_in[j] = row_out[i] = row_out[j] = True
                    changed = True
    return all(known[0])


def _h_sign(row: int, col: int) -> int:
    # Entry of the unnormalized Sylvester-Hadamard matrix: (-1)^popcount(row & col).
    return -1 if (row & col).bit_count() & 1 else 1


def _bareiss(rows: list[list[int]], ncols: int, jordan: bool = False) -> int:
    """Fraction-free elimination of the leading `ncols` columns, in place.

    Each step maps row_i to (pivot * row_i - row_i[c] * pivot_row) // prev,
    a division that is always exact (Bareiss, 1968): every entry stays a minor
    of the row-permuted input. Forward mode clears below each pivot; `jordan`
    clears above as well, leaving det * I in the leading block, so the tail
    columns of row t hold det times the row combination that isolates unknown
    t. Returns det, the last pivot, or 0 when some column has no pivot (rank
    below `ncols`).
    """
    prev = 1
    for c in range(ncols):
        piv = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if piv is None:
            return 0
        rows[c], rows[piv] = rows[piv], rows[c]
        p = rows[c]
        pc = p[c]
        for i in range(0 if jordan else c + 1, len(rows)):
            if i != c:
                f = rows[i][c]
                rows[i] = [(pc * a - f * b) // prev for a, b in zip(rows[i], p)]
        prev = pc
    return prev


def _rank_full(n: int, frozen: Iterable[int], received: Iterable[int]) -> bool:
    """Exact test: do the received output rows span all non-frozen inputs?"""
    fro = set(frozen)
    data = [p for p in range(n) if p not in fro]
    rec = sorted(set(received))
    return (len(rec) >= len(data)
            and _bareiss([[_h_sign(r, c) for c in data] for r in rec], len(data)) != 0)


def _solve_blocks(n: int, frozen: Iterable[int],
                  received: Mapping[int, np.ndarray],
                  block_shape: tuple[int, int]) -> list[np.ndarray]:
    """Exact elimination fallback: recover all data blocks from received outputs.

    Gauss-Jordan reduces [sign-matrix | I] over the integers, which gives each
    data block as an integer combination of the received blocks divided by
    det; the division must come out even. Returns the full list of level-0
    blocks (zeros at frozen positions). Used when peeling stalls on a
    still-solvable loss pattern.
    """
    frozen = set(frozen)
    data = [p for p in range(n) if p not in frozen]
    rec = sorted(received)
    m, k = len(rec), len(data)
    aug = [[_h_sign(r, c) for c in data] + [int(t == i) for t in range(m)]
           for i, r in enumerate(rec)]
    det = _bareiss(aug, k, jordan=True)
    if not det:
        raise NotDecodableError("received blocks do not determine the data")
    recs = [np.asarray(received[p], dtype=np.int64).astype(object) for p in rec]
    zero = np.zeros(block_shape, dtype=np.int64)
    out: list[np.ndarray] = [zero] * n
    for t, pos in enumerate(data):
        acc = np.zeros(block_shape, dtype=object)
        for coef, blk in zip(aug[t][k:], recs):
            if coef:
                acc = acc + coef * blk
        if (acc % det != 0).any():
            raise ShardCorruptionError("non-integer block solve: corrupted shard")
        acc = acc // det
        if acc.size and int(np.abs(acc).max()) >= 2 ** 63:
            raise CodingError("decoded block overflows 64-bit range")
        out[pos] = acc.astype(np.int64)
    return out


def decodable(received: Iterable[int], group: GroupSpec) -> bool:
    """True when the received block positions determine every data block."""
    rec = set(received)
    if not rec <= set(range(group.size)):
        raise CodingError("received positions out of range")
    return (_peel_flags(group.size, group.frozen, rec)
            or _rank_full(group.size, group.frozen, rec))


def _peel_values(n: int, frozen: Iterable[int],
                 received: Mapping[int, np.ndarray],
                 block_shape: tuple[int, int]) -> list[np.ndarray] | None:
    """Peel the butterfly on values; None when peeling stalls short of level 0."""
    levels = _levels(n)
    zero = np.zeros(block_shape, dtype=np.int64)
    wires: list[list[np.ndarray | None]] = [[None] * n for _ in range(levels + 1)]
    for p in frozen:
        wires[0][p] = zero
    for p, v in received.items():
        v = np.asarray(v, dtype=np.int64)
        if v.shape != block_shape:
            raise CodingError(f"block at position {p} has shape {v.shape}, "
                              f"expected {block_shape}")
        wires[levels][p] = v
    changed = True
    while changed:
        changed = False
        for lv in range(levels):
            h = 1 << lv
            row_in, row_out = wires[lv], wires[lv + 1]
            for i in range(n):
                if i & h:
                    continue
                j = i | h
                w = [row_in[i], row_in[j], row_out[i], row_out[j]]
                cnt = sum(x is not None for x in w)
                if 2 <= cnt < 4:
                    w = _cell_resolve(w)
                    row_in[i], row_in[j], row_out[i], row_out[j] = w
                    changed = True
    if any(v is None for v in wires[0]):
        return None
    return [v for v in wires[0]]  # type: ignore[misc]


def decode(received: Mapping[int, np.ndarray], group: GroupSpec) -> np.ndarray:
    """Reconstruct the group's data slice from returned coded blocks.

    Peels the butterfly first; if peeling stalls, falls back to the exact
    elimination solve, so every position set accepted by `decodable` decodes.
    Raises NotDecodableError when the positions are insufficient and
    ShardCorruptionError when the values are inconsistent with every valid
    data assignment; never returns a wrong slice.
    """
    r = group.rows_per_block
    cols = None
    for v in received.values():
        cols = np.asarray(v).shape[-1]
        break
    if cols is None:
        if group.rows == 0:
            return np.zeros((0, 0), dtype=np.int64)
        raise NotDecodableError("no blocks received")
    if group.rows == 0:
        return np.zeros((0, cols), dtype=np.int64)
    x = _peel_values(group.size, group.frozen, received, (r, cols))
    if x is None:
        x = _solve_blocks(group.size, group.frozen, received, (r, cols))
    # Cross-check: re-encode and compare against everything that was received.
    forward = hadamard(np.stack(x))
    for p, v in received.items():
        if not np.array_equal(forward[p], np.asarray(v, dtype=np.int64)):
            raise ShardCorruptionError(f"block at position {p} inconsistent with decode")
    data = np.concatenate([x[p] for p in group.data_positions], axis=0)
    if (data[group.rows:] != 0).any():
        raise ShardCorruptionError("nonzero padding rows after decode")
    return data[:group.rows]


# ---------------------------------------------------------------------------
# Epoch encoding and worker-side state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CodedTask:
    """Per-epoch coded update for one worker: three r x M blocks."""

    group: int
    position: int
    inflow: np.ndarray
    outflow: np.ndarray
    delta_proposed: np.ndarray


@dataclass(frozen=True)
class WorkerShardState:
    """Coded running totals one worker stores for a chain."""

    group: int
    position: int
    w_in: np.ndarray
    w_out: np.ndarray


def encode_epoch(inflow: np.ndarray, outflow_confirmed: np.ndarray,
                 delta_proposed: np.ndarray, plan: GroupPlan
                 ) -> dict[tuple[int, int], CodedTask]:
    """Code the three epoch matrices; frozen positions receive nothing."""
    mats = [np.asarray(m, dtype=np.int64)
            for m in (inflow, outflow_confirmed, delta_proposed)]
    rows = mats[0].shape[0]
    if any(m.shape[0] != rows for m in mats):
        raise CodingError("epoch matrices must share row count")
    if rows != plan.total_rows:
        raise CodingError(f"plan covers {plan.total_rows} rows, matrices have {rows}")
    tasks: dict[tuple[int, int], CodedTask] = {}
    for g in plan.groups:
        sl = slice(g.row_start, g.row_start + g.rows)
        coded = [hadamard(expand(m[sl], g)) for m in mats]
        for pos in g.data_positions:
            tasks[(g.index, pos)] = CodedTask(
                group=g.index, position=pos,
                inflow=coded[0][pos], outflow=coded[1][pos],
                delta_proposed=coded[2][pos])
    return tasks


def worker_update(state: WorkerShardState, task: CodedTask) -> WorkerShardState:
    """Linear fold of a coded epoch update into stored totals."""
    if (state.group, state.position) != (task.group, task.position):
        raise CodingError("task addressed to a different block position")
    return WorkerShardState(group=state.group, position=state.position,
                            w_in=state.w_in + task.inflow,
                            w_out=state.w_out + task.outflow + task.delta_proposed)


class CodedLedgerImage:
    """Fleet-side coded mirror of one chain's cumulative in/out matrices.

    Tracks exactly what each non-frozen worker would store; decoding from the
    designated-survivor subset must reproduce the central totals bit for bit.
    """

    def __init__(self, plan: GroupPlan, cols: int):
        self.plan = plan
        self.cols = cols
        self.stores: dict[tuple[int, int], WorkerShardState] = {}
        for g in plan.groups:
            shape = (g.rows_per_block, cols)
            for pos in g.data_positions:
                self.stores[(g.index, pos)] = WorkerShardState(
                    group=g.index, position=pos,
                    w_in=np.zeros(shape, dtype=np.int64),
                    w_out=np.zeros(shape, dtype=np.int64))

    def apply_epoch(self, inflow, outflow_confirmed, delta_proposed,
                    responders: set[tuple[int, int]] | None = None) -> None:
        tasks = encode_epoch(inflow, outflow_confirmed, delta_proposed, self.plan)
        for key, task in tasks.items():
            if responders is not None and key not in responders:
                continue
            self.stores[key] = worker_update(self.stores[key], task)

    def decode_totals(self, received: Iterable[tuple[int, int]] | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Reassemble (w_in, w_out) from worker stores at `received` positions."""
        keys = set(self.stores if received is None else received)
        w_in = np.zeros((self.plan.total_rows, self.cols), dtype=np.int64)
        w_out = np.zeros((self.plan.total_rows, self.cols), dtype=np.int64)
        for g in self.plan.groups:
            rec_in = {pos: self.stores[(g.index, pos)].w_in
                      for gi, pos in keys if gi == g.index}
            rec_out = {pos: self.stores[(g.index, pos)].w_out
                       for gi, pos in keys if gi == g.index}
            sl = slice(g.row_start, g.row_start + g.rows)
            w_in[sl] = decode(rec_in, g)
            w_out[sl] = decode(rec_out, g)
        return w_in, w_out
