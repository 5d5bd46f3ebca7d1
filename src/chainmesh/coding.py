"""Straggler-tolerant coded distribution of balance matrices.

A fleet of n workers is split into power-of-two groups (binary decomposition
of n, largest group first). Each group codes its slice of the account matrix:
the slice rows are packed into the group's non-frozen block positions, zero
blocks sit at the frozen positions F (the designated likely stragglers), and
an unnormalized Sylvester-Hadamard butterfly mixes the blocks, y = Hx. Every
worker holds one coded row block; updates are linear, so workers fold
per-epoch coded deltas into their stored totals without seeing plaintext rows.
`CodedLedgerImage` holds those stores as one array per group.

Because H^-1 = H/n, x_F = 0 means every valid codeword satisfies
H[F, :] y = 0. So the outputs y_L at the lost positions L (the complement of
the received set R) are pinned down exactly when the small frozen-by-lost
block H[F, L] has full column rank. That one |F| x |L| system,
eliminated fraction-free (Bareiss) over Python ints, gives the verdict of
`decodable`, the planner's check that losing exactly F is decodable (the
s x s minor H[F, F]), and the solve in `decode`: y_L from
H[F, L] y_L = -H[F, R] y_R, then x = H y / n through the same butterfly.
Every division is exact or the shards are corrupt, so `decode` either returns
the exact data or raises; it never returns a wrong slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from .balances import _sum_at


class CodingError(Exception):
    """Structural error in the coding layer."""


class NotDecodableError(CodingError):
    """Received block set does not determine the data."""


class ShardCorruptionError(CodingError):
    """Returned blocks are inconsistent with any valid data assignment."""


def written_ratio(value, error=CodingError) -> tuple[int, int]:
    """`value` as (numerator, denominator) in lowest terms, a float as written
    (0.35 is 7/20, not its binary value): `Fraction(str(value))` unparsed.
    A bool or anything not an int, Fraction or finite number raises `error`."""
    if isinstance(value, (int, Fraction)) and type(value) is not bool:
        return value.as_integer_ratio()
    if isinstance(value, (float, Decimal)) and Decimal(str(value)).is_finite():
        return Decimal(str(value)).as_integer_ratio()
    raise error(f"{value!r} is not an int, a Fraction or a finite number")


# ---------------------------------------------------------------------------
# Fleet profile and group planning
# ---------------------------------------------------------------------------

def straggler_count(size: int, rate: tuple[int, int]) -> int:
    """The `written_ratio` rate's share of `size`, .5 rounding up."""
    num, den = rate
    return (2 * num * size + den) // (2 * den)


@dataclass(frozen=True)
class StragglerProfile:
    """Per-worker straggling likelihoods plus the design straggler rate."""

    probabilities: tuple[float, ...]
    fraction: float

    def __post_init__(self):
        probs = self.probabilities
        if not probs:
            raise CodingError("profile needs at least one worker")
        if not all(isinstance(p, (int, float, Fraction)) and type(p) is not bool
                   for p in probs):
            raise CodingError("straggler probabilities must be numbers")
        # min and max may step over a NaN, which compares false both ways
        if not (0.0 <= min(probs) and max(probs) <= 1.0
                and not math.isnan(sum(probs))):
            raise CodingError("straggler probabilities must lie in [0, 1]")
        num, den = written_ratio(self.fraction)
        if not 0 <= num <= den:
            raise CodingError("straggler fraction must lie in [0, 1]")
        object.__setattr__(self, "_rate", (num, den))

    @classmethod
    def from_probabilities(cls, probabilities: Sequence[float],
                           fraction: float) -> "StragglerProfile":
        return cls(probabilities=tuple(map(float, probabilities)),
                   fraction=float(fraction))

    def straggler_set(self) -> tuple[int, ...]:
        """Fleet-wide designated stragglers: highest p first, ties by low index."""
        probs = self.probabilities
        return tuple(_group_frozen_positions(
            probs, straggler_count(len(probs), self._rate)))


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
        return block_rows(self.size, self.rows, len(self.frozen))


@dataclass(frozen=True)
class GroupPlan:
    """Full fleet layout: group sizes, row apportionment, frozen positions."""

    total_rows: int
    groups: tuple[GroupSpec, ...]


def binary_group_sizes(n: int) -> tuple[int, ...]:
    """Powers of two summing to n, largest first (100 -> 64, 32, 4)."""
    if n < 1:
        raise CodingError("worker count must be positive")
    return tuple(1 << b for b in reversed(range(n.bit_length())) if n >> b & 1)


def group_layout(n: int, total_rows: int,
                 rate: tuple[int, int]) -> list[tuple[int, int, int]]:
    """Each group's (size, rows, frozen count): the binary sizes of n, the
    largest-remainder split of the rows and each size's `straggler_count`.
    A count below the size always has an absorbable set, the leading
    positions at worst: in H_2m = [[H_m, H_m], [H_m, -H_m]] the Schur
    complement of H_m in the leading block L_{m+t}, 0 < t <= m, is -2 L_t,
    so det L_{m+t} = det H_m (-2)^t det L_t != 0 by induction from L_1 = 1."""
    sizes = binary_group_sizes(n)
    # every share has denominator n, so remainders compare as integers; a
    # stable sort keeps equal remainders in group order
    rows, remainders = zip(*(divmod(total_rows * s, n) for s in sizes))
    rows = list(rows)
    order = sorted(range(len(sizes)), key=remainders.__getitem__,
                   reverse=True)
    for i in order[:total_rows - sum(rows)]:
        rows[i] += 1
    return list(zip(sizes, rows, (straggler_count(s, rate) for s in sizes)))


def block_rows(size: int, rows: int, frozen: int) -> int:
    """Rows per coded block: `rows` over the data positions, rounded up."""
    if frozen >= size:
        raise CodingError(f"group of {size} cannot freeze {frozen} positions")
    return -(-rows // (size - frozen))


def _group_frozen_positions(probs: Sequence[float], count: int) -> list[int]:
    # highest probability first; the stable sort breaks ties to low index
    order = sorted(range(len(probs)), key=probs.__getitem__, reverse=True)
    return sorted(order[:count])


def _repair_frozen(size: int, probs: Sequence[float],
                   candidate: Sequence[int]) -> tuple[int, ...]:
    """Adjust a frozen set until losing exactly that set is decodable.

    Some highest-probability sets make the +-1 block H[F, F] singular (e.g.
    positions {1, 2} of a 4-group); the code must be planned around a
    set it can actually absorb. Candidates are tried in tiers: the original
    set; then single swaps in decreasing total probability, ties by the
    position swapped out, then the one swapped in; then pair swaps in
    `combinations` order of the positions out, then of the positions in;
    then a leading-positions fallback that is always absorbable.

    A swap of k positions changes k rows and k columns of H[F, F], so it
    raises the rank by at most 2k. A tier that cannot reach rank s from the
    original set's rank is passed over without being built.
    """
    cand = tuple(sorted(candidate))
    s = len(cand)
    if s == 0:
        return cand

    # Losing exactly F is decodable iff H[F, F] is nonsingular (Jacobi's
    # complementary-minor identity, since H^-1 = H/n): an s x s test.
    rank, _ = _bareiss(_frozen_by_lost(cand, cand), s)
    if rank == s:
        return cand
    inside = set(cand)
    outside = [p for p in range(size) if p not in inside]
    if rank + 2 >= s:
        # probs[i] - probs[o] is exactly -(probs[o] - probs[i]): ascending
        # tuples give decreasing gain, then low i, then low o
        for _, i, o in sorted((probs[i] - probs[o], i, o)
                              for i in cand for o in outside):
            trial = tuple(sorted(inside - {i} | {o}))
            if _pins_lost(trial, trial):
                return trial
    if rank + 4 >= s:
        for (i1, i2), (o1, o2) in ((pi, po)
                                   for pi in combinations(cand, 2)
                                   for po in combinations(outside, 2)):
            trial = tuple(sorted(inside - {i1, i2} | {o1, o2}))
            if _pins_lost(trial, trial):
                return trial
    # absorbable: `group_layout` proves every leading minor nonzero
    return tuple(range(s))


def plan_groups(n: int, total_rows: int, profile: StragglerProfile) -> GroupPlan:
    """Lay out groups, row slices, and per-group frozen positions for a fleet."""
    if len(profile.probabilities) != n:
        raise CodingError(f"profile covers {len(profile.probabilities)} workers, fleet has {n}")
    groups, start, row_start = [], 0, 0
    for gi, (size, r, s) in enumerate(group_layout(n, total_rows,
                                                   profile._rate)):
        members = tuple(range(start, start + size))
        probs = profile.probabilities[start:start + size]
        block_rows(size, r, s)          # raises without a data position
        frozen = _repair_frozen(size, probs, _group_frozen_positions(probs, s))
        groups.append(GroupSpec(index=gi, size=size, members=members,
                                rows=r, row_start=row_start, frozen=frozen))
        start += size
        row_start += r
    return GroupPlan(total_rows=total_rows, groups=tuple(groups))


# ---------------------------------------------------------------------------
# Expansion and butterfly transform
# ---------------------------------------------------------------------------

def _as_int64(values, error=CodingError) -> np.ndarray:
    """`values` as int64; a bool or an entry no int64 holds raises `error`."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "i":
        return values.astype(np.int64)      # no entry is a bool or too wide
    try:
        arr = np.array(values, dtype=object)
        if all(type(v) is int or isinstance(v, np.integer) for v in arr.flat):
            return arr.astype(np.int64)
    except (ValueError, OverflowError):
        pass
    raise error("values must be integers that fit int64")


def expand(matrix: np.ndarray, group: GroupSpec) -> np.ndarray:
    """Pack a slice into block positions: data at non-frozen slots, zeros at frozen.

    Returns an (n_k, r, cols) int64 array; input rows are zero-padded up to a
    multiple of the data-position count.
    """
    matrix = _as_int64(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != group.rows:
        raise CodingError(f"expected {group.rows} rows for group {group.index}, "
                          f"got shape {matrix.shape}")
    r = group.rows_per_block
    cols = matrix.shape[1]
    blocks = np.zeros((group.size, r, cols), dtype=np.int64)
    data = group.data_positions
    padded = np.zeros((len(data) * r, cols), dtype=np.int64)
    padded[:group.rows] = matrix
    blocks[list(data)] = padded.reshape(len(data), r, cols)
    return blocks


def _butterfly(blocks: np.ndarray) -> np.ndarray:
    """Unnormalized Sylvester-Hadamard transform in log2(n) reshaped stages.

    Stage h pairs block i with block i | h and maps (a, b) to (a + b, a - b);
    works on any dtype, so object arrays of Python ints stay exact.
    """
    n = blocks.shape[0]
    if n & (n - 1) or n == 0:
        raise CodingError(f"block count {n} is not a power of two")
    h = 1
    while h < n:
        pairs = blocks.reshape((n // (2 * h), 2, h) + blocks.shape[1:])
        a, b = pairs[:, 0], pairs[:, 1]
        blocks = np.stack((a + b, a - b), axis=1).reshape((n,) + a.shape[2:])
        h <<= 1
    return blocks


def hadamard(blocks: np.ndarray) -> np.ndarray:
    """Unnormalized Sylvester-Hadamard butterfly over the leading block axis.

    Runs in int64 and raises CodingError when an output could leave the int64
    range, i.e. when max|blocks| exceeds (2**63 - 1) // n.
    """
    blocks = _as_int64(blocks)
    if blocks.size and max(int(blocks.max()),
                           -int(blocks.min())) > (2 ** 63 - 1) // blocks.shape[0]:
        raise CodingError("butterfly output overflows 64-bit range")
    return _butterfly(blocks)


# ---------------------------------------------------------------------------
# The frozen-by-lost system
# ---------------------------------------------------------------------------

def _bareiss(rows: list[list[int]], ncols: int,
             jordan: bool = False) -> tuple[int, int]:
    """Fraction-free elimination of the leading `ncols` columns, in place.

    Each step maps row_i to (pivot * row_i - row_i[c] * pivot_row) // prev,
    a division that is always exact (Bareiss, 1968): every entry stays a minor
    of the row-permuted input. A column with no pivot left is passed over, so
    the pivots taken count the rank of those columns. Forward mode clears below
    each pivot; `jordan` clears above as well. At full rank that leaves
    det * I in the leading block, so the tail columns of row t hold det times
    the row combination that isolates unknown t. Returns the rank and the
    last pivot, which is det when the rank is `ncols` (never with fewer rows
    than `ncols`).
    """
    prev = 1
    rank = 0
    n = len(rows)
    for c in range(ncols):
        for piv in range(rank, n):
            if rows[piv][c]:
                break
        else:
            continue                    # no pivot left in column c
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        pc = p[c]
        # below the pivot row every column left of c is zero already
        lo = 0 if jordan else c
        tail = p[lo:]
        for i in range(0 if jordan else rank + 1, n):
            if i != rank:
                row = rows[i]
                f = row[c]
                row[lo:] = [(pc * a - f * b) // prev
                            for a, b in zip(row[lo:], tail)]
        prev = pc
        rank += 1
    return rank, prev


def _frozen_by_lost(frozen: Sequence[int], lost: Sequence[int],
                    augment: bool = False) -> list[list[int]]:
    """Rows of H[F, L], followed by an |F| x |F| identity when `augment`.

    Entry (f, p) of the unnormalized Sylvester-Hadamard matrix H is
    (-1)^popcount(f & p).
    """
    eye = range(len(frozen)) if augment else ()
    return [[-1 if (f & p).bit_count() & 1 else 1 for p in lost]
            + [int(t == i) for t in eye] for i, f in enumerate(frozen)]


def _pins_lost(frozen: Sequence[int], lost: Sequence[int]) -> bool:
    """True when H[F, L] has full column rank, so H[F, :] y = 0 fixes y_L."""
    return _bareiss(_frozen_by_lost(frozen, lost), len(lost))[0] == len(lost)


def _lost_positions(received: Iterable[int], size: int) -> list[int]:
    rec = set(received)
    if not rec <= set(range(size)):
        raise CodingError("received positions out of range")
    return [p for p in range(size) if p not in rec]


def decodable(received: Iterable[int], group: GroupSpec) -> bool:
    """True when the received block positions determine every data block.

    Every codeword y = Hx with x_F = 0 satisfies H[F, :] y = 0 (H^-1 = H/n),
    so the lost outputs y_L are determined exactly when the small frozen-by-lost
    block H[F, L] has full column rank; that needs |L| <= |F|.
    """
    return _pins_lost(group.frozen, _lost_positions(received, group.size))


def decode(received: Mapping[int, np.ndarray], group: GroupSpec) -> np.ndarray:
    """Reconstruct the group's data slice from returned coded blocks.

    Solves H[F, L] y_L = -H[F, R] y_R for the lost outputs over Python ints
    (Gauss-Jordan on [H[F, L] | I], one exact division per lost block), then
    recovers x = H y / n with the same butterfly and an exact division.

    Raises NotDecodableError whenever `decodable` says False for the received
    positions, before any value is looked at, so a corrupted shard on an
    undecodable position set raises NotDecodableError too. Otherwise raises
    ShardCorruptionError when the values fit no valid data assignment (an
    inexact division, a nonzero frozen block, nonzero padding rows) and
    CodingError for a decoded value outside int64; never returns a wrong slice.
    """
    r = group.rows_per_block
    n, frozen = group.size, list(group.frozen)
    lost = _lost_positions(received, n)
    k = len(lost)
    rows = _frozen_by_lost(frozen, lost, augment=True)
    rank, det = _bareiss(rows, k, jordan=True)
    if rank < k:
        raise NotDecodableError("received blocks do not determine the data")
    shards = {p: _as_int64(v, ShardCorruptionError)
              for p, v in received.items()}
    first = next(iter(shards.values()))
    if not first.ndim:
        raise ShardCorruptionError("a block with no axis is corrupt")
    cols = first.shape[-1]
    y = np.zeros((n, r, cols), dtype=object)
    for p, v in shards.items():
        if v.shape != (r, cols):
            raise CodingError(f"block at position {p} has shape {v.shape}, "
                              f"expected {(r, cols)}")
        y[p] = v
    if lost:
        rhs = -_butterfly(y)[frozen]          # -H[F, R] y_R, lost outputs zero
        num = np.tensordot(np.array([row[k:] for row in rows[:k]], dtype=object),
                           rhs, axes=1)
        if (num % det != 0).any():
            raise ShardCorruptionError("non-integer lost-output solve: corrupted shard")
        y[lost] = num // det
    x = _butterfly(y)
    if (x % n != 0).any():
        raise ShardCorruptionError("non-integer inverse transform: corrupted shard")
    x //= n
    if x[frozen].any():
        raise ShardCorruptionError("nonzero frozen block after decode")
    data = np.concatenate([x[p] for p in group.data_positions], axis=0)
    if data[group.rows:].any():
        raise ShardCorruptionError("nonzero padding rows after decode")
    return _as_int64(data[:group.rows])


# ---------------------------------------------------------------------------
# Worker-side coded stores
# ---------------------------------------------------------------------------

class CodedLedgerImage:
    """Fleet-side coded mirror of one chain's cumulative in/out matrices.

    `w_in[k][p]` and `w_out[k][p]` are what the worker at block position p of
    group k stores: coded totals of shape (rows_per_block, cols). Updates are
    linear, so each store is the running sum of the coded rows sent to it,
    taken by the ledger's int64 guard; frozen positions stay zero. Decoding
    from the designated survivors must reproduce the central totals exactly.
    """

    def __init__(self, plan: GroupPlan, cols: int):
        self.plan = plan
        self.cols = cols
        self.w_in = [np.zeros((g.size, g.rows_per_block, cols), dtype=np.int64)
                     for g in plan.groups]
        self.w_out = [np.zeros_like(w) for w in self.w_in]

    def apply_epoch(self, inflow, outflow_confirmed, delta_proposed) -> None:
        """Fold one epoch's coded flows into the stores at the data positions.

        Codes and folds every group before storing any, so an error (a total
        leaving int64 among them) leaves the image unchanged.
        """
        mats = [_as_int64(m)
                for m in (inflow, outflow_confirmed, delta_proposed)]
        if any(m.shape != mats[0].shape for m in mats):
            raise CodingError("epoch matrices must share one shape")
        if mats[0].shape != (self.plan.total_rows, self.cols):
            raise CodingError(f"image holds {(self.plan.total_rows, self.cols)}, "
                              f"matrices have {mats[0].shape}")
        folded = []
        for g, w_in, w_out in zip(self.plan.groups, self.w_in, self.w_out):
            data = list(g.data_positions)
            a, b, d = (hadamard(expand(m[g.row_start:g.row_start + g.rows], g))
                       for m in mats)
            what = f"a coded store of group {g.index}"
            spent = _sum_at(w_out, data, b[data], what, CodingError)
            folded.append((_sum_at(w_in, data, a[data], what, CodingError),
                           _sum_at(spent, data, d[data], what, CodingError)))
        self.w_in = [w for w, _ in folded]
        self.w_out = [w for _, w in folded]

    def decode_totals(self) -> tuple[np.ndarray, np.ndarray]:
        """Reassemble (w_in, w_out), decoding each group from its data positions."""
        totals = []
        for stores in (self.w_in, self.w_out):
            full = np.zeros((self.plan.total_rows, self.cols), dtype=np.int64)
            for g, y in zip(self.plan.groups, stores):
                full[g.row_start:g.row_start + g.rows] = decode(
                    {p: y[p] for p in g.data_positions}, g)
            totals.append(full)
        return totals[0], totals[1]
