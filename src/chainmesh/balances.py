"""Exact cross-chain balance accounting.

Token movement between chains is tracked as transfer triplets: triplet k of
a `Transfers` from chain j to chain l is the amount account senders[k] on
chain j sends to account receivers[k] on chain l. A block carries one
`Transfers`, which checks, once as it is built, everything true of the
block alone: its chains are ints, its triplets are non-negative int64 of
equal length, it moves tokens to another chain, and its senders are
strictly increasing, so each sending account has one triplet and the
amounts are the block's spend per sending account. It keeps one read-only
(3, k) copy of its triplets, whose rows are its senders, receivers and
amounts.

The engine keeps every chain's totals in one `LedgerBook`, updated in place:
a proposal debit holds its spend as outstanding, and a ledger window moves
its confirmed blocks' spend to spent and credits their destinations' held
balance, genesis + received - spent, so what a chain received is derived,
never stored. A net balance is the held balance less the outstanding spend.
`LedgerBook.debit` is a proposal's one check: it refuses a block that does
not fit its net balances, so no net or held balance is ever negative. A
debit, a window and the tip check each run one row check, which refuses a
block naming a chain or account outside the book. A foreign tip, whose
spend its chain already holds as outstanding, is judged against the held
balances, since its own outstanding spend cancels out.

A `CumulativeState` folds one chain's per-epoch `FlowAggregates` -- inflow,
confirmed outflow and the proposed spend, which each epoch replaces -- as
MxM matrices, as coded workers store them, or summed (w_in 1xM, w_out Mx1),
as the book reports them after a run; `update_cumulative` and
`net_balances` are the oracle the book is tested against. All arithmetic is
exact int64; no floats anywhere. One guard, `_sum_at`, bounds every total,
of either sign: a window's, a state's, an update's, a spam row's and a coded
store's. One that would leave int64 raises a named error before it is stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np


class LedgerError(Exception):
    """Structural violation in transfer data."""


class SequencingError(LedgerError):
    """Epoch applied out of order."""


class LedgerOverflowError(LedgerError):
    """An exact ledger amount or total does not fit in int64."""


INT64_MAX = int(np.iinfo(np.int64).max)


def _holds_bool(values) -> bool:
    """Whether a bool, or an array of bools, is among `values`, at any
    depth of lists and tuples: numpy would turn it into an int."""
    if isinstance(values, (list, tuple)):
        return any(map(_holds_bool, values))
    return isinstance(values, (bool, np.bool_)) or (
        isinstance(values, np.ndarray) and values.dtype.kind == "b")


def _as_amounts(values, ndim: int) -> np.ndarray:
    """A read-only, non-negative int64 copy of the integers `values`, of
    `ndim` dimensions, however it is flagged; `values` may be an array, or
    a list or tuple of arrays or sequences. Anything else with an entry
    raises LedgerError, and an int past int64 LedgerOverflowError."""
    try:
        arr = np.array(values)
    except ValueError as exc:
        raise LedgerError(f"amounts must form a regular array: {exc}") from exc
    if not arr.size:                # no entry, whatever its dtype
        arr = arr.astype(np.int64)
    given, ints = arr.dtype, arr.dtype.kind in "iu"
    # numpy holds an int past int64 as uint64 or as a Python int object, and
    # ints it fits in no one integer dtype, such as [1, 2**63], [-1, 2**63]
    # or an int64 and a uint64 array, as float64: those are taken entry by
    # entry, as objects
    arr = arr if ints else np.array(values, dtype=object)
    types = () if ints else set(map(type, arr.flat))
    if types and not all(map(np.issubdtype, types, repeat(np.integer))):
        raise LedgerError(f"amounts must be integers, not {given}")
    # numpy silently turns a bool among ints into an int
    if ints and arr.size and _holds_bool(values):
        raise LedgerError("amounts must be integers, not bool")
    if arr.ndim != ndim:
        raise LedgerError(f"expected a {ndim}-D int64 array, got shape {arr.shape}")
    if arr.min(initial=0) < 0:
        raise LedgerError("amounts and account indices must be non-negative")
    if arr.dtype.kind != "i" and arr.max(initial=0) > INT64_MAX:
        raise LedgerOverflowError("amount or account index exceeds int64")
    arr = arr.astype(np.int64, copy=False)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, slots=True, init=False)
class Transfers:
    """One block's transfers from chain `source` to chain `dest`.

    Equal-length triplet vectors, the rows of `triplets`: account
    senders[k] on `source` pays amounts[k] to account receivers[k] on
    `dest`, another chain. Senders are strictly increasing, so amounts[k]
    is all that senders[k] spends. Built from the three vectors, which are
    checked together, as one (3, k) array, and read back as its row views.
    """

    source: int
    dest: int
    triplets: np.ndarray

    def __init__(self, source: int, dest: int, senders, receivers, amounts):
        if type(source) is not int or type(dest) is not int:
            raise LedgerError(f"chains {source!r} and {dest!r} must be ints")
        if source == dest:
            raise LedgerError("intra-chain transfer rejected")
        # three 1-D vectors of one length stack to (3, k); any others stack
        # to another shape or are ragged, which `_as_amounts` refuses
        triplets = _as_amounts((senders, receivers, amounts), ndim=2)
        if (triplets[0, 1:] <= triplets[0, :-1]).any():
            raise LedgerError("transfer senders must be strictly increasing")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "dest", dest)
        object.__setattr__(self, "triplets", triplets)

    @property
    def senders(self) -> np.ndarray:
        return self.triplets[0]

    @property
    def receivers(self) -> np.ndarray:
        return self.triplets[1]

    @property
    def amounts(self) -> np.ndarray:
        return self.triplets[2]


@dataclass(frozen=True)
class FlowAggregates:
    """Per-epoch flow totals for one chain, at the resolution of its state."""

    chain: int
    epoch: int
    inflow: np.ndarray
    outflow_confirmed: np.ndarray
    outflow_proposed: np.ndarray

    def __post_init__(self):
        for name in ("inflow", "outflow_confirmed", "outflow_proposed"):
            object.__setattr__(self, name, _as_amounts(getattr(self, name), ndim=2))


@dataclass(frozen=True)
class CumulativeState:
    """Cumulative in/out totals for one chain through `epoch`.

    w_out includes the latest proposed spend (`last_proposed`), which the next
    epoch replaces rather than accumulates. The totals are either all MxM, or
    summed over the counterparty: w_in 1xM, w_out and last_proposed Mx1.
    """

    chain: int
    epoch: int
    genesis: np.ndarray
    w_in: np.ndarray
    w_out: np.ndarray
    last_proposed: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "genesis", _as_amounts(self.genesis, ndim=1))
        for name in ("w_in", "w_out", "last_proposed"):
            object.__setattr__(self, name, _as_amounts(getattr(self, name), ndim=2))
        m = self.accounts
        shapes = (self.w_in.shape, self.w_out.shape, self.last_proposed.shape)
        if shapes not in (((m, m),) * 3, ((1, m), (m, 1), (m, 1))):
            raise LedgerError(f"totals of shapes {shapes} are neither MxM nor 1xM/Mx1")
        k = len(self.w_in)      # counterparties: w_in is kxM, w_out Mxk
        _sum_at(self.genesis, np.tile(np.arange(m), k), self.w_in.ravel(),
                f"a balance of chain {self.chain} at epoch {self.epoch}")
        _sum_at(np.zeros(m, dtype=np.int64), np.repeat(np.arange(m), k),
                self.w_out.ravel(),
                f"a spend of chain {self.chain} at epoch {self.epoch}")

    @property
    def accounts(self) -> int:
        return self.genesis.shape[0]


def _sum_at(base: np.ndarray, index, amounts: np.ndarray, what: str,
            error=LedgerOverflowError) -> np.ndarray:
    """A copy of `base` with `amounts` added at `index`, of either sign.

    An entry outside int64 raises `error` naming `what`. The largest
    magnitude in `base` plus the count times the largest in `amounts`
    settles nearly every case; only when it is inconclusive are the sums
    taken exactly.
    """
    total = base.copy()
    np.add.at(total, index, amounts)
    reach = [max(int(a.max(initial=0)), -int(a.min(initial=0)))
             for a in (base, amounts)]
    if reach[0] + len(amounts) * reach[1] > INT64_MAX:
        exact = base.astype(object)
        np.add.at(exact, index, amounts.astype(object))
        if not -INT64_MAX - 1 <= exact.min(initial=0) \
                <= exact.max(initial=0) <= INT64_MAX:
            raise error(f"{what} exceeds int64")
    return total


def new_state(chain: int, genesis) -> CumulativeState:
    """Fresh MxM state at epoch 0; the genesis allocation is modeled as epoch-0 inflow."""
    g = _as_amounts(genesis, ndim=1)
    m = g.shape[0]
    zero = np.zeros((m, m), dtype=np.int64)
    return CumulativeState(chain=chain, epoch=0, genesis=g,
                           w_in=zero, w_out=zero, last_proposed=zero)


def update_cumulative(state: CumulativeState, flows: FlowAggregates) -> CumulativeState:
    """Fold one epoch of flows into the cumulative totals.

    The proposed-outflow component is replaced, not accumulated: the delta
    against the previous proposal is applied, so entries of that delta may be
    negative (a spend proposed earlier was dropped or shrank after zeroing).
    """
    if flows.chain != state.chain:
        raise LedgerError(f"flows for chain {flows.chain} applied to chain {state.chain}")
    if flows.epoch != state.epoch + 1:
        raise SequencingError(
            f"epoch {flows.epoch} applied to state at epoch {state.epoch}")
    # numpy would broadcast summed totals against MxM flows without complaint
    if (flows.inflow.shape, flows.outflow_confirmed.shape, flows.outflow_proposed.shape) \
            != (state.w_in.shape, state.w_out.shape, state.w_out.shape):
        raise LedgerError("flows differ in shape from the state's totals")
    what = f"a total of chain {state.chain} at epoch {flows.epoch}"
    w_in = _sum_at(state.w_in, slice(None), flows.inflow, what)
    spent = _sum_at(state.w_out, slice(None), flows.outflow_confirmed, what)
    w_out = _sum_at(spent, slice(None), flows.outflow_proposed, what)
    # a shrunk proposal leaves a negative entry, which the state refuses
    return CumulativeState(chain=state.chain, epoch=flows.epoch, genesis=state.genesis,
                           w_in=w_in, w_out=w_out - state.last_proposed,
                           last_proposed=flows.outflow_proposed)


def net_balances(state: CumulativeState) -> np.ndarray:
    """Per-account net balance: genesis + received totals - spent totals."""
    return state.genesis + state.w_in.sum(axis=0) - state.w_out.sum(axis=1)


class LedgerBook:
    """Every chain's exact totals, updated in place as int64 rows of shape
    (chains, accounts): `spent` the chain's own confirmed transfers,
    `outstanding` its proposed, unconfirmed spend and `held` its confirmed
    balance, genesis + received - spent, where received is the confirmed
    transfers credited to it. A window credits held + spent, which is
    genesis + received, so the book keeps no received row of its own.

    held + spent fits int64 by the check at each window, and so does
    spent + outstanding: a debit must fit the net balance and a window only
    moves spend from outstanding to spent. For the same reason no held or
    net balance is ever negative.
    """

    def __init__(self, genesis):
        self.genesis = _as_amounts(genesis, ndim=2)
        self.spent = np.zeros(self.genesis.shape, dtype=np.int64)
        self.outstanding = np.zeros(self.genesis.shape, dtype=np.int64)
        self.held = self.genesis.copy()
        self.windows = 0                # windows ingested so far

    @property
    def accounts(self) -> int:
        return self.genesis.shape[1]

    def check_chain(self, chain: int) -> None:
        """Raise for a chain that is no int in [0, chains), which indexing
        would wrap round, read as a mask (a bool) or fail on unnamed."""
        if type(chain) is not int or not 0 <= chain < len(self.genesis):
            raise LedgerError(f"no ledger state for chain {chain!r}")

    def net(self, chain: int) -> np.ndarray:
        """One chain's net balances."""
        self.check_chain(chain)
        return self.held[chain] - self.outstanding[chain]

    def debit(self, t: Transfers) -> None:
        """Hold proposal `t`'s spend as outstanding on its source chain: the
        proposal's one check. Each sender's amount, its whole spend, must
        fit its net balance; a block that overdraws one, or names a chain or
        account outside the book, raises LedgerError, and nothing is held."""
        _check_rows(t, self)
        rows, amounts, c = t.senders, t.amounts, t.source
        if (self.held[c][rows] - self.outstanding[c][rows] < amounts).any():
            raise LedgerError(
                f"a debit would overdraw a net balance on chain {c}")
        self.outstanding[c][rows] += amounts

    def ingest(self, blocks: Sequence[Transfers]) -> None:
        """Land one window's confirmed blocks: each moves its spend from its
        source chain's outstanding to spent and credits its destination.

        Nothing lands when a block names a chain or account outside the
        book or spends more than its chain holds as outstanding
        (LedgerError), or when a sum leaves int64 (LedgerOverflowError).
        An empty window is not one.
        """
        if not blocks:
            return
        for t in blocks:
            _check_rows(t, self)
        sizes = [t.triplets.shape[1] for t in blocks]
        senders, receivers, amounts = np.concatenate(
            [t.triplets for t in blocks], axis=1)
        credited = _sum_at(self.held + self.spent, (
            np.repeat([t.dest for t in blocks], sizes), receivers),
            amounts, f"a balance at ledger window {self.windows}")
        outflow = _sum_at(np.zeros_like(self.spent), (
            np.repeat([t.source for t in blocks], sizes), senders),
            amounts, f"a confirmed spend at ledger window {self.windows}")
        if (outflow > self.outstanding).any():
            raise LedgerError("a window confirms spend no proposal held")
        self.spent += outflow
        self.outstanding -= outflow
        np.subtract(credited, self.spent, out=self.held)
        self.windows += 1

    def state(self, chain: int) -> CumulativeState:
        """One chain's totals as a summed state through the latest window."""
        self.check_chain(chain)
        return CumulativeState(
            chain=chain, epoch=self.windows, genesis=self.genesis[chain],
            w_in=(self.held[chain] + self.spent[chain]
                  - self.genesis[chain])[None, :],
            w_out=(self.spent[chain] + self.outstanding[chain])[:, None],
            last_proposed=self.outstanding[chain][:, None])


def _check_rows(t: Transfers, book: LedgerBook) -> None:
    """Raise LedgerError unless `t` moves tokens between chains of the
    book, among accounts it holds."""
    book.check_chain(t.source)
    book.check_chain(t.dest)
    accounts = book.accounts
    if max(t.senders.tolist(), default=-1) >= accounts or \
            max(t.receivers.tolist(), default=-1) >= accounts:
        raise LedgerError(
            f"account index out of range for {accounts} accounts")


def validate_tip_payloads(tips: Sequence[Transfers],
                          book: LedgerBook) -> list[bool]:
    """One verdict per foreign tip against the validator's ledger view.

    A tip is valid if every sender's held balance covers its amount. An
    honest chain debits its proposal as outstanding spend before the block
    attaches: releasing that spend from the net balance leaves the held
    balance, which is never negative, so a row spending nothing always
    passes.
    """
    for tip in tips:
        _check_rows(tip, book)
    return [bool((book.held[tip.source][tip.senders] >= tip.amounts).all())
            for tip in tips]
