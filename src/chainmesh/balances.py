"""Exact cross-chain balance accounting.

Token movement between chains is tracked as per-epoch transfer matrices.
Entry [m, m'] of a matrix for the ordered chain pair (j, l) is the amount
account m on chain j sends to account m' on chain l during one epoch.
Three per-epoch aggregates drive the bookkeeping for a chain:

  inflow             sum of confirmed transfers arriving from every other chain
  outflow_confirmed  sum of this chain's transfers that reached confirmation
  outflow_proposed   sum of this chain's currently proposed (unconfirmed) spend

Cumulative in/out totals fold these in recursively; the proposed component is
*replaced* each epoch (only the latest proposal counts against balances), so
its delta may be negative when a previously proposed spend was dropped.
All arithmetic is exact int64; no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np


class LedgerError(Exception):
    """Structural violation in transfer data."""


class SequencingError(LedgerError):
    """Epoch applied out of order."""


def _as_amount_matrix(amounts, accounts: int | None = None) -> np.ndarray:
    arr = np.asarray(amounts, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise LedgerError(f"amount matrix must be square, got shape {arr.shape}")
    if accounts is not None and arr.shape[0] != accounts:
        raise LedgerError(f"expected {accounts}x{accounts} matrix, got {arr.shape}")
    if (arr < 0).any():
        raise LedgerError("transfer amounts must be non-negative")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TransactionMatrix:
    """One epoch of proposed or confirmed transfers from chain `source` to `dest`."""

    source: int
    dest: int
    epoch: int
    amounts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amounts", _as_amount_matrix(self.amounts))


@dataclass(frozen=True)
class BlockPayload:
    """Validated transfer set carried by one block, plus transaction ids."""

    source: int
    epoch: int
    matrices: tuple[TransactionMatrix, ...]
    txn_ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class FlowAggregates:
    """Per-epoch flow totals for one chain, all MxM int64."""

    chain: int
    epoch: int
    inflow: np.ndarray
    outflow_confirmed: np.ndarray
    outflow_proposed: np.ndarray

    def __post_init__(self):
        for name in ("inflow", "outflow_confirmed", "outflow_proposed"):
            object.__setattr__(self, name, _as_amount_matrix(getattr(self, name)))


@dataclass(frozen=True)
class CumulativeState:
    """Cumulative in/out totals for one chain through `epoch`.

    w_out includes the latest proposed spend (`last_proposed`), which the next
    epoch replaces rather than accumulates.
    """

    chain: int
    epoch: int
    genesis: np.ndarray
    w_in: np.ndarray
    w_out: np.ndarray
    last_proposed: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.genesis, dtype=np.int64)
        if g.ndim != 1:
            raise LedgerError("genesis must be a 1-D account vector")
        if (g < 0).any():
            raise LedgerError("genesis balances must be non-negative")
        g = g.copy()
        g.setflags(write=False)
        object.__setattr__(self, "genesis", g)
        m = g.shape[0]
        for name in ("w_in", "w_out", "last_proposed"):
            object.__setattr__(self, name, _as_amount_matrix(getattr(self, name), m))

    @property
    def accounts(self) -> int:
        return self.genesis.shape[0]


def new_state(chain: int, genesis) -> CumulativeState:
    """Fresh state at epoch 0; the genesis allocation is modeled as epoch-0 inflow."""
    g = np.asarray(genesis, dtype=np.int64)
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
    w_in = state.w_in + flows.inflow
    delta_proposed = flows.outflow_proposed - state.last_proposed
    w_out = state.w_out + flows.outflow_confirmed + delta_proposed
    return CumulativeState(chain=state.chain, epoch=flows.epoch, genesis=state.genesis,
                           w_in=w_in, w_out=w_out,
                           last_proposed=flows.outflow_proposed)


def net_balances(state: CumulativeState) -> np.ndarray:
    """Per-account net balance: genesis + received totals - spent totals."""
    return state.genesis + state.w_in.sum(axis=0) - state.w_out.sum(axis=1)


def proposed_outflow(matrices: Sequence[TransactionMatrix], chain: int,
                     accounts: int) -> np.ndarray:
    """Total proposed spend matrix: sum over destination chains, source fixed."""
    c = np.zeros((accounts, accounts), dtype=np.int64)
    for t in matrices:
        if t.source != chain:
            raise LedgerError(f"matrix from chain {t.source} in proposal for {chain}")
        if t.dest == chain:
            raise LedgerError("intra-chain transfer rejected in proposal")
        c += _as_amount_matrix(t.amounts, accounts)
    return c


def _balances_with_proposal(state: CumulativeState, proposal: np.ndarray) -> np.ndarray:
    # Replace the stored proposed component with `proposal` when judging spend.
    out_rows = (state.w_out.sum(axis=1)
                - state.last_proposed.sum(axis=1)
                + proposal.sum(axis=1))
    return state.genesis + state.w_in.sum(axis=0) - out_rows


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of validating a proposed transfer set."""

    blocks: tuple[TransactionMatrix, ...]
    valid_rows: np.ndarray          # bool per account
    proposed: np.ndarray            # total proposed spend of the *input* set

    @property
    def any_zeroed(self) -> bool:
        return not bool(self.valid_rows.all())


def validate_block(proposed: Sequence[TransactionMatrix],
                   state: CumulativeState) -> ValidationResult:
    """Zero each account's rows whose full proposed spend overdraws its balance.

    An account is judged against its balance with the *entire* proposed spend
    (across all destination chains) counted at once; a failing account has its
    row zeroed in every output matrix, atomically for this epoch. Idempotent:
    validating the output again under the same state changes nothing.
    """
    c_prop = proposed_outflow(proposed, state.chain, state.accounts)
    valid = _balances_with_proposal(state, c_prop) >= 0
    out = []
    for t in proposed:
        amounts = t.amounts.copy()
        amounts[~valid, :] = 0
        out.append(TransactionMatrix(source=t.source, dest=t.dest,
                                     epoch=t.epoch, amounts=amounts))
    return ValidationResult(blocks=tuple(out), valid_rows=valid, proposed=c_prop)


def validate_tip_payloads(tips: Sequence[BlockPayload],
                          states: Mapping[int, CumulativeState]) -> list[bool]:
    """Block-level verdicts for foreign tips against the validator's ledger view.

    Each tip's proposed spend is the sum of its payload matrices; the verdict
    is valid only if every account with a nonzero spend row stays non-negative.
    At most one tip per source chain may appear in a batch.
    """
    seen: set[int] = set()
    verdicts: list[bool] = []
    for tip in tips:
        if tip.source in seen:
            raise LedgerError(f"two tips from chain {tip.source} in one batch")
        seen.add(tip.source)
        state = states.get(tip.source)
        if state is None:
            raise LedgerError(f"no ledger state for chain {tip.source}")
        if not tip.matrices:
            verdicts.append(True)       # all-zero payload spends nothing
            continue
        c_tip = proposed_outflow(tip.matrices, tip.source, state.accounts)
        w = _balances_with_proposal(state, c_tip)
        spending = c_tip.sum(axis=1) > 0
        verdicts.append(bool((w[spending] >= 0).all()))
    return verdicts
