"""Node fleets and behavior policies: stragglers, adversaries, issuance.

Each chain runs a fleet of worker/committee nodes, all of stake 1. A fleet
is its straggler profile: one straggling likelihood per node, of which the
configured fraction with the highest likelihoods are stragglers that
silently drop their shard tasks. Adversarial chains pad valid-looking
transfer blocks with overspending rows, summed by the ledger's int64 guard.
A block is drawn from its chain's balances and handed to `Transfers`, which
checks it; the draw bounds of each block shape are built once per run's
memo; a fleet is drawn only to rank an uneven split's stragglers. Issuance
deals each faction's evenly spaced slot times, one vector, round-robin over
its chains as strides, each chain's held as one array of machine floats.
"""

from __future__ import annotations

from array import array
from typing import Sequence

import numpy as np

from .balances import Transfers, _sum_at
from .coding import StragglerProfile


class RoleError(Exception):
    """Misconfigured fleet or behavior policy."""


def build_fleet(size: int, straggler_fraction: float,
                rng: np.random.Generator) -> StragglerProfile:
    """Draw a fleet's straggling likelihoods; the worst fraction go silent.

    Per-node straggle probabilities are drawn uniformly from [0, 1). The
    profile's straggler set (the highest-probability nodes, count rounded
    half-up) never responds; the remaining nodes always respond in time.
    """
    if size < 1:
        raise RoleError("fleet needs at least one node")
    return StragglerProfile(probabilities=tuple(rng.random(size).tolist()),
                            fraction=straggler_fraction)


# ---------------------------------------------------------------------------
# Adversarial block construction
# ---------------------------------------------------------------------------

#: an overspending row spends its balance plus this plus a draw below
#: `_OVERSPEND_DRAWS`, more than any inflow can add before it is validated
OVERSPEND_MARGIN = 1_000_000_000
_OVERSPEND_DRAWS = 100


def _draw_bounds(accounts: int, rows: int, n_bad: int,
                 amount_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The low and high bounds of one block's draws, interleaved row by
    row: a receiver in [0, accounts), then an amount, which overspending
    rows (the first n_bad) draw from [0, 100) and the others from
    [1, amount_max]. One `integers` call over them draws the same values,
    in order, as one call per value. A pure function of its arguments,
    kept in the caller's memo for every block of that shape."""
    low = np.zeros((rows, 2), dtype=np.int64)
    high = np.full((rows, 2), accounts, dtype=np.int64)
    low[n_bad:, 1] = 1
    high[:n_bad, 1] = _OVERSPEND_DRAWS
    high[n_bad:, 1] = amount_max + 1
    for arr in (low, high):
        arr.setflags(write=False)       # shared by every block of a shape
    return low, high


def _draw_block(dest: int, balances: np.ndarray, invalid_tx_fraction: float,
                rng: np.random.Generator, source: int, active_rows: int,
                amount_max: int, bounds: dict) -> Transfers:
    if not 0.0 <= invalid_tx_fraction <= 1.0:
        raise RoleError("invalid_tx_fraction must be within [0, 1]")
    balances = np.asarray(balances, dtype=np.int64)
    m = len(balances)
    funded = (balances > 0).nonzero()[0]
    rows = min(active_rows, len(funded))
    senders = rng.choice(funded, size=rows, replace=False)
    senders.sort()                      # distinct and increasing
    n_bad = int(invalid_tx_fraction * rows)             # floor
    key = (m, rows, n_bad, amount_max)
    if key not in bounds:
        bounds[key] = _draw_bounds(*key)
    draws = rng.integers(*bounds[key])
    held = balances[senders]
    # funded balances and honest draws are at least 1; bad rows follow
    amounts = np.minimum(held, draws[:, 1])
    if n_bad:
        bad = held[:n_bad]
        amounts[:n_bad] = _sum_at(
            bad, slice(None), draws[:n_bad, 1] + OVERSPEND_MARGIN,
            f"overspending row of chain {source} on a balance of "
            f"{max(bad.tolist())}")
    return Transfers(source=source, dest=dest, senders=senders,
                     receivers=draws[:, 0], amounts=amounts)


def make_invalid_block(dest: int, balances: np.ndarray,
                       invalid_tx_fraction: float, rng: np.random.Generator,
                       source: int, active_rows: int,
                       bounds: dict) -> Transfers:
    """Build a transfer block mixing valid rows with overspending ones.

    Rows are drawn from accounts that currently hold funds, each at most
    once, and listed in increasing account order. A
    floor(invalid_tx_fraction * active) subset spends more than its account
    holds; the rest spend within balance. With fraction 1.0 every populated
    row overspends. `bounds` keeps the draw bounds of each block shape.
    """
    return _draw_block(dest, balances, invalid_tx_fraction, rng, source,
                       active_rows, 10, bounds)


def make_valid_block(dest: int, balances: np.ndarray,
                     rng: np.random.Generator, source: int,
                     active_rows: int, bounds: dict,
                     amount_max: int = 10) -> Transfers:
    """Build an honest transfer block: every populated row spends in
    budget. Rows and `bounds` are as in `make_invalid_block`."""
    return _draw_block(dest, balances, 0.0, rng, source, active_rows,
                       amount_max, bounds)


# ---------------------------------------------------------------------------
# Issuance scheduling
# ---------------------------------------------------------------------------

def stream_slots(rate_per_min: float, duration_min: float) -> int:
    """Slot count of one issuance stream, rounding halves to even."""
    return int(round(duration_min * rate_per_min))


def schedule_issuance(rate_per_min: float, spam_fraction: float,
                      honest_chains: Sequence[int],
                      adversarial_chains: Sequence[int],
                      duration_min: float) -> dict[int, array]:
    """Fixed-cadence slot times of each chain, split between the factions.

    The honest faction issues at (1 - spam_fraction) * rate and the
    adversarial faction at spam_fraction * rate, each stream evenly spaced
    and dealt round-robin over its C chains: the k-th chain, from 0, takes
    slots k + 1, k + 1 + C, ... as one stride. Slot i of a stream with
    per-minute rate r lands at i * 60 / r seconds, for
    i = 1 .. round(duration * r), rounding halves to even. Every chain of
    both factions has an entry, an `array('d')` in time order and possibly
    empty.
    """
    if rate_per_min <= 0:
        raise RoleError("issuance rate must be positive")
    if not 0.0 <= spam_fraction <= 1.0:
        raise RoleError("spam fraction must be within [0, 1]")
    if spam_fraction > 0 and not adversarial_chains:
        raise RoleError("spam fraction positive but no adversarial chains")
    if spam_fraction < 1 and not honest_chains:
        raise RoleError("honest rate positive but no honest chains")
    slots = {c: array("d") for c in (*honest_chains, *adversarial_chains)}
    for rate, chains in ((rate_per_min * (1.0 - spam_fraction), honest_chains),
                         (rate_per_min * spam_fraction, adversarial_chains)):
        if rate <= 0 or not chains:
            continue
        # the floats of i * period: exact ints below 2**53, same rounding
        count = stream_slots(rate, duration_min)
        times = array("d", (np.arange(1, count + 1) * (60.0 / rate)).tobytes())
        for k, c in enumerate(chains):
            slots[c] = times[k::len(chains)]
    return slots
