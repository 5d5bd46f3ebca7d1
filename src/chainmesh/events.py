"""Committee-gated event machinery driving each chain's epoch pipeline.

An oracle turns stage outputs into events; a lottery committee signs off on
each one: the member of the highest draw proposes, every member approves.
A candidate's lottery draw is the SHA-256 digest of its key and the epoch,
finished from a hash state that has already taken the key; draws compare as
raw bytes. A committee is held as its proposer, the highest draw of all
candidates; its size is only the approval count its events print. A chain's
pool keeps its signed-off events in publish order, for the audit log, as
three flat columns: a byte code of each event's kind, its epoch, and the
index of its proposer among the proposers the pool has seen; the engine's
epoch generator fixes the stage order, so the pool checks none.
"""

from __future__ import annotations

import hashlib
from array import array
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterator, Sequence

# Event kinds, in pipeline order: one per stage step of a chain's epoch.
PROPOSAL_FORMED = "proposal-formed"        # new transfer block assembled
PROPOSAL_RESULTS = "proposal-results"      # worker results for the block ready
TIP_BATCH_FORMED = "tip-batch-formed"      # foreign tips picked for checking
TIP_RESULTS = "tip-results"                # worker results for the tips ready
DAG_SUBMISSION = "dag-submission"          # validated block ready to attach
WEIGHT_UPDATE = "weight-update"            # approval weights recomputed
LEDGER_APPEND = "ledger-append"            # confirmed super-block chosen

#: every event kind; a pool keeps each event's kind as its index here
KINDS = (PROPOSAL_FORMED, PROPOSAL_RESULTS, TIP_BATCH_FORMED, TIP_RESULTS,
         DAG_SUBMISSION, WEIGHT_UPDATE, LEDGER_APPEND)
KIND_CODES = {kind: code for code, kind in enumerate(KINDS)}

ACTIVE = "active"


class EventError(Exception):
    """Misuse of the event machinery."""


# ---------------------------------------------------------------------------
# Lottery and committee selection
# ---------------------------------------------------------------------------

def _to_bytes(value) -> bytes:
    return value if isinstance(value, bytes) else str(value).encode()


def vrf_keys(node_secrets: Sequence, shared_seed) -> list[bytes]:
    """Each node's lottery key under `shared_seed`: the `secret | seed |`
    prefix that every epoch's draw hashes before the epoch. The seed is
    encoded once for all of them."""
    tail = b"|%s|" % _to_bytes(shared_seed)
    return [_to_bytes(secret) + tail for secret in node_secrets]


def vrf_draws(states: Sequence, epoch: int) -> list[bytes]:
    """Deterministic lottery draw of each keyed state at `epoch`.

    A state is a SHA-256 that has hashed one node's key from `vrf_keys`;
    the node's draw is the 32-byte digest sha256(secret | seed | epoch),
    taken from a copy so the state serves every epoch. Big-endian digests
    of one length order as the 256-bit integers they encode. Verification
    is recomputation.
    """
    e = b"%d" % epoch
    draws = []
    for state in states:
        h = state.copy()
        h.update(e)
        draws.append(h.digest())
    return draws


class Candidates:
    """A chain's committee candidates, in node-id order, and their lottery
    states.

    A node's secret is its id. The candidates are checked and keyed for a
    shared seed at its first draw, not when built, so every later epoch
    hashes only the epoch into a copy of a stored state.
    """

    def __init__(self, node_ids: Sequence[str]):
        self.node_ids = tuple(sorted(node_ids))
        self._keys: dict[object, tuple] = {}

    def keys(self, shared_seed) -> tuple:
        """SHA-256 state of every candidate's key under `shared_seed`."""
        states = self._keys.get(shared_seed)
        if states is None:
            if len(set(self.node_ids)) < len(self.node_ids):
                raise EventError("duplicate candidate node id")
            states = tuple(map(hashlib.sha256,
                               vrf_keys(self.node_ids, shared_seed)))
            self._keys[shared_seed] = states
        return states


def select_committee(candidates: Candidates, shared_seed, epoch: int) -> str:
    """The committee's proposer: the candidate of the highest draw.

    Ties break to the lower node id.
    """
    draws = vrf_draws(candidates.keys(shared_seed), epoch)
    # index finds the first of equal draws, so node-id order breaks ties
    return candidates.node_ids[draws.index(max(draws))]


# ---------------------------------------------------------------------------
# Per-chain event pools
# ---------------------------------------------------------------------------

class EventPools:
    """A chain's signed-off events, approved by `approvals` members each.

    `kinds` holds each event's code in `KIND_CODES`, in publish order;
    beside it, `_epochs` holds its epoch and `_proposers` the index of its
    proposer in `_index`, which numbers each proposer as first seen.
    """

    def __init__(self, chain: int, approvals: int):
        self.chain = chain
        self.approvals = approvals
        self.kinds = bytearray()
        self._epochs = array("q")
        self._proposers = array("i")
        self._index: dict[str, int] = {}

    def publish(self, kind: str, epoch: int, proposer: str) -> None:
        """Record an event the committee's proposer proposed at `epoch`."""
        self.kinds.append(KIND_CODES[kind])
        self._epochs.append(epoch)
        self._proposers.append(
            self._index.setdefault(proposer, len(self._index)))

    def audit_lines(self) -> Iterator[str]:
        """Event log export: one compact record per published event.

        Each line is the JSON object with keys in sorted order, as
        `json.dumps(..., sort_keys=True)` writes it. Each kind and each
        proposer is escaped once, not once per line.
        """
        head = (f'{{"approve": {self.approvals}, "attempts": 1, '
                f'"chain": {self.chain}, "epoch": ')
        kinds = [f', "kind": {_json_str(kind)}, "outcome": '
                 f'{_json_str(ACTIVE)}, "proposer": ' for kind in KINDS]
        names = [f'{_json_str(name)}, "reject": 0}}' for name in self._index]
        return (f"{head}{epoch}{kinds[kind]}{names[proposer]}"
                for kind, epoch, proposer in zip(
                    self.kinds, self._epochs, self._proposers))
