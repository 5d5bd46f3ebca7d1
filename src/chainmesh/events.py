"""Committee-gated event machinery driving each chain's epoch pipeline.

An oracle turns stage outputs into events; a stake-plus-lottery committee
signs off on each one, with its top-ranked member proposing and every member
approving. Per epoch each chain keeps a temporary pool of its events, drained
exactly once into a per-epoch side ledger that doubles as the audit log.
"""

from __future__ import annotations

import hashlib
from json.encoder import encode_basestring_ascii as _json_str
from dataclasses import dataclass, field
from typing import Mapping, Sequence

# Event kinds, in pipeline order: one per stage step of a chain's epoch.
PROPOSAL_FORMED = "proposal-formed"        # new transfer block assembled
PROPOSAL_RESULTS = "proposal-results"      # worker results for the block ready
TIP_BATCH_FORMED = "tip-batch-formed"      # foreign tips picked for checking
TIP_RESULTS = "tip-results"                # worker results for the tips ready
DAG_SUBMISSION = "dag-submission"          # validated block ready to attach
WEIGHT_UPDATE = "weight-update"            # approval weights recomputed
LEDGER_APPEND = "ledger-append"            # confirmed super-block chosen

EVENT_KINDS = (PROPOSAL_FORMED, PROPOSAL_RESULTS, TIP_BATCH_FORMED,
               TIP_RESULTS, DAG_SUBMISSION, WEIGHT_UPDATE, LEDGER_APPEND)

ACTIVE = "active"


class EventError(Exception):
    """Misuse of the event machinery."""


# ---------------------------------------------------------------------------
# Lottery and committee selection
# ---------------------------------------------------------------------------

def _to_bytes(value) -> bytes:
    if isinstance(value, bytes):
        return value
    return str(value).encode()


def vrf_key(node_secret, shared_seed) -> bytes:
    """A node's lottery key under `shared_seed`: the `secret | seed |`
    prefix that every epoch's draw hashes before the epoch."""
    return b"%s|%s|" % (_to_bytes(node_secret), _to_bytes(shared_seed))


def vrf_draws(keys: Sequence[bytes], epoch: int) -> list[int]:
    """Deterministic lottery draw of each key at `epoch`, in [0, 2**256).

    A node's draw is sha256(secret | seed | epoch); verification is
    recomputation.
    """
    e = str(int(epoch)).encode()
    return [int.from_bytes(hashlib.sha256(key + e).digest(), "big")
            for key in keys]


class Candidates:
    """A chain's committee candidates and their lottery keys.

    `stakes` is a sequence of (node id, stake); node secrets default to the
    node id itself. The candidates are checked and keyed for a shared seed
    at its first draw, not when built, so every later epoch hashes only a
    stored key plus the epoch.
    """

    def __init__(self, stakes: Sequence[tuple[str, int]],
                 secrets: Mapping[str, object] | None = None):
        self.stakes = tuple(stakes)
        self._secrets = secrets
        self._keys: dict[object, tuple[bytes, ...]] = {}

    def __len__(self) -> int:
        return len(self.stakes)

    def keys(self, shared_seed) -> tuple[bytes, ...]:
        """Lottery key of every candidate under `shared_seed`, in order."""
        keys = self._keys.get(shared_seed)
        if keys is None:
            for node_id, stake in self.stakes:
                if stake <= 0:
                    raise EventError(f"node {node_id!r} has non-positive stake")
            if len({node_id for node_id, _ in self.stakes}) < len(self.stakes):
                raise EventError("duplicate candidate node id")
            secrets = self._secrets
            keys = tuple(vrf_key(secrets[node_id] if secrets is not None
                                 else node_id, shared_seed)
                         for node_id, _ in self.stakes)
            self._keys[shared_seed] = keys
        return keys


@dataclass(frozen=True)
class CommitteeSelection:
    """Ranked committee for one chain and epoch."""

    epoch: int
    members: tuple[str, ...]               # rank order, best first

    def size(self) -> int:
        return len(self.members)


def select_committee(candidates: Candidates, shared_seed, epoch: int,
                     committee_size: int) -> CommitteeSelection:
    """Pick the `committee_size` best stake-times-draw scores, rank ordered.

    A score is the integer stake * draw; ties break to the lower node id.
    """
    if committee_size < 1:
        raise EventError("committee size must be at least 1")
    if committee_size > len(candidates):
        raise EventError(f"committee of {committee_size} from "
                         f"{len(candidates)} candidates")
    draws = vrf_draws(candidates.keys(shared_seed), epoch)
    ranked = sorted((-stake * draw, node_id)
                    for (node_id, stake), draw in zip(candidates.stakes, draws))
    return CommitteeSelection(
        epoch=epoch,
        members=tuple(node_id for _, node_id in ranked[:committee_size]))


# ---------------------------------------------------------------------------
# Proposal voting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EventRecord:
    """One oracle event: its proposer, payload, and approval count."""

    kind: str
    chain: int
    epoch: int
    proposer: str
    payload: object
    approvals: int


def propose_and_vote(kind: str, payload, committee: CommitteeSelection,
                     chain: int) -> EventRecord:
    """The top-ranked member proposes the payload; the committee approves."""
    if kind not in EVENT_KINDS:
        raise EventError(f"unknown event kind {kind!r}")
    if not committee.members:
        raise EventError("empty committee")
    return EventRecord(kind=kind, chain=chain, epoch=committee.epoch,
                       proposer=committee.members[0], payload=payload,
                       approvals=committee.size())


# ---------------------------------------------------------------------------
# Per-chain event pools
# ---------------------------------------------------------------------------

@dataclass
class EventPools:
    """Temporary pool of a chain's events plus the drained side ledger."""

    chain: int
    temp: dict[tuple[str, int], EventRecord] = field(default_factory=dict)
    side_ledger: dict[int, tuple[EventRecord, ...]] = field(default_factory=dict)
    audit: list[EventRecord] = field(default_factory=list)

    def publish(self, record: EventRecord) -> None:
        """Record an event; an epoch admits one event per kind."""
        if record.chain != self.chain:
            raise EventError(f"event for chain {record.chain} published to "
                             f"pool of chain {self.chain}")
        self.audit.append(record)
        key = (record.kind, record.epoch)
        if record.epoch in self.side_ledger:
            raise EventError(f"epoch {record.epoch} already drained")
        if key in self.temp:
            raise EventError(f"second active {record.kind!r} event "
                             f"for epoch {record.epoch}")
        self.temp[key] = record

    def drain(self, epoch: int) -> tuple[EventRecord, ...]:
        """Move the epoch's events into the side ledger, exactly once."""
        if epoch in self.side_ledger:
            raise EventError(f"epoch {epoch} drained twice")
        keys = [k for k in self.temp if k[1] == epoch]
        block = tuple(self.temp.pop(k) for k in sorted(keys))
        self.side_ledger[epoch] = block
        return block

    def audit_lines(self) -> list[str]:
        """Event log export: one compact record per published event.

        Each line is the JSON object with keys in sorted order, as
        `json.dumps(..., sort_keys=True)` writes it.
        """
        outcome = _json_str(ACTIVE)
        return [f'{{"approve": {rec.approvals}, "attempts": 1, '
                f'"chain": {rec.chain}, "epoch": {rec.epoch}, '
                f'"kind": {_json_str(rec.kind)}, "outcome": {outcome}, '
                f'"proposer": {_json_str(rec.proposer)}, "reject": 0}}'
                for rec in self.audit]
