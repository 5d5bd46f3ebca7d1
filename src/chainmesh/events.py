"""Committee-gated event machinery driving each chain's epoch pipeline.

An oracle turns stage outputs into events; a stake-plus-lottery committee
signs off on each one, with its top-ranked member proposing and every member
approving. Per epoch each chain keeps a temporary pool of its events, drained
exactly once into a per-epoch side ledger that doubles as the audit log.
"""

from __future__ import annotations

import hashlib
import json
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


def vrf_output(node_secret, shared_seed, epoch: int) -> int:
    """Deterministic per-node lottery draw; verification is recomputation."""
    h = hashlib.sha256()
    h.update(_to_bytes(node_secret))
    h.update(b"|")
    h.update(_to_bytes(shared_seed))
    h.update(b"|")
    h.update(str(int(epoch)).encode())
    return int.from_bytes(h.digest(), "big")


@dataclass(frozen=True)
class CommitteeSelection:
    """Ranked committee for one chain and epoch."""

    epoch: int
    members: tuple[str, ...]               # rank order, best first
    vrf_outputs: Mapping[str, int]
    scores: Mapping[str, int]              # stake * draw, numerator over 2**256

    def size(self) -> int:
        return len(self.members)


def select_committee(candidates: Sequence[tuple[str, int]], shared_seed,
                     epoch: int, committee_size: int,
                     secrets: Mapping[str, object] | None = None
                     ) -> CommitteeSelection:
    """Pick the `committee_size` best stake-times-draw scores, rank ordered.

    `candidates` is a sequence of (node id, stake). Node secrets default to
    the node id itself; ties break to the lower node id.
    """
    if committee_size < 1:
        raise EventError("committee size must be at least 1")
    if committee_size > len(candidates):
        raise EventError(f"committee of {committee_size} from "
                         f"{len(candidates)} candidates")
    draws: dict[str, int] = {}
    scores: dict[str, int] = {}
    for node_id, stake in candidates:
        if stake <= 0:
            raise EventError(f"node {node_id!r} has non-positive stake")
        secret = secrets[node_id] if secrets is not None else node_id
        draw = vrf_output(secret, shared_seed, epoch)
        draws[node_id] = draw
        scores[node_id] = stake * draw
    ranked = sorted(scores, key=lambda nid: (-scores[nid], nid))
    members = tuple(ranked[:committee_size])
    return CommitteeSelection(epoch=epoch, members=members,
                              vrf_outputs=draws, scores=scores)


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
        """Event log export: one compact record per published event."""
        lines = []
        for rec in self.audit:
            lines.append(json.dumps({
                "chain": rec.chain,
                "epoch": rec.epoch,
                "kind": rec.kind,
                "proposer": rec.proposer,
                "approve": rec.approvals,
                "reject": 0,
                "attempts": 1,
                "outcome": ACTIVE,
            }, sort_keys=True))
        return lines
