"""Per-layer spans recorded from outside the simulator.

The tracer replaces the names `chainmesh.engine` binds from the library
modules, and methods of the `DagLedger` and `EventPools` classes it uses, with
timing wrappers. Nothing under `src/` is edited: the wrappers must be
installed before `Simulation` is built, because the engine looks these names
up at call time. A boundary that a later refactor removed or renamed is
recorded as absent instead of failing the run.

Spans (name, start, end, parent span) stay in memory and are written out when
the run ends. A span's self time is its duration minus the time its child
spans cover; the engine's own time is whatever no span covers.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from pathlib import Path
from time import perf_counter

import numpy as np

#: layer boundary -> name bound in `chainmesh.engine`
ENGINE_NAMES = {
    "coding.plan_groups": "plan_groups",
    "coding.decodable": "decodable",
    "roles.build_fleet": "build_fleet",
    "roles.schedule_issuance": "schedule_issuance",
    "roles.make_valid_block": "make_valid_block",
    "roles.make_invalid_block": "make_invalid_block",
    "balances.update_cumulative": "update_cumulative",
    "balances.validate_block": "validate_block",
    "balances.validate_tip_payloads": "validate_tip_payloads",
    "balances.net_balances": "net_balances",
    "balances.FlowAggregates": "FlowAggregates",
    "events.select_committee": "select_committee",
    "events.propose_and_vote": "propose_and_vote",
    "dag.assemble_confirmed_superblock": "assemble_confirmed_superblock",
}

#: layer boundary -> (class name bound in `chainmesh.engine`, method)
ENGINE_METHODS = {
    "dag.attach": ("DagLedger", "attach"),
    "dag.update_confirmations": ("DagLedger", "update_confirmations"),
    "dag.snapshot_lines": ("DagLedger", "snapshot_lines"),
    "events.publish": ("EventPools", "publish"),
    "events.drain": ("EventPools", "drain"),
    "events.audit_lines": ("EventPools", "audit_lines"),
}

#: called by the harness itself, looked up on `chainmesh.metrics`
WRITE_ARTIFACTS = "metrics.write_artifacts"

BOUNDARIES = tuple(ENGINE_NAMES) + tuple(ENGINE_METHODS) + (WRITE_ARTIFACTS,)

#: every per-layer metric the traced run reports, with its unit
PER_LAYER_UNITS = {f"{b}.{kind}": unit for b in BOUNDARIES
                   for kind, unit in (("calls", "count"), ("s", "s"))}
PER_LAYER_UNITS.update({
    "dag.confirm_yield": "ratio",
    "events.committee_reuse": "ratio",
    "events.audit_records": "count",
    "balances.state_bytes": "bytes",
    "balances.payload_bytes": "bytes",
    "metrics.artifact_bytes": "bytes",
    "engine.self_s": "s",
    "trace.overhead_s": "s",
})


def deep_nbytes(obj, seen: set | None = None) -> int:
    """Bytes of every distinct numpy array reachable through dataclass
    fields, tuples, lists and dict values."""
    if seen is None:
        seen = set()
    if id(obj) in seen:
        return 0
    if isinstance(obj, np.ndarray):
        seen.add(id(obj))
        return int(obj.nbytes)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        seen.add(id(obj))
        return sum(deep_nbytes(getattr(obj, f.name), seen)
                   for f in dataclasses.fields(obj))
    if isinstance(obj, (list, tuple)):
        return sum(deep_nbytes(x, seen) for x in obj)
    if isinstance(obj, dict):
        return sum(deep_nbytes(x, seen) for x in obj.values())
    return 0


class Tracer:
    """Records spans and counters at the layer boundaries of one run."""

    def __init__(self):
        # spans[i] = (name, start, end, parent index or -1)
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self.absent: list[str] = []
        self._attached = 0
        self._confirmed = 0
        self._scanned = 0
        self._committee_keys: set = set()
        self._payload_seen: set = set()
        self.payload_bytes = 0

    # -- installation ------------------------------------------------------

    def install(self, engine_module, metrics_module) -> None:
        """Wrap every boundary; call before `Simulation` is built."""
        hooks = {
            "dag.attach": self._on_attach,
            "dag.update_confirmations": self._on_confirmations,
            "events.select_committee": self._on_committee,
        }
        for name, attr in ENGINE_NAMES.items():
            fn = getattr(engine_module, attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            setattr(engine_module, attr, self.wrap(name, fn, hooks.get(name)))
        for name, (cls_name, method) in ENGINE_METHODS.items():
            cls = getattr(engine_module, cls_name, None)
            fn = getattr(cls, method, None) if cls is not None else None
            if fn is None:
                self.absent.append(name)
                continue
            setattr(cls, method, self.wrap(name, fn, hooks.get(name)))
        fn = getattr(metrics_module, "write_artifacts", None)
        if fn is None:
            self.absent.append(WRITE_ARTIFACTS)
        else:
            setattr(metrics_module, "write_artifacts",
                    self.wrap(WRITE_ARTIFACTS, fn))

    def wrap(self, name: str, fn, hook=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, spans[index][3])
            if hook is not None:
                hook(args, result)
            return result

        return traced

    # -- counters, taken from arguments and return values ------------------

    def _on_attach(self, args, block) -> None:
        self._attached += 1
        self.payload_bytes += deep_nbytes(block.payload, self._payload_seen)

    def _on_confirmations(self, args, newly) -> None:
        # every attached block not yet confirmed was pending for this scan
        self._scanned += self._attached - self._confirmed
        self._confirmed += len(newly)

    def _on_committee(self, args, committee) -> None:
        # select_committee(candidates, shared_seed, epoch, committee_size)
        self._committee_keys.add(tuple(args[1:3]))

    # -- results -----------------------------------------------------------

    def summary(self, wall_s: float, states, artifact_bytes: int) -> dict:
        """Per-layer metrics of the finished run (`trace.overhead_s` is left
        to the caller, which knows the untraced wall time)."""
        calls = dict.fromkeys(BOUNDARIES, 0)
        self_s = dict.fromkeys(BOUNDARIES, 0.0)
        covered = 0.0
        for name, start, end, parent in self.spans:
            duration = end - start
            calls[name] += 1
            self_s[name] += duration
            if parent >= 0:
                self_s[self.spans[parent][0]] -= duration
            else:
                covered += duration
        out = {}
        for b in BOUNDARIES:
            out[f"{b}.calls"] = calls[b]
            out[f"{b}.s"] = self_s[b]
        committees = len(self._committee_keys)
        out.update({
            "dag.confirm_yield": (self._confirmed / self._scanned
                                  if self._scanned else 0.0),
            "events.committee_reuse": (
                calls["events.select_committee"] / committees
                if committees else 0.0),
            "events.audit_records": calls["events.publish"],
            "balances.state_bytes": deep_nbytes(states),
            "balances.payload_bytes": self.payload_bytes,
            "metrics.artifact_bytes": artifact_bytes,
            "engine.self_s": wall_s - covered,
        })
        return out

    def write_spans(self, path: Path) -> None:
        """One JSON object per span; `parent` is a line index or -1."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
