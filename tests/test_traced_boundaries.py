"""Every layer boundary the benchmark tracer wraps is still bound and called.

`perfbench/tracer.py` wraps names bound in `chainmesh.engine` and methods of
classes bound there. A boundary that a refactor removed or renamed is
recorded as absent when a traced run installs the wrappers, so its
per-layer metrics quietly read zero. This test loads the tracer's two
tables from its file, without editing it, and fails on every such boundary,
and on one the engine binds but never calls, whose wrapper would never run.
Exceptions go in `UNBOUND` with a reason; an entry fails once its name is
bound again or the tracer no longer lists it.
"""

from __future__ import annotations

import ast
import importlib.util
import inspect
from pathlib import Path

import chainmesh.engine as engine

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

#: boundary the tracer lists but the engine does not bind -> why
UNBOUND = {
    "coding.decodable": "unbound since the planner decides groups itself; "
                        "ROADMAP item 1's harness mend drops it",
    "balances.update_cumulative": "the engine's ledger book updates in "
                                  "place; the MxM fold is its test oracle",
    "balances.FlowAggregates": "a window lands its blocks in the ledger "
                               "book without per-chain flow records",
    "balances.net_balances": "the engine reads net balances from its "
                             "ledger book; criterion 9 reads the oracle",
    "dag.assemble_confirmed_superblock": "no artifact read the super-block, "
                                         "so its assembly was deleted",
    "events.propose_and_vote": "a pool records each event as a bare "
                               "(kind, epoch, proposer) tuple",
    "events.drain": "the epoch generator fixes the stage order, so pools "
                    "keep no per-epoch state to close",
    "balances.validate_block": "folded into LedgerBook.debit, the "
                               "proposal's one check and spend verdict",
    "coding.plan_groups": "a run reads only the coded group layout, the "
                          "same on every chain; the planner is its oracle",
}


def _tracer_tables() -> tuple[dict, dict]:
    """The tracer's `ENGINE_NAMES` and `ENGINE_METHODS` tables."""
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.ENGINE_NAMES, tracer.ENGINE_METHODS


def _unbound() -> set[str]:
    names, methods = _tracer_tables()
    missing = {b for b, attr in names.items() if not hasattr(engine, attr)}
    missing |= {b for b, (cls, method) in methods.items()
                if not hasattr(getattr(engine, cls, None), method)}
    return missing


def test_tracer_tables_are_read():
    names, methods = _tracer_tables()
    assert "events.select_committee" in names
    assert methods["events.publish"] == ("EventPools", "publish")


def test_every_traced_boundary_is_bound_in_the_engine():
    unlisted = sorted(_unbound() - set(UNBOUND))
    assert not unlisted, (
        f"boundaries perfbench/tracer.py wraps that chainmesh.engine no "
        f"longer binds: {unlisted}; keep the names bound, or list them in "
        "UNBOUND with the reason")


def test_every_unbound_entry_is_still_listed_and_unbound():
    stale = sorted(set(UNBOUND) - _unbound())
    assert not stale, f"UNBOUND entries now bound or no longer traced: {stale}"


def test_every_traced_boundary_is_called_in_the_engine():
    # a name the engine imports but no longer calls is bound, yet its
    # wrapper never runs: the engine must load each traced name, and each
    # traced method as an attribute, somewhere in its own source
    tree = ast.parse(inspect.getsource(engine))
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    attrs = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load)}
    names, methods = _tracer_tables()
    uncalled = {b for b, attr in names.items() if attr not in loaded}
    uncalled |= {b for b, (_, method) in methods.items()
                 if method not in attrs}
    unlisted = sorted(uncalled - set(UNBOUND))
    assert not unlisted, (
        f"boundaries perfbench/tracer.py wraps that chainmesh.engine binds "
        f"but never calls: {unlisted}; call them from the engine module, or "
        "list them in UNBOUND with the reason")


def test_select_committee_keeps_the_argument_positions_the_tracer_reads():
    # the tracer's committee hook keys each draw by args[1:3], the shared
    # seed and the epoch, so those positions may not move
    assert "args[1:3]" in TRACER.read_text()
    params = list(inspect.signature(engine.select_committee).parameters)
    assert params[:3] == ["candidates", "shared_seed", "epoch"]
