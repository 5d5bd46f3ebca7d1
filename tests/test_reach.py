"""Every line of every `src` function is reached by the program itself.

A fixed corpus runs through `chainmesh.cli.main` under `sys.settrace`, with
only frames of `src/chainmesh/` traced, so a line counts as reached only
when the command line front end gets to it, never when a test calls it:

- `preset <name> --seeds 0 --out DIR` for every desk preset, and
  `preset nosuch`;
- one `run` manifest, with an `out_dir`, holding every run of
  `tests/corpus.py` at its first seed, whose fuzz configs that fail
  validation and named overflows become the failure records they are;
- `validate` on a config file;
- a small `run` once under `$CHAINMESH_OUT` and once into the default
  directory under the working directory.

Counted are the lines of each function's code object, as `co_lines()`
lists them, with the comprehensions and lambdas nested in it, and the first
line of every statement in it that the compiler dropped as dead, such as
an `if False:` branch. Every one of them must be reached, except the lines
of `raise` statements and of `except` handlers, which the tests reach by
name, and the functions listed in `UNREACHED`, each with its exact count
of unreached lines and the reason it stays. A new dead line in a listed
function changes its count, so it fails too. The counts are those of
CPython 3.11's line tables.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import sys
from pathlib import Path
from types import CodeType

import pytest

import chainmesh
from chainmesh.cli import (ENV_OUT, EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION,
                           main)
from chainmesh.presets import preset_names
from corpus import RUNS

SRC = Path(chainmesh.__file__).parent

# code objects carry their qualified names from CPython 3.11 on
pytestmark = pytest.mark.skipif(sys.version_info < (3, 11),
                                reason="needs CPython 3.11's co_qualname")

C1 = "oracle of acceptance criterion 1, coding-round-trip"
C2 = "oracle of acceptance criterion 2, coded-ledger-equivalence"
C3 = "oracle of acceptance criterion 3, aggregated-weight-oracle"
C9 = "oracle of acceptance criterion 9, exact-conservation"
LAYOUT = "oracle of the engine's coded layout and of criteria 1-2"
STATES = ("the end-of-run ledger states, built only when read: by "
          "acceptance criterion 9, tools/identity.py and the benchmark's "
          "tracer")

#: "module.qualname" of a src function -> (its exact count of unreached
#: lines, why they stay)
UNREACHED = {
    "coding.decodable": (2, C1),
    "coding.decode": (30, C1),
    "coding.expand": (11, C1 + ": encodes the data blocks"),
    "coding.hadamard": (5, C1 + ": encodes the data blocks"),
    "coding._butterfly": (10, "the transform of hadamard and decode"),
    "coding._as_int64": (7, "the entry check of expand, hadamard, "
                         "decode and CodedLedgerImage.apply_epoch"),
    "coding._lost_positions": (4, "helper of decodable and decode"),
    "coding.GroupSpec.data_positions": (3, "helper of expand and decode"),
    "coding.StragglerProfile.from_probabilities": (3, C1 + " and " + C2),
    "coding.CodedLedgerImage.__init__": (6, C2),
    "coding.CodedLedgerImage.apply_epoch": (16, C2),
    "coding.CodedLedgerImage.decode_totals": (9, C2),
    "dag.ChainWeights.from_values": (4, C3),
    "dag.ChainWeights.__getitem__": (2, C3 + ": it reads ledger.weights[c]"),
    "balances.new_state": (6, C2),
    "balances.update_cumulative": (12, C2 + "; the oracle of the engine's "
                                   "ledger book"),
    "balances.FlowAggregates.__post_init__": (3, "builds the flows "
                                              "update_cumulative folds"),
    "balances.net_balances": (2, C9 + "; the oracle of LedgerBook.net"),
    "coding.plan_groups": (14, LAYOUT),
    "coding._repair_frozen": (24, LAYOUT),
    "coding._pins_lost": (2, LAYOUT),
    "coding._frozen_by_lost": (4, LAYOUT),
    "coding._bareiss": (23, LAYOUT),
    "coding.GroupSpec.rows_per_block": (2, LAYOUT),
    "balances.CumulativeState.__post_init__": (
        13, C2 + "; and the state type of " + STATES),
    "balances.CumulativeState.accounts": (2, "helper of CumulativeState"),
    "balances.LedgerBook.state": (8, STATES),
    "engine.RunResult.states": (2, STATES),
}


def _exempt(tree: ast.Module) -> set[int]:
    """Lines of the `raise` statements and `except` handlers in `tree`."""
    return {line for node in ast.walk(tree)
            if isinstance(node, (ast.Raise, ast.ExceptHandler))
            for line in range(node.lineno, node.end_lineno + 1)}


def _lines(code: CodeType, exempt: set[int]) -> set[int]:
    """The counted lines of `code` itself, not of the code nested in it."""
    return {line for _, _, line in code.co_lines()
            if line is not None and line not in exempt}


def _statements(node: ast.AST) -> set[int]:
    """First lines of the statements in a function's own body that compile
    to code, whether or not the compiler kept it: code it drops as dead,
    such as an `if False:` branch, has no line in `co_lines()`."""
    lines = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(child, ast.stmt) and not (
                isinstance(child, (ast.Pass, ast.Global, ast.Nonlocal))
                or isinstance(child, ast.Expr)
                and isinstance(child.value, ast.Constant)
                or isinstance(child, ast.AnnAssign) and child.value is None):
            lines.add(child.lineno)
        lines |= _statements(child)
    return lines


def _functions() -> dict[str, tuple[str, set[int]]]:
    """"module.qualname" -> (file, counted lines) of every src function.

    A code object named like `<listcomp>` or `<lambda>` is folded into the
    function it is nested in.
    """
    found: dict[str, tuple[str, set[int]]] = {}
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        tree = ast.parse(source)
        exempt = _exempt(tree)
        # a function's code starts at its first decorator
        defs = {(node.decorator_list or [node])[0].lineno: node
                for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}

        def visit(code: CodeType, owner: str | None) -> None:
            is_function = bool(code.co_flags & inspect.CO_NEWLOCALS)
            if is_function and not code.co_name.startswith("<"):
                owner = f"{path.stem}.{code.co_qualname}"
                found[owner] = (str(path), _statements(
                    defs[code.co_firstlineno]) - exempt)
            if is_function and owner is not None:
                found[owner][1].update(_lines(code, exempt))
            for const in code.co_consts:
                if isinstance(const, CodeType):
                    visit(const, owner)

        visit(compile(source, str(path), "exec"), None)
    return found


def _reached(run) -> set[tuple[str, int]]:
    """(file, line) of every counted src line executed while `run()` runs.

    Only src frames are traced, and a code object stops being traced once
    every one of its counted lines has run.
    """
    exempt = {str(path): _exempt(ast.parse(path.read_text()))
              for path in SRC.glob("*.py")}
    # a memo that outlives a run, filled by an earlier test, would hide its
    # function's lines: no src module may keep one
    for path in SRC.glob("*.py"):
        module = importlib.import_module(f"chainmesh.{path.stem}")
        assert not [name for name, value in vars(module).items()
                    if hasattr(value, "cache_clear")], module.__name__
    counted: dict[CodeType, set[int]] = {}
    left: dict[CodeType, set[int]] = {}     # counted lines not yet run

    def local(frame, event, arg):
        left[frame.f_code].discard(frame.f_lineno)
        return local

    def call(frame, event, arg):
        code = frame.f_code
        if code not in left:
            file = code.co_filename
            counted[code] = _lines(code, exempt[file]) if file in exempt \
                else set()
            left[code] = set(counted[code])
        if not left[code]:
            return None
        return local(frame, event, arg)

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return {(code.co_filename, line) for code, lines in counted.items()
            for line in lines - left[code]}


def _corpus(tmp: Path, monkeypatch) -> None:
    """Drive the corpus through `main`, checking each exit code."""
    for name in preset_names():
        assert main(["preset", name, "--seeds", "0", "--quiet",
                     "--out", str(tmp / "presets")]) == EXIT_OK, name
    assert main(["preset", "nosuch"]) == EXIT_VALIDATION

    scenarios = [{"label": run.name, "seeds": [run.seeds[0]],
                  "config": run.overrides} for run in RUNS]
    manifest = tmp / "manifest.json"
    manifest.write_text(json.dumps({"scenarios": scenarios,
                                    "out_dir": str(tmp / "manifest")}))
    # the fuzz corpus holds named overflows, so the batch ends at run time
    assert main(["run", str(manifest)]) == EXIT_RUNTIME

    config = tmp / "config.json"
    config.write_text(json.dumps({"chains": 3}))
    assert main(["validate", str(config)]) == EXIT_OK

    small = tmp / "small.json"
    small.write_text(json.dumps({"scenarios": [
        {"label": "small", "config": {"duration_min": 0.1}}]}))
    monkeypatch.chdir(tmp)
    monkeypatch.setenv(ENV_OUT, str(tmp / "env"))
    assert main(["run", str(small), "--quiet"]) == EXIT_OK
    monkeypatch.delenv(ENV_OUT)
    assert main(["run", str(small), "--quiet"]) == EXIT_OK
    assert (tmp / "env" / "small").is_dir()
    assert (tmp / "chainmesh-runs" / "small").is_dir()


@pytest.fixture(scope="module")
def unreached(tmp_path_factory) -> dict[str, list[int]]:
    """"module.qualname" -> unreached counted lines, of every function."""
    tmp = tmp_path_factory.mktemp("reach")
    with pytest.MonkeyPatch.context() as monkeypatch:
        reached = _reached(lambda: _corpus(tmp, monkeypatch))
    return {name: sorted(line for line in lines if (path, line) not in reached)
            for name, (path, lines) in _functions().items()}


def test_every_src_line_is_reached(unreached):
    unlisted = {name: lines for name, lines in unreached.items()
                if lines and name not in UNREACHED}
    assert not unlisted, (
        f"src lines no run reaches (function: lines): {unlisted}; make the "
        "corpus reach them, delete them, or list the function in UNREACHED "
        "with its count and the reason it stays")


def test_every_unreached_entry_is_exact(unreached):
    stale = {name: (count, len(unreached[name]) if name in unreached
                    else "gone")
             for name, (count, _) in UNREACHED.items()
             if not count or count != len(unreached.get(name, ()))}
    assert not stale, (
        f"UNREACHED entries gone from src or miscounted "
        f"(function: (listed, unreached)): {stale}")
