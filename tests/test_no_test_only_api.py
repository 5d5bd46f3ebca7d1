"""No `src` dataclass field or constant may exist only for the tests.

Every field of a dataclass defined under `src/chainmesh/` must be read by
name somewhere in `src/`, loaded as an attribute. Inside the body of a
class `C`, `self.f` reads only `C.f`; any other `x.f` reads every field
named `f`. A bare name, such as a local variable or a keyword argument's
value, is not a field read, nor is setting a field by keyword, by
assignment or in place (`x.f += 1` only writes a counter). A dataclass
whose own method passes `self` to `asdict` reads every field. Exceptions go
in `UNREAD_FIELDS` with a reason.

Every public module-level constant under `src/chainmesh/` must be loaded
somewhere in `src/`, as a bare name or as a module attribute. Its own
assignment stores the name, so only loads count.

References other than `self.f` are matched by bare name, so the checks can
miss dead code whose name is reused elsewhere; they never flag live code. Functions and methods
are left to `tests/test_reach.py`, which requires every line of them to be
reached by the program itself; line reach cannot see a field or a constant
that is stored but never read.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "chainmesh"

#: "Class.field" of a src dataclass that src never reads -> why it stays
UNREAD_FIELDS = {
    "GroupSpec.members": "acceptance criterion 1 builds GroupSpec with it",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        fn = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(fn, ast.Name) and fn.id == "dataclass":
            return True
    return False


def _reads_every_field(node: ast.ClassDef) -> bool:
    """Whether a method of the class passes `self` to `asdict`."""
    return any(isinstance(call, ast.Call)
               and isinstance(call.func, ast.Name) and call.func.id == "asdict"
               and any(isinstance(arg, ast.Name) and arg.id == "self"
                       for arg in call.args)
               for call in ast.walk(node))


def _dataclass_fields() -> set[str]:
    """Annotated fields of every dataclass under src, qualified."""
    fields: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node) \
                    and not _reads_every_field(node):
                fields.update(f"{node.name}.{item.target.id}"
                              for item in node.body
                              if isinstance(item, ast.AnnAssign)
                              and isinstance(item.target, ast.Name))
    return fields


def _names_read_in_src() -> set[str]:
    """Attributes src loads: "C.f" for `self.f` in the body of class `C`,
    the bare "f" for any other `x.f`."""
    names: set[str] = set()

    def visit(node: ast.AST, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) \
                    and isinstance(child.ctx, ast.Load):
                own = (cls is not None and isinstance(child.value, ast.Name)
                       and child.value.id == "self")
                names.add(f"{cls}.{child.attr}" if own else child.attr)
            visit(child, child.name if isinstance(child, ast.ClassDef)
                  else cls)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), None)
    return names


def _unread_fields() -> set[str]:
    read = _names_read_in_src()
    return {q for q in _dataclass_fields()
            if q not in read and q.rsplit(".", 1)[-1] not in read}


def test_every_src_dataclass_field_is_read_in_src():
    unlisted = sorted(_unread_fields() - set(UNREAD_FIELDS))
    assert not unlisted, (
        f"dataclass fields no src code reads: {unlisted}; delete them, or "
        "list them in UNREAD_FIELDS with the reason they stay")


def test_every_unread_field_entry_is_still_unread():
    stale = sorted(set(UNREAD_FIELDS) - _unread_fields())
    assert not stale, f"UNREAD_FIELDS entries now read by src or gone: {stale}"


def _public_constants() -> set[str]:
    """Public names a src module assigns at module level, qualified."""
    consts: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            consts.update(f"{path.stem}.{name.id}" for target in targets
                          for name in ast.walk(target)
                          if isinstance(name, ast.Name)
                          and not name.id.startswith("_"))
    return consts


def _names_loaded_in_src() -> set[str]:
    names: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_no_public_src_constant_is_used_only_by_tests():
    loaded = _names_loaded_in_src()
    unused = sorted(q for q in _public_constants()
                    if q.rsplit(".", 1)[-1] not in loaded)
    assert not unused, (
        f"public src constants no src code loads: {unused}; delete them, "
        "or move them into the tests that read them")
