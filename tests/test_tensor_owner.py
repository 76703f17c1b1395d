"""Only ``_tensor`` builds a triple system or a Lie algebra around its table,
and only it writes an instance's attributes directly.

``Table._from_pairs`` skips ``__post_init__`` because its output is
antisymmetric by construction; a second module that set the fields of an
instance itself would skip the check without that guarantee.  The first
scan flags every call of ``object.__new__`` and every assignment of
``_nz`` (a target, a keyword argument or a string key).  A value kept on
an instance is a ``cached_property``; the second scan flags every other
way to keep one, a call of ``vars()`` or a use of ``__dict__``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lietriple"


def table_builds(path: Path) -> list:
    """The line numbers in path that call object.__new__ or assign _nz."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr == "__new__":
            hit = isinstance(node.value, ast.Name) and node.value.id == "object"
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            hit = any(getattr(t, "id", getattr(t, "attr", None)) == "_nz" for t in targets)
        else:
            hit = (isinstance(node, ast.keyword) and node.arg == "_nz") or (
                isinstance(node, ast.Constant) and node.value == "_nz"
            )
        if hit:
            lines.append(node.lineno)
    return lines


def test_only_the_tensor_module_builds_tables():
    # the scan finds the builder it is for
    assert table_builds(SRC / "_tensor.py")
    builders = {path.name: table_builds(path) for path in sorted(SRC.glob("*.py")) if path.name != "_tensor.py"}
    assert {name: lines for name, lines in builders.items() if lines} == {}


def instance_dict_uses(path: Path) -> list:
    """The line numbers in path that call vars() or name __dict__."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            hit = isinstance(node.func, ast.Name) and node.func.id == "vars"
        elif isinstance(node, ast.Attribute):
            hit = node.attr == "__dict__"
        else:
            hit = isinstance(node, ast.Constant) and node.value == "__dict__"
        if hit:
            lines.append(node.lineno)
    return lines


def test_only_the_tensor_module_writes_instance_dicts():
    # the scan finds the one write it allows, the builder's
    assert instance_dict_uses(SRC / "_tensor.py")
    uses = {path.name: instance_dict_uses(path) for path in sorted(SRC.glob("*.py")) if path.name != "_tensor.py"}
    assert {name: lines for name, lines in uses.items() if lines} == {}
