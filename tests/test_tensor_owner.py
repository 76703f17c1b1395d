"""Only ``_tensor`` builds a triple system or a Lie algebra around its table.

``_tensor.build`` skips ``__post_init__`` because its output is
antisymmetric by construction; a second module that set the fields of an
instance itself would skip the check without that guarantee.  The scan
flags every call of ``object.__new__`` and every assignment of ``_nz``
(a target, a keyword argument or a string key).
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
