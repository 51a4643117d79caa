"""The public surface of ``src/driftlearn`` is what the program reaches.

Every public top-level function, public class and public method of a
library module must be referenced in code somewhere in ``src/`` outside its
own ``def``, or in ``bench/*.py``.  A reference is a name, an attribute or
an imported name in the syntax tree; a string or a docstring is not one.
Reference computations that only tests call belong in ``tests/oracles.py``.
A name kept for another reason is listed in ``ALLOWED`` with that reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "driftlearn").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

ALLOWED: dict[str, str] = {}


def _public_defs(path: Path):
    """(qualified name, bare name, def node) of every public function, class
    and method of a public class in one module."""
    module = path.stem
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def _references(path: Path):
    """(name, line) of every name, attribute and imported name in one file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno


def unreferenced() -> list[str]:
    refs = {path: list(_references(path)) for path in SRC + BENCH}
    missing = []
    for path in SRC:
        for qualified, name, node in _public_defs(path):
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(
                ref == name and not (where == path and line in inside)
                for where, found in refs.items()
                for ref, line in found
            ):
                missing.append(qualified)
    return missing


def test_every_public_name_is_reached_from_src_or_bench():
    missing = [name for name in unreferenced() if name not in ALLOWED]
    assert missing == [], (
        f"public names only tests reach: {missing}; move them to tests/oracles.py, "
        "make them private, or list them in ALLOWED with a reason"
    )


def test_every_allowlisted_name_exists_and_still_needs_its_entry():
    assert set(ALLOWED) <= set(unreferenced())
    assert all(reason.strip() for reason in ALLOWED.values())
