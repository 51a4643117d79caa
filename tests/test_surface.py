"""The public surface of ``src/driftlearn`` is what the program reaches.

Every public top-level function, public class and public method of a
library module must be referenced in code somewhere in ``src/`` outside its
own ``def``, or in ``bench/*.py``.  A reference is a name, an attribute or
an imported name in the syntax tree; a string or a docstring is not one.
Reference computations that only tests call belong in ``tests/oracles.py``.
A name kept for another reason is listed in ``ALLOWED`` with that reason.

Every private top-level function and class, and every private method of any
class, must be referenced in ``src/`` outside its own ``def``: a helper that
only tests reach is dead code.  Dunder names are exempt.

Every field of a dataclass in ``src/`` must be read as an attribute
somewhere in ``src/`` or ``bench/``: a field that nothing reads echoes an
input the caller already holds, or records what no one looks at.  A
learner's output that only tests read is listed in ``UNREAD_FIELDS`` with
its reason.

Every check here matches by bare name, not by owner.  A name read anywhere counts
for every definition of that name, so a public property or a field named
``T`` passes unseen (``.T`` is numpy's transpose throughout), as does a
field whose name another object's attribute shares.  The learners'
predictions show it: ``DvawRun``, ``AioliRun`` and ``EnsembleRun`` each
have a field ``yhats``.  Nothing in ``src/`` or ``bench/`` reads
``.yhats`` (``run-ensemble`` hands its mixability check each chunk's
mixture through a hook), so all three are seen, and listed in
``UNREAD_FIELDS``; one read of any of them would hide the other two.

The learners' LAPACK calls have one referee, ``streams._first_rejected``:
``LinAlgError`` is caught in exactly one function of ``src/``, and numpy's
private ``numpy.linalg._umath_linalg`` is imported in exactly one module,
and the learners take it from there.  A second copy of that decision fails
here.

Every relative bound check reads ``streams.bound_holds``: the slack
1e-9 (1 + |x|), with 1e-9 written as a literal or as a module constant
equal to it and |x| through ``abs`` or ``np.abs``, appears in exactly one
function of ``src/``.

Every f_t is ``regret._loss``: ``np.logaddexp`` is called in ``src/`` only
there and in the modules of ``LOGADDEXP_ALLOWED``.  Every gamma-bound reads
``regret._check_discounts``: a chained comparison ``0 < a <= b < 1`` appears
in exactly one function of ``src/``.

No file is held whole as text: ``src/`` calls no ``"".join``, ``read_bytes``
or ``read_text`` but the config reader's (``cli._read``), opens files for
writing in ``cli.main`` alone, and ``streams._write_rows`` is the codec's
one block formatter (``row * n % values``).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "driftlearn").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

ALLOWED: dict[str, str] = {
    "o2nc.O2ncTrace.xbar_final": "the point the conversion returns, its output",
}

UNREAD_FIELDS: dict[str, str] = {
    "linreg.DvawRun.yhats": "the predictions the learner played, its output",
    "logreg.AioliRun.yhats": "the predictions the learner played, its output",
    "logreg.EnsembleRun.yhats": "the mixture the ensemble played, its output",
    "o2nc.O2ncTrace.final_index": "the round of the returned point, drawn uniformly",
}


LOGADDEXP_ALLOWED: dict[str, str] = {
    "lemmas": "its oracles stand apart from the learners on purpose",
}


def _defs(path: Path, private: bool):
    """(qualified name, bare name, def node) of every private (or public)
    function and class of one module, and every private method of any class
    (or public method of a public class).  Dunder names are neither."""

    def wanted(name: str) -> bool:
        dunder = name.startswith("__") and name.endswith("__")
        return name.startswith("_") == private and not dunder

    module = path.stem
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if wanted(node.name):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef) and (private or wanted(node.name)):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and wanted(item.name):
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


def unreferenced(private: bool = False) -> list[str]:
    """Public names that nothing in ``src/`` or ``bench/`` references outside
    their own ``def``, or with ``private`` the private ones ``src/`` does not."""
    refs = {path: list(_references(path)) for path in SRC + ([] if private else BENCH)}
    missing = []
    for path in SRC:
        for qualified, name, node in _defs(path, private):
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


def test_every_private_name_is_reached_from_src():
    missing = unreferenced(private=True)
    assert missing == [], f"private names nothing in src/ reaches: {missing}; delete them"


def unread_fields() -> list[str]:
    """Fields of the dataclasses in ``src/`` whose name nothing in ``src/``
    or ``bench/`` reads as an attribute."""
    read = {
        node.attr
        for path in SRC + BENCH
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    missing = []
    for path in SRC:
        for node in ast.parse(path.read_text()).body:
            if not (isinstance(node, ast.ClassDef) and any(
                    ast.unparse(deco).startswith("dataclass") for deco in node.decorator_list)):
                continue
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and item.target.id not in read:
                    missing.append(f"{path.stem}.{node.name}.{item.target.id}")
    return missing


def test_every_dataclass_field_is_read_in_src_or_bench():
    missing = [name for name in unread_fields() if name not in UNREAD_FIELDS]
    assert missing == [], (
        f"dataclass fields nothing in src/ or bench/ reads: {missing}; drop them, "
        "or list them in UNREAD_FIELDS with a reason"
    )


def test_every_unread_field_entry_exists_and_still_needs_it():
    assert set(UNREAD_FIELDS) <= set(unread_fields())
    assert all(reason.strip() for reason in UNREAD_FIELDS.values())


def enclosing(match) -> list[str]:
    """The function (``module.qualname``, or the module itself) around each
    node of ``src/`` that ``match`` accepts, one entry per node."""
    found = []

    def visit(node, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if match(node):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in SRC:
        visit(ast.parse(path.read_text()), path.stem)
    return found


def catching(exception: str) -> list[str]:
    """The function around each ``except`` clause in ``src/`` that names
    ``exception``."""
    return enclosing(lambda node: isinstance(node, ast.ExceptHandler) and node.type is not None
                     and any(exception in (getattr(n, "id", None), getattr(n, "attr", None))
                             for n in ast.walk(node.type)))


def importing(module: str) -> list[str]:
    """The modules of ``src/`` that import ``module`` or a name from it."""
    found = []
    for path in SRC:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(name == module or name.startswith(module + ".") for name in names):
                found.append(path.stem)
    return found


def test_linalg_errors_are_caught_in_one_function():
    where = sorted(set(catching("LinAlgError")))
    assert len(where) == 1, f"LinAlgError is caught in {where}; use streams._first_rejected"


def test_the_private_lapack_module_is_imported_in_one_module():
    where = importing("numpy.linalg._umath_linalg")
    assert len(where) == 1, (
        f"numpy.linalg._umath_linalg is imported in {where}; take it from streams"
    )


def _is_abs_plus_one(node) -> bool:
    """``1 + abs(x)`` or ``1 + np.abs(x)``, in either order."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
        return False
    sides = (node.left, node.right)
    one = any(isinstance(n, ast.Constant) and n.value == 1 for n in sides)
    absolute = any(
        isinstance(n, ast.Call)
        and (getattr(n.func, "id", None) == "abs" or getattr(n.func, "attr", None) == "abs")
        for n in sides
    )
    return one and absolute


def relative_slacks() -> list[str]:
    """The function (``module.qualname``, or the module itself) around each
    product of 1e-9 with ``1 + |x|`` in ``src/``, one entry per product."""
    found = []
    for path in SRC:
        tree = ast.parse(path.read_text())
        tiny = {
            target.id
            for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and isinstance(node.value, ast.Constant)
            and node.value.value == 1e-9
        }

        def is_tiny(node) -> bool:
            return (isinstance(node, ast.Constant) and node.value == 1e-9) or (
                isinstance(node, ast.Name) and node.id in tiny)

        def visit(node, where: str) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                where = f"{where}.{node.name}"
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and (
                (is_tiny(node.left) and _is_abs_plus_one(node.right))
                or (is_tiny(node.right) and _is_abs_plus_one(node.left))
            ):
                found.append(where)
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(tree, path.stem)
    return found


def test_the_relative_slack_is_written_in_one_function():
    where = relative_slacks()
    assert where == ["streams.bound_holds"], (
        f"the slack 1e-9 (1 + |x|) is written at {where}; call streams.bound_holds"
    )


def test_logaddexp_is_called_only_in_the_loss():
    where = enclosing(lambda n: isinstance(n, ast.Call)
                      and getattr(n.func, "attr", getattr(n.func, "id", None)) == "logaddexp")
    strays = [w for w in where if w.split(".")[0] not in LOGADDEXP_ALLOWED]
    assert strays == ["regret._loss"], (
        f"np.logaddexp is called at {strays}; take the losses from regret._loss"
    )
    assert set(LOGADDEXP_ALLOWED) <= {w.split(".")[0] for w in where}
    assert all(reason.strip() for reason in LOGADDEXP_ALLOWED.values())


def _is_unit_interval_chain(node) -> bool:
    """``0 < a <= b < 1``, with 0 and 1 as int or float literals."""
    return (
        isinstance(node, ast.Compare)
        and [type(op) for op in node.ops] == [ast.Lt, ast.LtE, ast.Lt]
        and isinstance(node.left, ast.Constant) and node.left.value == 0
        and isinstance(node.comparators[-1], ast.Constant) and node.comparators[-1].value == 1
    )


def test_the_discount_hypothesis_is_written_in_one_function():
    where = enclosing(_is_unit_interval_chain)
    assert where == ["regret._check_discounts"], (
        f"0 < beta <= gamma < 1 is written at {where}; call regret._check_discounts"
    )


def _called(node, name: str) -> bool:
    """``node`` is a call of a function or method named ``name``."""
    return isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def _opens_for_writing(node) -> bool:
    """``open(..., mode)`` or ``path.open(mode)`` with a mode that writes, or
    a ``write_text`` or ``write_bytes``."""
    if _called(node, "write_text") or _called(node, "write_bytes"):
        return True
    if not _called(node, "open"):
        return False
    # open(file, mode) takes its mode second; Path.open(mode) first
    at = 1 if isinstance(node.func, ast.Name) else 0
    modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[at:at + 1]
    return any(isinstance(m, ast.Constant) and set(str(m.value)) & set("wax+") for m in modes)


def test_no_file_is_held_whole_as_text():
    # The codec streams: a reader takes its input in pieces and a writer
    # writes a block at a time into the file main opened.  Only the config,
    # a few lines of key=value text, is read whole, and only --emit-config's
    # config is written whole.
    joins = enclosing(lambda n: _called(n, "join")
                      and isinstance(getattr(n.func, "value", None), ast.Constant)
                      and n.func.value.value == "")
    assert joins == [], f'"".join at {joins}; write each block into the open file'
    assert enclosing(lambda n: _called(n, "read_text")) == ["cli._read"]
    assert enclosing(lambda n: _called(n, "read_bytes")) == []


def test_main_alone_opens_files_for_writing():
    where = enclosing(_opens_for_writing)
    assert where and set(where) == {"cli.main"}, (
        f"files are opened for writing at {where}; return a writer for cli.main to call")


def test_the_codec_has_one_block_formatter():
    # a block is one % of a row template repeated per row, ``row * n % values``
    where = enclosing(lambda n: isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mod)
                      and isinstance(n.left, ast.BinOp) and isinstance(n.left.op, ast.Mult))
    assert where == ["streams._write_rows"], (
        f"rows are formatted at {where}; write them through streams._write_rows")
