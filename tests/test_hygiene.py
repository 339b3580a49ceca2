"""Source hygiene: no module in ``src/`` or ``tests/`` imports a name it
never uses, and no module in ``src/`` writes into a ``terms`` mapping,
which the shared zero relies on.  The scans are stdlib only and read
each file with ``ast``.
"""

import ast
from pathlib import Path

import pytest

from lie2check.exactpoly import Polynomial

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path):
    """(line, name) for each name bound by an import and never read.

    ``from __future__ import ...`` is a compiler switch, not a binding.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    found = []
    for top in ("src", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            found += [f"{path.relative_to(ROOT)}:{line}: {name}"
                      for line, name in _unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)


# Polynomials share their operands and one zero per base dimension, so a
# terms mapping must never change once its constructor has handed it over.
# The constructors in ``exactpoly`` build a local dict and store it whole.
_MUTATORS = {"update", "pop", "popitem", "clear", "setdefault",
             "__setitem__", "__delitem__"}


def _is_terms(node):
    return isinstance(node, ast.Attribute) and node.attr == "terms"


def _flat(targets):
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            yield from _flat(target.elts)
        elif isinstance(target, ast.Starred):
            yield from _flat([target.value])
        else:
            yield target


def _terms_writes(path):
    """Line numbers of item writes into ``<expr>.terms``: assignment,
    augmented assignment, ``del`` and the mutating dict methods."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr in _MUTATORS
                    and _is_terms(func.value)):
                lines.append(node.lineno)
            continue
        else:
            continue
        lines += [t.lineno for t in _flat(targets)
                  if isinstance(t, ast.Subscript) and _is_terms(t.value)]
    return sorted(lines)


def test_no_writes_into_terms_mappings():
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for line in _terms_writes(path)]
    assert not found, "writes into a terms mapping:\n" + "\n".join(found)


@pytest.mark.parametrize("p", [0, 1, 3])
def test_zero_is_shared(p):
    zero = Polynomial.zero(p)
    assert zero is Polynomial.zero(p)
    assert Polynomial.const(p, 0) is zero
    assert Polynomial.const(p, 1).scale(0) is zero
    assert zero.terms == {} and zero.base_dim == p


# Witness tuples are formatted in one place, ``report.witness``; a checker
# names its sections through ``report.sweep`` and never writes "(q1, b2)"
# itself.  The scan flags an f-string inside a ``witness=`` argument or an
# assignment to a name ending in ``witness`` whose text opens with "(",
# directly or as the left end of a string sum.  Descriptive witnesses that
# name no tuple ("rank(B) = 2, base dimension = 1") are not tuples and
# stay where they are written.
def _opens_tuple(node):
    while isinstance(node, ast.BinOp):
        node = node.left
    if isinstance(node, ast.JoinedStr):
        node = node.values[0] if node.values else None
    return isinstance(node, ast.Constant) and str(node.value).startswith("(")


def _tuple_witness_fstrings(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    values = []
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "witness":
            values.append(node.value)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            if any(isinstance(t, ast.Name) and t.id.endswith("witness")
                   for t in _flat(targets)):
                values.append(node.value)
    return sorted(value.lineno for value in values
                  if value is not None and _opens_tuple(value)
                  and any(isinstance(n, ast.JoinedStr)
                          for n in ast.walk(value)))


def test_no_hand_formatted_witness_tuples():
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for line in _tuple_witness_fstrings(path)]
    assert not found, "witness tuples formatted outside report.witness:\n" \
        + "\n".join(found)


# Each file kind is one row of the schema table in ``serialize``; no kind
# has a hand-written encoder or decoder of its own.
def test_no_per_kind_encoders_or_decoders():
    found = [f"{path.relative_to(ROOT)}:{n}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for n, line in enumerate(path.read_text(encoding="utf-8")
                                      .splitlines(), 1)
             if line.lstrip().startswith(("def _encode_", "def _decode_"))]
    assert not found, "per-kind encoders or decoders:\n" + "\n".join(found)


# A tensor's index layout is stated once, by its data class's factory
# (``TwoRepData.curv_tensor`` and the like); the serializer and the CLI
# take it from there.
@pytest.mark.parametrize("module", ["serialize.py", "cli.py"])
def test_no_literal_tensor_layouts(module):
    path = ROOT / "src" / "lie2check" / module
    found = [f"{path.relative_to(ROOT)}:{n}"
             for n, line in enumerate(path.read_text(encoding="utf-8")
                                      .splitlines(), 1)
             if ", 2, True)" in line or ", 3, True)" in line]
    assert not found, "literal tensor layouts:\n" + "\n".join(found)


# A deferred placeholder reads as a pass until ``CheckReport.settle``
# proves or evaluates it, so a checker that marks draws with ``.sample(``
# must also call ``.settle(``.  The scan takes each function defined at
# module level or in a module-level class, with its nested defs.
def _unsettled_samplers(source, filename="<source>"):
    tree = ast.parse(source, filename)
    funcs = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            funcs += node.body
        else:
            funcs.append(node)
    found = []
    for func in funcs:
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        called = {n.func.attr for n in ast.walk(func)
                  if isinstance(n, ast.Call)
                  and isinstance(n.func, ast.Attribute)}
        if "sample" in called and "settle" not in called:
            found.append((func.lineno, func.name))
    return found


@pytest.mark.parametrize("source, flagged", [
    ("def check(r):\n    def draw():\n        return r.sample([1])\n"
     "    return draw()\n", True),
    ("def check(r):\n    def draw():\n        return r.sample([1])\n"
     "    draw()\n    return r.settle()\n", False),
    ("class C:\n    def check(self, r):\n        r.sample([1])\n", True),
])
def test_the_settle_scan_sees_nested_samplers(source, flagged):
    assert bool(_unsettled_samplers(source)) == flagged


def test_every_sampling_checker_settles():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for line, name in _unsettled_samplers(
                 path.read_text(encoding="utf-8"), str(path))]
    assert not found, "sampled draws never settled:\n" + "\n".join(found)


# Constructed tensors are built by ``PolyTensor.fill``, which owns the
# choice of stored index tuples; a ``.set((...), ...)`` call with an index
# tuple is a hand-written index loop.  Only the fixed corpus examples set
# single entries.
def _index_tuple_sets(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "set" and node.args
                  and isinstance(node.args[0], ast.Tuple))


def test_constructed_tensors_are_filled():
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             if path.name != "examples.py"
             for line in _index_tuple_sets(path)]
    assert not found, "tensor entries set by hand:\n" + "\n".join(found)


# Each check mode and construct recipe is one row of ``cli.MODES`` or
# ``cli.RECIPES``; no code in ``cli.py`` branches on a mode or recipe
# name.  The scan flags a comparison of ``mode`` or ``recipe`` (a name or
# an attribute) with a string literal other than "auto", or with a
# tuple, list or set of string literals, and a ``startswith`` or
# ``endswith`` test of one.
def _is_mode_or_recipe(node):
    name = node.id if isinstance(node, ast.Name) else \
        node.attr if isinstance(node, ast.Attribute) else None
    return name in ("mode", "recipe")


def _names_a_command(node):
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return bool(node.elts) and all(map(_names_a_command, node.elts))
    return isinstance(node, ast.Constant) and isinstance(node.value, str) \
        and node.value != "auto"


def _command_comparisons(source, filename="<source>"):
    lines = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(map(_is_mode_or_recipe, sides)) \
                    and any(map(_names_a_command, sides)):
                lines.append(node.lineno)
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("startswith", "endswith")
              and _is_mode_or_recipe(node.func.value)
              and any(map(_names_a_command, node.args))):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("source, flagged", [
    ('if mode == "courant":\n    pass\n', True),
    ('if args.recipe in ("manin-pair", "induced-la"):\n    pass\n', True),
    ('if mode.startswith("dirac-"):\n    pass\n', True),
    ('if "adjoint" != recipe:\n    pass\n', True),
    ('if mode == "auto":\n    pass\n', False),
    ('if kind == "dirac":\n    pass\n', False),
    ('row = MODES[mode]\n', False),
])
def test_the_command_scan_sees_branches_on_names(source, flagged):
    assert bool(_command_comparisons(source)) == flagged


def test_cli_has_no_branch_on_a_mode_or_recipe():
    path = ROOT / "src" / "lie2check" / "cli.py"
    found = [f"{path.relative_to(ROOT)}:{line}" for line in
             _command_comparisons(path.read_text(encoding="utf-8"), str(path))]
    assert not found, "mode or recipe compared with a name:\n" \
        + "\n".join(found)

