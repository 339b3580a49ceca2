"""Fuzzing the document reader through ``lie2check.cli.main``.

One node of a corpus document is replaced by a value of the wrong type,
or deleted.  ``check`` and ``construct`` must then exit 0, 1 or 2 and
never raise, and a schema fault must exit 2 with one ``error:`` line.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from lie2check import serialize
from lie2check.cli import main
from lie2check.examples import EXAMPLES, build_example

# A construct recipe that reads each kind; selfdual2rep and dirac files
# have none that takes them as the only input.
RECIPES = {
    "liealgebroid": "standard", "tworep": "semidirect",
    "dorfman2rep": "split-from-dorfman", "splitlie2": "dorfman-from-split",
    "matched2reps": "bicrossproduct", "lapair": "core-courant",
    "courant": "adjoint",
}

DELETE = "<delete>"
VALUES = [None, True, 1.5, "x", {}, [], -1, 2 ** 70, DELETE]


def _document(name):
    obj, expect_fail = build_example(name)
    return serialize.encode_structure(obj, name=name, expect_fail=expect_fail)


DOCS = {name: _document(name) for name in sorted(EXAMPLES)}


def _paths(node, prefix=()):
    """The path of every node below ``node``, as keys and list indices."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


PATHS = {name: list(_paths(doc)) for name, doc in DOCS.items()}


def _json_type(value):
    return "int" if type(value) is int else type(value).__name__


def _mutate(doc, path, value):
    """A copy of ``doc`` with the node at ``path`` replaced or deleted, and
    whether the result is a schema fault by construction."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, old = path[-1], parent[path[-1]]
    if value is DELETE:
        del parent[key]
        # a list keeps its type when it loses an entry, and the
        # metadata fields are optional
        return doc, isinstance(parent, dict) and \
            key not in serialize.META_FIELDS
    parent[key] = value
    if _json_type(value) == "int" and _json_type(old) == "int":
        return doc, True   # no count, exponent or index is negative or huge
    # a coefficient may be written as an int as well as a string
    coefficient_int = key == "coeff" and _json_type(value) == "int"
    return doc, _json_type(value) != _json_type(old) and not coefficient_int


def mutations(names):
    return st.sampled_from(names).flatmap(lambda name: st.tuples(
        st.just(name), st.sampled_from(PATHS[name]),
        st.sampled_from(VALUES)))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    lie2 = path / "so3_lie2.json"
    lie2.write_text(serialize.dumps(DOCS["so3_lie2"]))
    return path, lie2


def _exits_cleanly(workdir, mutation, argv):
    name, path, value = mutation
    doc, fault = _mutate(DOCS[name], path, value)
    file = workdir[0] / "mutated.json"
    file.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv(DOCS[name]["kind"], str(file), str(workdir[1]))
                    + ["--out", str(workdir[0] / "out")])
    err = err.getvalue()
    assert code in (0, 1, 2), (name, path, value, code)
    assert "Traceback" not in err, err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    if fault:
        assert code == 2, (name, path, value, code, err)


@given(mutations(sorted(DOCS)))
@settings(max_examples=60, deadline=None)
@example(("tm_r1_lie1", ("anchor", 0, 0), {}))
def test_check_of_a_mutated_document_exits_cleanly(workdir, mutation):
    def argv(kind, path, lie2):
        if kind == "dirac":
            return ["check", "--mode", "dirac-vb", lie2, path]
        return ["check", path]
    _exits_cleanly(workdir, mutation, argv)


@given(mutations(sorted(n for n in DOCS if DOCS[n]["kind"] in RECIPES)))
@settings(max_examples=60, deadline=None)
@example(("tm_r1_lie1", ("anchor", 0, 0), {}))
def test_construct_from_a_mutated_document_exits_cleanly(workdir, mutation):
    _exits_cleanly(workdir, mutation,
                   lambda kind, path, lie2: ["construct", RECIPES[kind], path])
