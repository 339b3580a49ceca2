"""JSON schema round trips and validation."""

import json
from pathlib import Path

import pytest

from lie2check import serialize
from lie2check.serialize import SchemaError
from lie2check.examples import EXAMPLES, build_example


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_round_trip_is_stable(name):
    obj, expect_fail = build_example(name)
    doc = serialize.encode_structure(obj, name=name, expect_fail=expect_fail)
    text = serialize.dumps(doc)
    kind, back, meta = serialize.decode_structure(json.loads(text))
    assert meta.get("name") == name
    if expect_fail is not None:
        assert meta["expect_fail"] == sorted(expect_fail)
    doc2 = serialize.encode_structure(back, name=name,
                                      expect_fail=expect_fail)
    assert serialize.dumps(doc2) == text


def _sample_doc():
    obj, _ = build_example("so3_quadratic")
    return serialize.encode_structure(obj)


def test_unknown_field_rejected():
    doc = _sample_doc()
    doc["surprise"] = 1
    with pytest.raises(SchemaError):
        serialize.decode_structure(doc)


def test_missing_field_rejected():
    doc = _sample_doc()
    del doc["pairing"]
    with pytest.raises(SchemaError):
        serialize.decode_structure(doc)


def test_bad_format_version_rejected():
    doc = _sample_doc()
    doc["format"] = 99
    with pytest.raises(SchemaError):
        serialize.decode_structure(doc)


def test_unknown_kind_rejected():
    doc = _sample_doc()
    doc["kind"] = "mystery"
    with pytest.raises(SchemaError):
        serialize.decode_structure(doc)


def test_shape_mismatch_rejected():
    doc = _sample_doc()
    doc["rank"] = 4
    with pytest.raises(SchemaError):
        serialize.decode_structure(doc)


def test_non_object_rejected():
    with pytest.raises(SchemaError):
        serialize.decode_structure([1, 2, 3])


def test_kind_of_rejects_foreign_objects():
    with pytest.raises(SchemaError):
        serialize.encode_structure(object())


def test_every_kind_has_an_example_and_every_example_a_kind():
    """With test_round_trip_is_stable, every table row is round-tripped."""
    kinds = {serialize.kind_of(build_example(name)[0]) for name in EXAMPLES}
    assert kinds == set(serialize._KINDS)


def _column_text(column):
    """A column type as the README's "File format" tables write it."""
    if isinstance(column, str):
        return "kind", f"`{column}`"
    if isinstance(column, serialize.Count):
        return "count", ""
    dims = [f"`{dim}`" for dim in column.dims]
    if isinstance(column, serialize.Matrix):
        if len(dims) == 1:
            dims.append("width of the data")
        return "matrix", " × ".join(dims)
    if isinstance(column, serialize.Components):
        return "components", " × ".join(dims)
    return "tensor", f"`{column.factory.__qualname__}`({', '.join(dims)})"


def test_readme_file_format_matches_the_table():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    section = text.split("\n## File format\n", 1)[1].split("\n## ", 1)[0]
    documented = {}
    for block in section.split("\n### ")[1:]:
        kind = block.split("`")[1]
        documented[kind] = [
            tuple(cell.strip() for cell in line.strip("|").split("|"))
            for line in block.splitlines()
            if line.startswith("| `")]
    assert documented == {
        kind: [(f"`{name}`", *_column_text(column))
               for name, column, _ in row.fields]
        for kind, row in serialize._KINDS.items()}
