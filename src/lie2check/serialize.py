"""Versioned JSON serialization for every structure kind.

Every document carries {"format": 1, "kind": <tag>, ...payload...} plus
the optional metadata fields "name" (a string) and "expect_fail" (a list
of strings).  Unknown fields are rejected.

Each kind is one row of ``_KINDS``: its data class, the field holding
the base dimension of its polynomials, its fields and a build step that
calls the constructor.  A field is a JSON name, a column type and the
attribute path that encodes it (the JSON name when omitted).  A column
type is a ``Count``, ``Matrix``, ``Components`` or ``Tensor``, or the
name of a nested kind; its dimensions name earlier fields, and a nested
kind's own fields as "<field>.<subfield>".  ``encode_structure`` and
``decode_structure`` walk the table.
"""

from __future__ import annotations

import json
from operator import attrgetter

from .exactpoly import Polynomial, PolyMatrix, PolyTensor
from .bundle import (
    AnchoredBundle, BaseSpace, DullBracket, LieAlgebroidData,
    LinearConnection, TwoRepData,
)
from .lie2 import Dorfman2Rep, DorfmanConnection, SplitLie2Data
from .poisson import SelfDual2Rep
from .matched import LAPairData, MatchedPair2Reps
from .courant import DegenerateCourant, DiracData

FORMAT_VERSION = 1

META_FIELDS = ("name", "expect_fail")


class SchemaError(ValueError):
    """Raised when a document does not match the expected schema."""


def decoding(context, decode, *args):
    """decode(*args), with a malformed input reported as a SchemaError
    that names ``context``."""
    try:
        return decode(*args)
    except SchemaError:
        raise
    except (ValueError, TypeError, KeyError, IndexError) as exc:
        raise SchemaError(f"{context}: {exc}") from exc


# ---------------------------------------------------------------------------
# column types: decode(data, base_dim, *dims) takes the values of the
# fields that ``dims`` names (the CLI's side-file loaders pass them
# directly) and raises ValueError, TypeError, KeyError or IndexError on
# malformed data


class Count:
    """A rank or dimension: a non-negative int (bool is rejected)."""

    dims = ()

    def encode(self, value):
        return value

    def decode(self, data, base_dim):
        if isinstance(data, bool) or not isinstance(data, int) or data < 0:
            raise ValueError(f"expected a non-negative integer, got {data!r}")
        return data


class Matrix:
    """A rows x cols polynomial matrix; with cols None the width is
    taken from the data."""

    def __init__(self, rows, cols):
        self.dims = (rows,) if cols is None else (rows, cols)

    def encode(self, value):
        return value.to_json()

    def decode(self, data, base_dim, rows, cols=None):
        if not isinstance(data, list) or \
                not all(isinstance(row, list) for row in data):
            raise ValueError("expected a list of rows")
        if cols is None:
            cols = len(data[0]) if data else 0
        return PolyMatrix.from_json(base_dim, rows, cols, data)


def _has_shape(data, shape):
    """True when data is nested lists with the given lengths."""
    if not shape:
        return True
    return isinstance(data, list) and len(data) == shape[0] and \
        all(_has_shape(item, shape[1:]) for item in data)


class Components:
    """Frame components: a three-level nested list of polynomials, such
    as bracket structure functions or Christoffel symbols."""

    def __init__(self, *shape):
        self.dims = shape

    def encode(self, value):
        return [[[e.to_json() for e in row] for row in plane]
                for plane in value]

    def decode(self, data, base_dim, *shape):
        if not _has_shape(data, shape):
            raise ValueError("component shape mismatch")
        return [[[Polynomial.from_json(base_dim, e) for e in row]
                 for row in plane] for plane in data]


class Tensor:
    """A PolyTensor whose index layout is the data class's factory,
    called as factory(base_dim, *dims)."""

    def __init__(self, factory, *dims):
        self.factory = factory
        self.dims = dims

    def encode(self, value):
        return value.to_json()

    def decode(self, data, base_dim, *dims):
        groups = self.factory(base_dim, *dims).groups
        return PolyTensor.from_json(base_dim, groups, data)


COUNT = Count()


# ---------------------------------------------------------------------------
# the table


class Kind:
    """One file kind, one row of the table: see the module docstring."""

    def __init__(self, cls, base, fields, build):
        self.cls = cls
        self.base = base
        self.fields = [(name, column, path[0] if path else name)
                       for name, column, *path in fields]
        self.build = build

    def encode(self, obj):
        payload = {}
        for name, column, path in self.fields:
            if isinstance(column, str):
                column = _KINDS[column]
            payload[name] = column.encode(attrgetter(path)(obj))
        return payload

    def decode(self, data, context):
        """The structure and the decoded value of each field, a nested
        kind's fields included as "<field>.<subfield>"."""
        if not isinstance(data, dict):
            raise SchemaError(f"{context}: expected a JSON object")
        names = {name for name, _, _ in self.fields}
        extra = data.keys() - names
        missing = names - data.keys()
        if extra:
            raise SchemaError(f"{context}: unknown fields {sorted(extra)}")
        if missing:
            raise SchemaError(f"{context}: missing fields {sorted(missing)}")
        values = {}
        for name, column, _ in self.fields:
            where = f"{context}.{name}"
            if isinstance(column, str):
                values[name], nested = _KINDS[column].decode(data[name], where)
                values.update((f"{name}.{k}", v) for k, v in nested.items())
            else:
                values[name] = decoding(
                    where, column.decode, data[name], values.get(self.base),
                    *(values[dim] for dim in column.dims))
        return decoding(context, self.build, values), values


def _bundle(v, rank):
    return AnchoredBundle(BaseSpace(v["base_dim"]), v[rank], v["anchor"])


def _algebroid(v):
    bundle = _bundle(v, "rank")
    return LieAlgebroidData(bundle, DullBracket(bundle, v["bracket"]))


def _tworep(v):
    bundle = v["algebroid"].bundle
    return TwoRepData(v["algebroid"], v["rank_b"], v["rank_c"], v["partial"],
                      LinearConnection(bundle, v["rank_b"], v["connB"]),
                      LinearConnection(bundle, v["rank_c"], v["connC"]),
                      v["curv"])


def _dorfman2rep(v):
    bundle = _bundle(v, "rank_q")
    return Dorfman2Rep(bundle, v["rank_b"], v["partial_b"],
                       DorfmanConnection(bundle, v["delta"]),
                       LinearConnection(bundle, v["rank_b"], v["nablaB"]),
                       v["curv"])


def _splitlie2(v):
    bundle = _bundle(v, "rank_q")
    return SplitLie2Data(bundle, v["rank_b"], v["l1"],
                         DullBracket(bundle, v["bracket"]),
                         LinearConnection(bundle, v["rank_b"], v["nablaB"]),
                         v["l3"])


def _selfdual2rep(v):
    alg = v["algebroid"]
    return SelfDual2Rep(alg, v["rank_q"], v["partial_q"],
                        LinearConnection(alg.bundle, v["rank_q"], v["nablaQ"]),
                        v["curvB"])


def _matched2reps(v):
    a, b = v["algA"].bundle, v["algB"].bundle
    ra, rb, rc = a.rank, b.rank, v["rank_c"]
    return MatchedPair2Reps(v["algA"], v["algB"], rc, v["partialA"],
                            v["partialB"],
                            LinearConnection(a, rb, v["nablaAB"]),
                            LinearConnection(a, rc, v["nablaAC"]),
                            LinearConnection(b, ra, v["nablaBA"]),
                            LinearConnection(b, rc, v["nablaBC"]),
                            v["curvAB"], v["curvBA"])


_KINDS = {
    "liealgebroid": Kind(LieAlgebroidData, "base_dim", [
        ("base_dim", COUNT, "bundle.base_dim"),
        ("rank", COUNT, "bundle.rank"),
        ("anchor", Matrix("base_dim", "rank"), "bundle.anchor"),
        ("bracket", Components("rank", "rank", "rank"), "bracket.comps"),
    ], _algebroid),
    "tworep": Kind(TwoRepData, "algebroid.base_dim", [
        ("algebroid", "liealgebroid"),
        ("rank_b", COUNT),
        ("rank_c", COUNT),
        ("partial", Matrix("rank_b", "rank_c")),
        ("connB", Components("algebroid.rank", "rank_b", "rank_b"),
         "connB.gamma"),
        ("connC", Components("algebroid.rank", "rank_c", "rank_c"),
         "connC.gamma"),
        ("curv", Tensor(TwoRepData.curv_tensor, "algebroid.rank", "rank_b",
                        "rank_c")),
    ], _tworep),
    "dorfman2rep": Kind(Dorfman2Rep, "base_dim", [
        ("base_dim", COUNT, "bundle.base_dim"),
        ("rank_q", COUNT),
        ("rank_b", COUNT),
        ("anchor", Matrix("base_dim", "rank_q"), "bundle.anchor"),
        ("partial_b", Matrix("rank_b", "rank_q")),
        ("delta", Components("rank_q", "rank_q", "rank_q"), "delta.comps"),
        ("nablaB", Components("rank_q", "rank_b", "rank_b"), "nablaB.gamma"),
        ("curv", Tensor(Dorfman2Rep.curv_tensor, "rank_q", "rank_b")),
    ], _dorfman2rep),
    "splitlie2": Kind(SplitLie2Data, "base_dim", [
        ("base_dim", COUNT, "bundle.base_dim"),
        ("rank_q", COUNT),
        ("rank_b", COUNT),
        ("anchor", Matrix("base_dim", "rank_q"), "bundle.anchor"),
        ("l1", Matrix("rank_q", "rank_b")),
        ("bracket", Components("rank_q", "rank_q", "rank_q"),
         "bracket.comps"),
        ("nablaB", Components("rank_q", "rank_b", "rank_b"), "nablaB.gamma"),
        ("l3", Tensor(SplitLie2Data.l3_tensor, "rank_q", "rank_b")),
    ], _splitlie2),
    "selfdual2rep": Kind(SelfDual2Rep, "algebroid.base_dim", [
        ("algebroid", "liealgebroid"),
        ("rank_q", COUNT),
        ("partial_q", Matrix("rank_q", "rank_q")),
        ("nablaQ", Components("algebroid.rank", "rank_q", "rank_q"),
         "nablaQ.gamma"),
        ("curvB", Tensor(SelfDual2Rep.curv_tensor, "algebroid.rank",
                         "rank_q")),
    ], _selfdual2rep),
    "matched2reps": Kind(MatchedPair2Reps, "algA.base_dim", [
        ("algA", "liealgebroid"),
        ("algB", "liealgebroid"),
        ("rank_c", COUNT),
        ("partialA", Matrix("algA.rank", "rank_c")),
        ("partialB", Matrix("algB.rank", "rank_c")),
        ("nablaAB", Components("algA.rank", "algB.rank", "algB.rank"),
         "nablaAB.gamma"),
        ("nablaAC", Components("algA.rank", "rank_c", "rank_c"),
         "nablaAC.gamma"),
        ("nablaBA", Components("algB.rank", "algA.rank", "algA.rank"),
         "nablaBA.gamma"),
        ("nablaBC", Components("algB.rank", "rank_c", "rank_c"),
         "nablaBC.gamma"),
        ("curvAB", Tensor(MatchedPair2Reps.curv_tensor, "algA.rank",
                          "algB.rank", "rank_c")),
        ("curvBA", Tensor(MatchedPair2Reps.curv_tensor, "algB.rank",
                          "algA.rank", "rank_c")),
    ], _matched2reps),
    "lapair": Kind(LAPairData, None, [
        ("selfdual", "selfdual2rep"),
        ("dorfman", "dorfman2rep"),
    ], lambda v: LAPairData(v["selfdual"], v["dorfman"])),
    "courant": Kind(DegenerateCourant, "base_dim", [
        ("base_dim", COUNT),
        ("rank", COUNT),
        ("rho", Matrix("base_dim", "rank")),
        ("pairing", Matrix("rank", "rank")),
        ("bracket", Components("rank", "rank", "rank"), "bracket_comps"),
        ("Dmap", Matrix("rank", "base_dim"), "dmat"),
    ], lambda v: DegenerateCourant(BaseSpace(v["base_dim"]), v["rank"],
                                   v["rho"], v["pairing"], v["bracket"],
                                   v["Dmap"])),
    "dirac": Kind(DiracData, "base_dim", [
        ("base_dim", COUNT, "u_incl.base_dim"),
        ("rank_q", COUNT, "u_incl.rows"),
        ("rank_b", COUNT, "bprime_incl.rows"),
        ("U", Matrix("rank_q", None), "u_incl"),
        ("Bprime", Matrix("rank_b", None), "bprime_incl"),
    ], lambda v: DiracData(v["U"], v["Bprime"])),
}


def kind_of(obj) -> str:
    for kind, row in _KINDS.items():
        if type(obj) is row.cls:
            return kind
    raise SchemaError(f"unsupported structure type: {type(obj).__name__}")


def encode_structure(obj, name=None, expect_fail=None) -> dict:
    kind = kind_of(obj)
    doc = {"format": FORMAT_VERSION, "kind": kind}
    if name is not None:
        doc["name"] = name
    if expect_fail is not None:
        doc["expect_fail"] = sorted(expect_fail)
    doc.update(_KINDS[kind].encode(obj))
    return doc


def decode_structure(doc: dict):
    """Return (kind, structure, metadata) for a schema-valid document."""
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    version = doc.get("format")
    if type(version) is not int or version != FORMAT_VERSION:
        raise SchemaError(f"unsupported format: {version!r}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise SchemaError(f"unknown kind: {kind!r}")
    meta = {k: doc[k] for k in META_FIELDS if k in doc}
    if not isinstance(meta.get("name", ""), str):
        raise SchemaError(f"{kind}.name: expected a string, "
                          f"got {meta['name']!r}")
    labels = meta.get("expect_fail", [])
    if not isinstance(labels, list) or \
            not all(isinstance(label, str) for label in labels):
        raise SchemaError(f"{kind}.expect_fail: expected a list of strings, "
                          f"got {labels!r}")
    payload = {k: v for k, v in doc.items()
               if k not in ("format", "kind") + META_FIELDS}
    obj, _ = _KINDS[kind].decode(payload, kind)
    return kind, obj, meta


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def loads(text: str) -> dict:
    return json.loads(text)
