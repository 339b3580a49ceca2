"""Versioned JSON serialization for every structure kind.

Every document carries {"format": 1, "kind": <tag>, ...payload...} plus
the optional metadata fields "name" and "expect_fail".  Unknown fields
are rejected.
"""

from __future__ import annotations

import json

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


# ---------------------------------------------------------------------------
# low-level helpers


def _require(data, fields, context):
    if not isinstance(data, dict):
        raise SchemaError(f"{context}: expected a JSON object")
    extra = set(data) - set(fields)
    missing = set(fields) - set(data)
    if extra:
        raise SchemaError(f"{context}: unknown fields {sorted(extra)}")
    if missing:
        raise SchemaError(f"{context}: missing fields {sorted(missing)}")


def _count(data, field, context):
    """A rank or dimension field: a non-negative int (bool is rejected)."""
    value = data[field]
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise SchemaError(f"{context}.{field}: expected a non-negative "
                          f"integer, got {value!r}")
    return value


def _has_shape(data, shape):
    """True when data is nested lists with the given lengths."""
    if not shape:
        return True
    return isinstance(data, list) and len(data) == shape[0] and \
        all(_has_shape(item, shape[1:]) for item in data)


def _matrix_json(mat: PolyMatrix):
    return mat.to_json()


def _matrix_load(base_dim, rows, cols, data, context):
    try:
        return PolyMatrix.from_json(base_dim, rows, cols, data)
    except (ValueError, TypeError, KeyError) as exc:
        raise SchemaError(f"{context}: {exc}") from exc


def _comps_json(comps):
    return [[[e.to_json() for e in row] for row in plane] for plane in comps]


def _comps_load(base_dim, shape, data, context):
    if not _has_shape(data, shape):
        raise SchemaError(f"{context}: component shape mismatch")
    try:
        return [[[Polynomial.from_json(base_dim, e) for e in row]
                 for row in plane] for plane in data]
    except (ValueError, TypeError, KeyError) as exc:
        raise SchemaError(f"{context}: {exc}") from exc


def _tensor_load(base_dim, groups, data, context):
    try:
        return PolyTensor.from_json(base_dim, groups, data)
    except (ValueError, TypeError, KeyError, IndexError) as exc:
        raise SchemaError(f"{context}: {exc}") from exc


# ---------------------------------------------------------------------------
# per-kind payload encoders/decoders


def _algebroid_payload(alg: LieAlgebroidData):
    return {
        "base_dim": alg.bundle.base_dim,
        "rank": alg.bundle.rank,
        "anchor": _matrix_json(alg.bundle.anchor),
        "bracket": _comps_json(alg.bracket.comps),
    }


def _algebroid_load(data, context):
    _require(data, ("base_dim", "rank", "anchor", "bracket"), context)
    p, r = _count(data, "base_dim", context), _count(data, "rank", context)
    base = BaseSpace(p)
    anchor = _matrix_load(p, p, r, data["anchor"], context + ".anchor")
    bundle = AnchoredBundle(base, r, anchor)
    comps = _comps_load(p, (r, r, r), data["bracket"], context + ".bracket")
    return LieAlgebroidData(bundle, DullBracket(bundle, comps))


def _encode_liealgebroid(alg: LieAlgebroidData):
    return _algebroid_payload(alg)


def _decode_liealgebroid(data):
    return _algebroid_load(data, "liealgebroid")


def _encode_tworep(rep: TwoRepData):
    return {
        "algebroid": _algebroid_payload(rep.algebroid),
        "rank_b": rep.rank_b,
        "rank_c": rep.rank_c,
        "partial": _matrix_json(rep.partial),
        "connB": _comps_json(rep.connB.gamma),
        "connC": _comps_json(rep.connC.gamma),
        "curv": rep.curv.to_json(),
    }


def _decode_tworep(data):
    _require(data, ("algebroid", "rank_b", "rank_c", "partial", "connB",
                    "connC", "curv"), "tworep")
    alg = _algebroid_load(data["algebroid"], "tworep.algebroid")
    p = alg.bundle.base_dim
    ra = alg.bundle.rank
    rb, rc = _count(data, "rank_b", "tworep"), _count(data, "rank_c", "tworep")
    partial = _matrix_load(p, rb, rc, data["partial"], "tworep.partial")
    connB = LinearConnection(alg.bundle, rb, _comps_load(
        p, (ra, rb, rb), data["connB"], "tworep.connB"))
    connC = LinearConnection(alg.bundle, rc, _comps_load(
        p, (ra, rc, rc), data["connC"], "tworep.connC"))
    curv = _tensor_load(p, [(ra, 2, True), (rb, 1, False), (rc, 1, False)],
                        data["curv"], "tworep.curv")
    return TwoRepData(alg, rb, rc, partial, connB, connC, curv)


def _encode_dorfman2rep(rep: Dorfman2Rep):
    return {
        "base_dim": rep.bundle.base_dim,
        "rank_q": rep.rank_q,
        "rank_b": rep.rank_b,
        "anchor": _matrix_json(rep.bundle.anchor),
        "partial_b": _matrix_json(rep.partial_b),
        "delta": _comps_json(rep.delta.comps),
        "nablaB": _comps_json(rep.nablaB.gamma),
        "curv": rep.curv.to_json(),
    }


def _decode_dorfman2rep(data):
    _require(data, ("base_dim", "rank_q", "rank_b", "anchor", "partial_b",
                    "delta", "nablaB", "curv"), "dorfman2rep")
    p = _count(data, "base_dim", "dorfman2rep")
    rq = _count(data, "rank_q", "dorfman2rep")
    rb = _count(data, "rank_b", "dorfman2rep")
    base = BaseSpace(p)
    anchor = _matrix_load(p, p, rq, data["anchor"], "dorfman2rep.anchor")
    bundle = AnchoredBundle(base, rq, anchor)
    partial_b = _matrix_load(p, rb, rq, data["partial_b"],
                             "dorfman2rep.partial_b")
    delta = DorfmanConnection(bundle, _comps_load(
        p, (rq, rq, rq), data["delta"], "dorfman2rep.delta"))
    nablaB = LinearConnection(bundle, rb, _comps_load(
        p, (rq, rb, rb), data["nablaB"], "dorfman2rep.nablaB"))
    curv = _tensor_load(p, [(rq, 2, True), (rb, 1, False), (rq, 1, False)],
                        data["curv"], "dorfman2rep.curv")
    return Dorfman2Rep(bundle, rb, partial_b, delta, nablaB, curv)


def _encode_splitlie2(split: SplitLie2Data):
    return {
        "base_dim": split.bundle.base_dim,
        "rank_q": split.rank_q,
        "rank_b": split.rank_b,
        "anchor": _matrix_json(split.bundle.anchor),
        "l1": _matrix_json(split.l1),
        "bracket": _comps_json(split.bracket.comps),
        "nablaB": _comps_json(split.nablaB.gamma),
        "l3": split.l3.to_json(),
    }


def _decode_splitlie2(data):
    _require(data, ("base_dim", "rank_q", "rank_b", "anchor", "l1",
                    "bracket", "nablaB", "l3"), "splitlie2")
    p = _count(data, "base_dim", "splitlie2")
    rq = _count(data, "rank_q", "splitlie2")
    rb = _count(data, "rank_b", "splitlie2")
    base = BaseSpace(p)
    anchor = _matrix_load(p, p, rq, data["anchor"], "splitlie2.anchor")
    bundle = AnchoredBundle(base, rq, anchor)
    l1 = _matrix_load(p, rq, rb, data["l1"], "splitlie2.l1")
    bracket = DullBracket(bundle, _comps_load(
        p, (rq, rq, rq), data["bracket"], "splitlie2.bracket"))
    nablaB = LinearConnection(bundle, rb, _comps_load(
        p, (rq, rb, rb), data["nablaB"], "splitlie2.nablaB"))
    l3 = _tensor_load(p, [(rq, 3, True), (rb, 1, False)], data["l3"],
                      "splitlie2.l3")
    return SplitLie2Data(bundle, rb, l1, bracket, nablaB, l3)


def _encode_selfdual2rep(rep: SelfDual2Rep):
    return {
        "algebroid": _algebroid_payload(rep.algebroid),
        "rank_q": rep.rank_q,
        "partial_q": _matrix_json(rep.partial_q),
        "nablaQ": _comps_json(rep.nablaQ.gamma),
        "curvB": rep.curvB.to_json(),
    }


def _decode_selfdual2rep(data):
    _require(data, ("algebroid", "rank_q", "partial_q", "nablaQ", "curvB"),
             "selfdual2rep")
    alg = _algebroid_load(data["algebroid"], "selfdual2rep.algebroid")
    p = alg.bundle.base_dim
    rb = alg.bundle.rank
    rq = _count(data, "rank_q", "selfdual2rep")
    partial_q = _matrix_load(p, rq, rq, data["partial_q"],
                             "selfdual2rep.partial_q")
    nablaQ = LinearConnection(alg.bundle, rq, _comps_load(
        p, (rb, rq, rq), data["nablaQ"], "selfdual2rep.nablaQ"))
    curvB = _tensor_load(p, [(rb, 2, True), (rq, 1, False), (rq, 1, False)],
                         data["curvB"], "selfdual2rep.curvB")
    return SelfDual2Rep(alg, rq, partial_q, nablaQ, curvB)


def _encode_matched2reps(pair: MatchedPair2Reps):
    return {
        "algA": _algebroid_payload(pair.algA),
        "algB": _algebroid_payload(pair.algB),
        "rank_c": pair.rank_c,
        "partialA": _matrix_json(pair.partialA),
        "partialB": _matrix_json(pair.partialB),
        "nablaAB": _comps_json(pair.nablaAB.gamma),
        "nablaAC": _comps_json(pair.nablaAC.gamma),
        "nablaBA": _comps_json(pair.nablaBA.gamma),
        "nablaBC": _comps_json(pair.nablaBC.gamma),
        "curvAB": pair.curvAB.to_json(),
        "curvBA": pair.curvBA.to_json(),
    }


def _decode_matched2reps(data):
    _require(data, ("algA", "algB", "rank_c", "partialA", "partialB",
                    "nablaAB", "nablaAC", "nablaBA", "nablaBC",
                    "curvAB", "curvBA"), "matched2reps")
    algA = _algebroid_load(data["algA"], "matched2reps.algA")
    algB = _algebroid_load(data["algB"], "matched2reps.algB")
    p = algA.bundle.base_dim
    ra, rb = algA.bundle.rank, algB.bundle.rank
    rc = _count(data, "rank_c", "matched2reps")
    partialA = _matrix_load(p, ra, rc, data["partialA"],
                            "matched2reps.partialA")
    partialB = _matrix_load(p, rb, rc, data["partialB"],
                            "matched2reps.partialB")
    nablaAB = LinearConnection(algA.bundle, rb, _comps_load(
        p, (ra, rb, rb), data["nablaAB"], "matched2reps.nablaAB"))
    nablaAC = LinearConnection(algA.bundle, rc, _comps_load(
        p, (ra, rc, rc), data["nablaAC"], "matched2reps.nablaAC"))
    nablaBA = LinearConnection(algB.bundle, ra, _comps_load(
        p, (rb, ra, ra), data["nablaBA"], "matched2reps.nablaBA"))
    nablaBC = LinearConnection(algB.bundle, rc, _comps_load(
        p, (rb, rc, rc), data["nablaBC"], "matched2reps.nablaBC"))
    curvAB = _tensor_load(p, [(ra, 2, True), (rb, 1, False), (rc, 1, False)],
                          data["curvAB"], "matched2reps.curvAB")
    curvBA = _tensor_load(p, [(rb, 2, True), (ra, 1, False), (rc, 1, False)],
                          data["curvBA"], "matched2reps.curvBA")
    return MatchedPair2Reps(algA, algB, rc, partialA, partialB,
                            nablaAB, nablaAC, nablaBA, nablaBC,
                            curvAB, curvBA)


def _encode_lapair(pair: LAPairData):
    return {
        "selfdual": _encode_selfdual2rep(pair.selfdual),
        "dorfman": _encode_dorfman2rep(pair.dorfman),
    }


def _decode_lapair(data):
    _require(data, ("selfdual", "dorfman"), "lapair")
    return LAPairData(_decode_selfdual2rep(data["selfdual"]),
                      _decode_dorfman2rep(data["dorfman"]))


def _encode_courant(ca: DegenerateCourant):
    return {
        "base_dim": ca.base_dim,
        "rank": ca.rank,
        "rho": _matrix_json(ca.rho),
        "pairing": _matrix_json(ca.pairing),
        "bracket": _comps_json(ca.bracket_comps),
        "Dmap": _matrix_json(ca.dmat),
    }


def _decode_courant(data):
    _require(data, ("base_dim", "rank", "rho", "pairing", "bracket", "Dmap"),
             "courant")
    p, n = _count(data, "base_dim", "courant"), _count(data, "rank", "courant")
    base = BaseSpace(p)
    rho = _matrix_load(p, p, n, data["rho"], "courant.rho")
    pairing = _matrix_load(p, n, n, data["pairing"], "courant.pairing")
    comps = _comps_load(p, (n, n, n), data["bracket"], "courant.bracket")
    dmat = _matrix_load(p, n, p, data["Dmap"], "courant.Dmap")
    return DegenerateCourant(base, n, rho, pairing, comps, dmat)


def _encode_dirac(data: DiracData):
    return {
        "base_dim": data.u_incl.base_dim,
        "rank_q": data.u_incl.rows,
        "rank_b": data.bprime_incl.rows,
        "U": _matrix_json(data.u_incl),
        "Bprime": _matrix_json(data.bprime_incl),
    }


def _decode_dirac(data):
    _require(data, ("base_dim", "rank_q", "rank_b", "U", "Bprime"), "dirac")
    p = _count(data, "base_dim", "dirac")
    rq, rb = _count(data, "rank_q", "dirac"), _count(data, "rank_b", "dirac")
    u, bp = data["U"], data["Bprime"]
    for mat, context in ((u, "dirac.U"), (bp, "dirac.Bprime")):
        if not isinstance(mat, list) or \
                not all(isinstance(row, list) for row in mat):
            raise SchemaError(f"{context}: expected a list of rows")
    u_cols = len(u[0]) if u else 0
    bp_cols = len(bp[0]) if bp else 0
    u_incl = _matrix_load(p, rq, u_cols, u, "dirac.U")
    bprime = _matrix_load(p, rb, bp_cols, bp, "dirac.Bprime")
    try:
        return DiracData(u_incl, bprime)
    except ValueError as exc:
        raise SchemaError(f"dirac: {exc}") from exc


_KINDS = {
    "liealgebroid": (LieAlgebroidData, _encode_liealgebroid,
                     _decode_liealgebroid),
    "tworep": (TwoRepData, _encode_tworep, _decode_tworep),
    "dorfman2rep": (Dorfman2Rep, _encode_dorfman2rep, _decode_dorfman2rep),
    "splitlie2": (SplitLie2Data, _encode_splitlie2, _decode_splitlie2),
    "selfdual2rep": (SelfDual2Rep, _encode_selfdual2rep, _decode_selfdual2rep),
    "matched2reps": (MatchedPair2Reps, _encode_matched2reps,
                     _decode_matched2reps),
    "lapair": (LAPairData, _encode_lapair, _decode_lapair),
    "courant": (DegenerateCourant, _encode_courant, _decode_courant),
    "dirac": (DiracData, _encode_dirac, _decode_dirac),
}


def kind_of(obj) -> str:
    for kind, (cls, _, _) in _KINDS.items():
        if type(obj) is cls:
            return kind
    raise SchemaError(f"unsupported structure type: {type(obj).__name__}")


def encode_structure(obj, name=None, expect_fail=None) -> dict:
    kind = kind_of(obj)
    doc = {"format": FORMAT_VERSION, "kind": kind}
    if name is not None:
        doc["name"] = name
    if expect_fail is not None:
        doc["expect_fail"] = sorted(expect_fail)
    doc.update(_KINDS[kind][1](obj))
    return doc


def decode_structure(doc: dict):
    """Return (kind, structure, metadata) for a schema-valid document."""
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    if doc.get("format") != FORMAT_VERSION:
        raise SchemaError(f"unsupported format: {doc.get('format')!r}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise SchemaError(f"unknown kind: {kind!r}")
    meta = {k: doc[k] for k in META_FIELDS if k in doc}
    payload = {k: v for k, v in doc.items()
               if k not in ("format", "kind") + META_FIELDS}
    obj = _KINDS[kind][2](payload)
    return kind, obj, meta


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def loads(text: str) -> dict:
    return json.loads(text)
