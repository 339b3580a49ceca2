"""Deterministic example corpus.

Every builder returns a fully constructed structure; the registry maps
example names to (builder, expect_fail) where expect_fail lists the
check labels a deliberately broken example must fail (None for sound
examples).
"""

from __future__ import annotations

from .exactpoly import Polynomial, PolyMatrix
from .bundle import (
    AnchoredBundle, BaseSpace, DullBracket, LieAlgebroidData,
    LinearConnection, TwoRepData,
)
from .lie2 import Dorfman2Rep, DorfmanConnection, SplitLie2Data
from .poisson import SelfDual2Rep
from .matched import LAPairData, MatchedPair2Reps
from .courant import (
    DegenerateCourant, DiracData, quadratic_lie_algebra,
    semidirect_dorfman2rep, standard_courant, tangent_double_pair,
)


def _base(p):
    return BaseSpace(p)


def _zero(p):
    return Polynomial.zero(p)


def _one(p):
    return Polynomial.const(p, 1)


def so3_structure_constants(base_dim):
    """Bracket components of so(3): [e_i, e_j] = eps_ijk e_k."""
    z = Polynomial.zero(base_dim)
    comps = [[[z for _ in range(3)] for _ in range(3)] for _ in range(3)]
    for (i, j), k in {(0, 1): 2, (1, 2): 0, (2, 0): 1}.items():
        comps[i][j][k] = Polynomial.const(base_dim, 1)
        comps[j][i][k] = Polynomial.const(base_dim, -1)
    return comps


def _so3_bundle():
    return AnchoredBundle(_base(1), 3, PolyMatrix(1, 1, 3))


def _zero_gamma(base_dim, rows, rank):
    z = Polynomial.zero(base_dim)
    return [[[z for _ in range(rank)] for _ in range(rank)]
            for _ in range(rows)]


# ---------------------------------------------------------------------------
# Courant algebroids


def so3_quadratic() -> DegenerateCourant:
    """so(3) with the Killing-normalised (identity) invariant pairing."""
    return quadratic_lie_algebra(_base(1), so3_structure_constants(1),
                                 PolyMatrix.identity(1, 3))


def standard_courant_r1() -> DegenerateCourant:
    return standard_courant(1)


def broken_so3_bad_pairing() -> DegenerateCourant:
    """Non-invariant pairing diag(1, 1, 2) on so(3)."""
    g = PolyMatrix.identity(1, 3)
    g[2, 2] = Polynomial.const(1, 2)
    return quadratic_lie_algebra(_base(1), so3_structure_constants(1), g)


# ---------------------------------------------------------------------------
# split Lie 2-algebroids / Dorfman 2-representations


def so3_string() -> SplitLie2Data:
    """String-type Lie 2-algebroid: Q = so(3), B* = R, l1 = 0,
    l3 = Cartan 3-form."""
    bundle = _so3_bundle()
    bracket = DullBracket(bundle, so3_structure_constants(1))
    nablaB = LinearConnection(bundle, 1, _zero_gamma(1, 3, 1))
    l3 = SplitLie2Data.l3_tensor(1, 3, 1)
    l3.set((0, 1, 2, 0), _one(1))
    return SplitLie2Data(bundle, 1, PolyMatrix(1, 3, 1), bracket, nablaB, l3)


def tm_r1_lie1() -> SplitLie2Data:
    """TM over R^1 as a Lie 2-algebroid with trivial B (de Rham case)."""
    base = _base(1)
    anchor = PolyMatrix.identity(1, 1)
    bundle = AnchoredBundle(base, 1, anchor)
    bracket = DullBracket(bundle, [[[_zero(1)]]])
    nablaB = LinearConnection(bundle, 0, [[]])
    return SplitLie2Data(bundle, 0, PolyMatrix(1, 1, 0), bracket, nablaB,
                         SplitLie2Data.l3_tensor(1, 1, 0))


def so3_lie2() -> Dorfman2Rep:
    """so(3) viewed as a Lie 2-algebroid with B = 0."""
    bundle = _so3_bundle()
    dull = DullBracket(bundle, so3_structure_constants(1))
    return Dorfman2Rep(bundle, 0, PolyMatrix(1, 0, 3),
                       DorfmanConnection.from_dull_bracket(dull),
                       LinearConnection(bundle, 0, [[] for _ in range(3)]),
                       Dorfman2Rep.curv_tensor(1, 3, 0))


def tm_r1_identity_2rep() -> TwoRepData:
    """The identity 2-representation id : TM -> TM of TM over R^1 with
    flat connections."""
    alg = _tm_algebroid(1)
    flat = LinearConnection(alg.bundle, 1, [[[_zero(1)]]])
    return TwoRepData(alg, 1, 1, PolyMatrix.identity(1, 1), flat, flat,
                      TwoRepData.curv_tensor(1, 1, 1, 1))


def semidirect_flat() -> Dorfman2Rep:
    """Semidirect product for the identity 2-representation of TM over
    R^1 with flat connections."""
    return semidirect_dorfman2rep(tm_r1_identity_2rep())


def broken_so3_bad_jacobi() -> SplitLie2Data:
    """so(3) bracket perturbed by [e1, e2] -> e3 + e1: Jacobi fails."""
    bundle = _so3_bundle()
    comps = so3_structure_constants(1)
    comps[0][1][0] = _one(1)
    comps[1][0][0] = Polynomial.const(1, -1)
    bracket = DullBracket(bundle, comps)
    nablaB = LinearConnection(bundle, 0, [[] for _ in range(3)])
    return SplitLie2Data(bundle, 0, PolyMatrix(1, 3, 0), bracket, nablaB,
                         SplitLie2Data.l3_tensor(1, 3, 0))


def broken_r4_nonclosed() -> SplitLie2Data:
    """Abelian rank-4 Q over R^1 with a non-closed l3."""
    base = _base(1)
    anchor = PolyMatrix(1, 1, 4)
    anchor[0, 3] = _one(1)
    bundle = AnchoredBundle(base, 4, anchor)
    z = _zero(1)
    bracket = DullBracket(bundle, [[[z] * 4 for _ in range(4)]
                                   for _ in range(4)])
    nablaB = LinearConnection(bundle, 1, _zero_gamma(1, 4, 1))
    l3 = SplitLie2Data.l3_tensor(1, 4, 1)
    l3.set((0, 1, 2, 0), Polynomial.variable(1, 0))
    return SplitLie2Data(bundle, 1, PolyMatrix(1, 4, 1), bracket, nablaB, l3)


def broken_so3_string_l1() -> SplitLie2Data:
    """String-type so(3) with a nonzero l1 that breaks the complex."""
    split = so3_string()
    l1 = PolyMatrix(1, 3, 1)
    l1[0, 0] = _one(1)
    return SplitLie2Data(split.bundle, 1, l1, split.bracket, split.nablaB,
                         split.l3)


# ---------------------------------------------------------------------------
# self-dual 2-representations


def _tm_algebroid(base_dim):
    """The tangent Lie algebroid of R^base_dim in the coordinate frame."""
    base = _base(base_dim)
    bundle = AnchoredBundle(base, base_dim,
                            PolyMatrix.identity(base_dim, base_dim))
    z = _zero(base_dim)
    comps = [[[z for _ in range(base_dim)] for _ in range(base_dim)]
             for _ in range(base_dim)]
    return LieAlgebroidData(bundle, DullBracket(bundle, comps))


def tm_r2_algebroid() -> LieAlgebroidData:
    """The tangent Lie algebroid of R^2."""
    return _tm_algebroid(2)


def euclidean_selfdual_r1() -> SelfDual2Rep:
    """Euclidean rank-2 bundle over R^1 with the flat metric connection."""
    alg = _tm_algebroid(1)
    nablaQ = LinearConnection(alg.bundle, 2, _zero_gamma(1, 1, 2))
    return SelfDual2Rep(alg, 2, PolyMatrix.identity(1, 2), nablaQ,
                        SelfDual2Rep.curv_tensor(1, 1, 2))


def euclidean_curved_r2() -> SelfDual2Rep:
    """Euclidean rank-2 bundle over R^2 with a curved so(2)-valued metric
    connection (Gamma_1 = x2 * J, Gamma_2 = 0)."""
    alg = _tm_algebroid(2)
    x2 = Polynomial.variable(2, 1)
    z = _zero(2)
    gamma = [[[z, x2], [-x2, z]], [[z, z], [z, z]]]
    nablaQ = LinearConnection(alg.bundle, 2, gamma)
    curvB = SelfDual2Rep.curv_tensor(2, 2, 2)
    # R(d1, d2) e1 = -e2, R(d1, d2) e2 = e1
    curvB.set((0, 1, 0, 1), Polynomial.const(2, -1))
    curvB.set((0, 1, 1, 0), _one(2))
    return SelfDual2Rep(alg, 2, PolyMatrix.identity(2, 2), nablaQ, curvB)


def so3_selfdual() -> SelfDual2Rep:
    """so(3) acting on itself with partial_q = id and the zero connection."""
    bundle = _so3_bundle()
    alg = LieAlgebroidData(bundle, DullBracket(bundle,
                                               so3_structure_constants(1)))
    nablaQ = LinearConnection(bundle, 3, _zero_gamma(1, 3, 3))
    return SelfDual2Rep(alg, 3, PolyMatrix.identity(1, 3), nablaQ,
                        SelfDual2Rep.curv_tensor(1, 3, 3))


def broken_selfdual_nonsym() -> SelfDual2Rep:
    """Euclidean example with a non-symmetric pairing map."""
    rep = euclidean_selfdual_r1()
    pq = PolyMatrix.identity(1, 2)
    pq[0, 1] = _one(1)
    return SelfDual2Rep(rep.algebroid, 2, pq, rep.nablaQ, rep.curvB)


def broken_selfdual_zero_r() -> SelfDual2Rep:
    """Curved Euclidean example with the curvature tensor zeroed out."""
    rep = euclidean_curved_r2()
    return SelfDual2Rep(rep.algebroid, 2, rep.partial_q, rep.nablaQ,
                        SelfDual2Rep.curv_tensor(2, 2, 2))


# ---------------------------------------------------------------------------
# matched pairs of 2-representations


def unit_matched_point() -> MatchedPair2Reps:
    """Rank-1 matched pair over a point-like base (zero anchors), with
    all connections equal to the identity action."""
    base = _base(1)
    zanchor = PolyMatrix(1, 1, 1)
    A = AnchoredBundle(base, 1, zanchor)
    B = AnchoredBundle(base, 1, zanchor)
    algA = LieAlgebroidData(A, DullBracket(A, [[[_zero(1)]]]))
    algB = LieAlgebroidData(B, DullBracket(B, [[[_zero(1)]]]))
    unit = PolyMatrix.identity(1, 1)
    conn = lambda bundle: LinearConnection(bundle, 1, [[[_one(1)]]])
    curv = TwoRepData.curv_tensor(1, 1, 1, 1)
    return MatchedPair2Reps(algA, algB, 1, unit, unit,
                            conn(A), conn(A), conn(B), conn(B),
                            curv, curv.copy())


def _axb_matched(broken=False) -> MatchedPair2Reps:
    base = _base(1)
    tanchor = PolyMatrix.identity(1, 1)
    zanchor = PolyMatrix(1, 1, 1)
    A = AnchoredBundle(base, 1, tanchor)
    B = AnchoredBundle(base, 1, zanchor)
    algA = LieAlgebroidData(A, DullBracket(A, [[[_zero(1)]]]))
    algB = LieAlgebroidData(B, DullBracket(B, [[[_zero(1)]]]))
    x = Polynomial.variable(1, 0)
    cAB = LinearConnection(A, 1, [[[x]]])
    cBA = LinearConnection(B, 1, [[[_one(1) if broken else _zero(1)]]])
    cAC = LinearConnection(A, 0, [[]])
    cBC = LinearConnection(B, 0, [[]])
    curvAB = MatchedPair2Reps.curv_tensor(1, 1, 1, 0)
    curvBA = MatchedPair2Reps.curv_tensor(1, 1, 1, 0)
    return MatchedPair2Reps(algA, algB, 0, PolyMatrix(1, 1, 0),
                            PolyMatrix(1, 1, 0), cAB, cAC, cBA, cBC,
                            curvAB, curvBA)


def axb_matched() -> MatchedPair2Reps:
    """TM acting on a trivial line bundle by x * id over R^1, C = 0."""
    return _axb_matched()


def broken_axb_cond5() -> MatchedPair2Reps:
    """axb_matched with a nonzero flat B-connection on A that breaks
    the mixed compatibility conditions."""
    return _axb_matched(broken=True)


def broken_unit_matched_cond2() -> MatchedPair2Reps:
    """unit_matched_point with a constant added to the B-connection on A."""
    pair = unit_matched_point()
    cBA = LinearConnection(pair.algB.bundle, 1,
                           [[[Polynomial.const(1, 2)]]])
    return MatchedPair2Reps(pair.algA, pair.algB, 1, pair.partialA,
                            pair.partialB, pair.nablaAB, pair.nablaAC,
                            cBA, pair.nablaBC, pair.curvAB, pair.curvBA)


# ---------------------------------------------------------------------------
# matched Lie-algebroid pairs (Poisson Lie 2-algebroids)


def _so3_lapair(bad_dq=False) -> LAPairData:
    bundle = _so3_bundle()
    bundle_b = _so3_bundle()
    algB = LieAlgebroidData(bundle_b,
                            DullBracket(bundle_b, so3_structure_constants(1)))
    ident = PolyMatrix.identity(1, 3)
    delta = DorfmanConnection(bundle, so3_structure_constants(1))
    nablaB = LinearConnection(bundle, 3, so3_structure_constants(1))
    dorf = Dorfman2Rep(bundle, 3, ident, delta, nablaB,
                       Dorfman2Rep.curv_tensor(1, 3, 3))
    nablaQ = LinearConnection(algB.bundle, 3, _zero_gamma(1, 3, 3))
    dq = PolyMatrix.identity(1, 3)
    if bad_dq:
        dq[2, 2] = Polynomial.const(1, 2)
    sd = SelfDual2Rep(algB, 3, dq, nablaQ, SelfDual2Rep.curv_tensor(1, 3, 3))
    return LAPairData(sd, dorf)


def so3_symplectic_pair() -> LAPairData:
    """The symplectic pair on so(3): partial_q invertible."""
    return _so3_lapair()


def broken_so3_pair_dq() -> LAPairData:
    """so3_symplectic_pair with partial_q = diag(1, 1, 2)."""
    return _so3_lapair(bad_dq=True)


def so3_poisson_pair() -> LAPairData:
    """Non-symplectic Poisson pair: B = 0 and partial_q = 0 on so(3)."""
    dorf = so3_lie2()
    base = _base(1)
    B0 = AnchoredBundle(base, 0, PolyMatrix(1, 1, 0))
    algB0 = LieAlgebroidData(B0, DullBracket(B0, []))
    sd = SelfDual2Rep(algB0, 3, PolyMatrix(1, 3, 3),
                      LinearConnection(B0, 3, []),
                      SelfDual2Rep.curv_tensor(1, 0, 3))
    return LAPairData(sd, dorf)


def tangent_double_pair_r1() -> LAPairData:
    """Tangent double of the standard Courant algebroid over R^1 with
    the flat metric connection."""
    return tangent_double_pair(standard_courant(1), _zero_gamma(1, 1, 2))


# ---------------------------------------------------------------------------
# Dirac data


def so3_e3_dirac() -> DiracData:
    """U = span(e3) inside so(3) as a Lie 2-algebroid with B = 0."""
    u = PolyMatrix(1, 3, 1)
    u[2, 0] = _one(1)
    return DiracData(u, PolyMatrix(1, 0, 0))


def broken_so3_e12_dirac() -> DiracData:
    """U = span(e1, e2): not bracket-closed in so(3)."""
    u = PolyMatrix(1, 3, 2)
    u[0, 0] = _one(1)
    u[1, 1] = _one(1)
    return DiracData(u, PolyMatrix(1, 0, 0))


# ---------------------------------------------------------------------------
# registry


EXAMPLES = {
    "so3_quadratic": (so3_quadratic, None),
    "so3_string": (so3_string, None),
    "tm_r1_lie1": (tm_r1_lie1, None),
    "standard_courant_r1": (standard_courant_r1, None),
    "euclidean_selfdual_r1": (euclidean_selfdual_r1, None),
    "euclidean_curved_r2": (euclidean_curved_r2, None),
    "so3_selfdual": (so3_selfdual, None),
    "tangent_double_pair_r1": (tangent_double_pair_r1, None),
    "axb_matched": (axb_matched, None),
    "semidirect_flat": (semidirect_flat, None),
    "so3_lie2": (so3_lie2, None),
    "unit_matched_point": (unit_matched_point, None),
    "so3_symplectic_pair": (so3_symplectic_pair, None),
    "so3_poisson_pair": (so3_poisson_pair, None),
    "so3_e3_dirac": (so3_e3_dirac, None),
    "tm_r2_algebroid": (tm_r2_algebroid, None),
    "tm_r1_identity_2rep": (tm_r1_identity_2rep, None),
    "broken_so3_bad_jacobi": (broken_so3_bad_jacobi, ["D4_delta"]),
    "broken_r4_nonclosed": (broken_r4_nonclosed, ["D6"]),
    "broken_so3_string_l1": (broken_so3_string_l1, ["D1"]),
    "broken_selfdual_nonsym": (broken_selfdual_nonsym, ["partial_symmetric"]),
    "broken_selfdual_zero_r": (broken_selfdual_zero_r, ["curv_on_B"]),
    "broken_axb_cond5": (broken_axb_cond5, ["condition_5"]),
    "broken_unit_matched_cond2": (broken_unit_matched_cond2, ["condition_2"]),
    "broken_so3_pair_dq": (broken_so3_pair_dq, ["M1"]),
    "broken_so3_bad_pairing": (broken_so3_bad_pairing, ["CA2"]),
    "broken_so3_e12_dirac": (broken_so3_e12_dirac, ["3_bracket_closes_in_U"]),
}


def build_example(name: str):
    """Return (structure, expect_fail-or-None) for a known example name."""
    if name not in EXAMPLES:
        raise KeyError(name)
    builder, expect_fail = EXAMPLES[name]
    return builder(), expect_fail
