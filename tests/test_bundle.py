"""Anchored bundles, brackets, connections and 2-representations."""

import pytest

from lie2check.exactpoly import Polynomial, PolyMatrix, PolyTensor
from lie2check.bundle import (
    AnchoredBundle, DullBracket, LieAlgebroidData, LinearConnection,
    TwoRepData, check_lie_algebroid, check_two_rep,
    connection_curvature, dualize_two_rep, field_bracket, jacobiator,
    section_pair, section_sub, unit_section,
)
from lie2check.examples import (
    euclidean_curved_r2, so3_structure_constants,
)


def _so3_algebroid():
    bundle = AnchoredBundle(1, 3, PolyMatrix(1, 1, 3))
    return LieAlgebroidData(bundle, DullBracket(bundle,
                                                so3_structure_constants(1)))


def test_field_bracket_oracle():
    # [x d_x, d_x] = -d_x over R^1
    x = Polynomial.variable(1, 0)
    one = Polynomial.const(1, 1)
    out = field_bracket([x], [one])
    assert out[0] == Polynomial.const(1, -1)


def test_so3_passes_lie_algebroid_check():
    rep = check_lie_algebroid(_so3_algebroid(), seed=3)
    assert rep.passed, rep.failing_labels()


def test_broken_so3_fails_jacobi_with_witness():
    comps = so3_structure_constants(1)
    comps[0][1][0] = Polynomial.const(1, 1)
    comps[1][0][0] = Polynomial.const(1, -1)
    bundle = AnchoredBundle(1, 3, PolyMatrix(1, 1, 3))
    alg = LieAlgebroidData(bundle, DullBracket(bundle, comps))
    rep = check_lie_algebroid(alg, seed=3)
    assert not rep.passed
    assert "jacobi" in rep.failing_labels()
    entry = next(e for e in rep.entries
                 if e.label == "jacobi" and not e.passed)
    assert entry.witness


def test_scaled_so3_still_satisfies_jacobi():
    # rescaling one structure constant keeps Jacobi: c [e1,e2]=c e3,
    # since the residual is proportional to the Jacobiator of so(3)
    comps = so3_structure_constants(1)
    alg = _so3_algebroid()
    e = [unit_section(1, 3, i) for i in range(3)]
    res = jacobiator(alg.bracket.apply, e[0], e[1], e[2])
    assert all(f.is_zero() for f in res)


def test_connection_curvature_oracle():
    # over R^2 with Gamma_1 = x2 * J, Gamma_2 = 0: R(d1, d2) e1 = -e2
    rep = euclidean_curved_r2()
    conn = rep.nablaQ
    bracket = rep.algebroid.bracket
    d1, d2 = unit_section(2, 2, 0), unit_section(2, 2, 1)
    out = connection_curvature(conn.apply, bracket.apply, d1, d2,
                               unit_section(2, 2, 0))
    assert out[0].is_zero()
    assert out[1] == Polynomial.const(2, -1)


def _tm_two_rep(curved=False):
    bundle = AnchoredBundle(1, 1, PolyMatrix.identity(1, 1))
    alg = LieAlgebroidData(bundle, DullBracket(bundle,
                                               [[[Polynomial.zero(1)]]]))
    gamma = Polynomial.variable(1, 0) if curved else Polynomial.zero(1)
    conn = LinearConnection(bundle, 1, [[[gamma]]])
    curv = PolyTensor(1, [(1, 2, True), (1, 1, False), (1, 1, False)])
    return TwoRepData(alg, 1, 1, PolyMatrix.identity(1, 1), conn, conn, curv)


def test_two_rep_checks():
    rep = check_two_rep(_tm_two_rep(), seed=3)
    assert rep.passed, rep.failing_labels()
    rep = check_two_rep(_tm_two_rep(curved=True), seed=3)
    assert rep.passed, rep.failing_labels()


def test_two_rep_broken_chain_map():
    tr = _tm_two_rep()
    bad = TwoRepData(tr.algebroid, 1, 1, tr.partial,
                     LinearConnection(tr.algebroid.bundle, 1,
                                      [[[Polynomial.const(1, 1)]]]),
                     tr.connC, tr.curv)
    rep = check_two_rep(bad, seed=3)
    assert not rep.passed
    assert "chain_map" in rep.failing_labels()


def test_dualize_is_an_involution():
    tr = _tm_two_rep(curved=True)
    dd = dualize_two_rep(dualize_two_rep(tr))
    assert dd.partial == tr.partial
    assert dd.connB.gamma == tr.connB.gamma
    assert dd.connC.gamma == tr.connC.gamma
    assert dd.curv == tr.curv


def test_dual_two_rep_passes_check():
    rep = check_two_rep(dualize_two_rep(_tm_two_rep(curved=True)), seed=3)
    assert rep.passed, rep.failing_labels()


def test_section_pairing():
    x = Polynomial.variable(1, 0)
    one = Polynomial.const(1, 1)
    assert section_pair([x, one], [one, x]) == x + x
    assert all(f.is_zero()
               for f in section_sub([x, one], [x, one]))


def test_algebroid_rejects_a_bracket_on_another_bundle():
    bundle = AnchoredBundle(1, 3, PolyMatrix(1, 1, 3))
    other = AnchoredBundle(1, 3, PolyMatrix(1, 1, 3))
    bracket = DullBracket(other, so3_structure_constants(1))
    with pytest.raises(ValueError, match="different bundle"):
        LieAlgebroidData(bundle, bracket)
    assert bracket.bundle is other
