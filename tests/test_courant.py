"""Degenerate Courant algebroids, adjoint representations, Dirac
structures and Manin pairs."""

import pytest
from hypothesis import given, settings, strategies as st

from lie2check import serialize
from lie2check.cli import main
from lie2check.exactpoly import Polynomial, PolyMatrix
from lie2check.bundle import (
    field_apply, section_add, section_smul, unit_section,
)
from lie2check.lie2 import check_dorfman2rep, check_homological
from lie2check.poisson import check_selfdual2rep
from lie2check.matched import check_la_matched_pair
from lie2check.courant import (
    DegenerateCourant, DiracData, adjoint_dorfman2rep, check_core_courant,
    check_courant_axioms, check_dirac, check_manin_pair, core_courant,
    induced_lie_algebroid_on_U, manin_pair, standard_courant,
    tangent_double_pair,
)
from lie2check.bundle import check_lie_algebroid
from lie2check.examples import (
    broken_so3_bad_pairing, broken_so3_e12_dirac, semidirect_flat,
    so3_e3_dirac, so3_lie2, so3_poisson_pair, so3_quadratic,
    standard_courant_r1, tangent_double_pair_r1,
)

from helpers import Draw


def _zero_gamma(p, rank):
    z = Polynomial.zero(p)
    return [[[z for _ in range(rank)] for _ in range(rank)]
            for _ in range(p)]


def test_courant_axioms_on_sound_examples():
    for ca in (so3_quadratic(), standard_courant_r1(), standard_courant(2)):
        rep = check_courant_axioms(ca, seed=3)
        assert rep.passed, rep.failing_labels()


def test_bad_pairing_fails_exactly_ca2():
    rep = check_courant_axioms(broken_so3_bad_pairing(), seed=3)
    assert set(rep.failing_labels()) == {"CA2"}


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_bracket_is_leibniz_in_both_slots_by_construction(data):
    """Why ``check_courant_axioms`` records CA5 without evaluating it.

    For any frame data (a pairing that need not be symmetric, rho D that
    need not vanish), the bracket obeys
        CA5:   [[e1, f e2]] = f [[e1, e2]] + rho(e1)(f) e2,
        first: [[f e1, e2]] = f [[e1, e2]] - rho(e2)(f) e1 + <e1, e2> Df.
    """
    p = data.draw(st.integers(min_value=1, max_value=2))
    n = data.draw(st.integers(min_value=1, max_value=3))
    d = Draw(data.draw, p)
    ca = DegenerateCourant(p, n, d.matrix(p, n), d.matrix(n, n),
                           d.comps(n, n, n), d.matrix(n, p))
    e1, e2, f = d.section(n), d.section(n), d.poly()

    def bracket(u, v):
        return ca.bracket(ca.dee, u, v)

    base = section_smul(f, bracket(e1, e2))
    assert bracket(e1, section_smul(f, e2)) == section_add(
        base, section_smul(field_apply(ca.rho_field(e1), f), e2))
    first = section_add(base, section_smul(ca.pair(e1, e2), ca.dee(f)))
    first = section_add(first, section_smul(
        -field_apply(ca.rho_field(e2), f), e1))
    assert bracket(section_smul(f, e1), e2) == first


def test_standard_courant_bracket_oracle():
    # [[d_x, x dx]] = (0, dx) over R^1
    ca = standard_courant_r1()
    x = Polynomial.variable(1, 0)
    out = ca.bracket(ca.dee, unit_section(1, 2, 0), [Polynomial.zero(1), x])
    assert out[0].is_zero()
    assert out[1] == Polynomial.const(1, 1)


def test_adjoint_dorfman2rep_passes():
    for ca, gamma in ((so3_quadratic(), _zero_gamma(1, 3)),
                      (standard_courant_r1(), _zero_gamma(1, 2))):
        rep = check_dorfman2rep(adjoint_dorfman2rep(ca, gamma), seed=3)
        assert rep.passed, rep.failing_labels()


def test_adjoint_with_curved_metric_connection():
    ca = standard_courant_r1()
    x = Polynomial.variable(1, 0)
    z = Polynomial.zero(1)
    gamma = [[[x, z], [z, -x]]]
    rep = check_dorfman2rep(adjoint_dorfman2rep(ca, gamma), seed=3)
    assert rep.passed, rep.failing_labels()


def test_adjoint_rejects_non_metric_connection():
    ca = standard_courant_r1()
    x = Polynomial.variable(1, 0)
    z = Polynomial.zero(1)
    with pytest.raises(ValueError):
        adjoint_dorfman2rep(ca, [[[x, z], [z, z]]])


def test_semidirect_flat_is_homological():
    rep = semidirect_flat()
    assert check_dorfman2rep(rep, seed=3).passed
    assert check_homological(rep, seed=3).passed


def test_tangent_double_pair_structure():
    pair = tangent_double_pair_r1()
    assert check_selfdual2rep(pair.selfdual, seed=3).passed
    assert check_la_matched_pair(pair, seed=3).passed
    assert check_core_courant(pair, seed=3).passed


def test_tangent_double_curved_r2():
    ca = standard_courant(2)
    z = Polynomial.zero(2)
    x2 = Polynomial.variable(2, 1)
    a = [[z, x2], [z, z]]
    g0 = [[a[0][0], a[0][1], z, z],
          [a[1][0], a[1][1], z, z],
          [z, z, -a[0][0], -a[1][0]],
          [z, z, -a[0][1], -a[1][1]]]
    g1 = [[z] * 4 for _ in range(4)]
    pair = tangent_double_pair(ca, [g0, g1])
    assert not pair.selfdual.curvB.is_zero()
    assert check_selfdual2rep(pair.selfdual, seed=3).passed
    assert check_la_matched_pair(pair, seed=3).passed
    assert check_core_courant(pair, seed=3).passed



def test_adjoint_and_tangent_double_at_ranks_8_and_10(tmp_path):
    """Pairings of rank 8 and 10 are inverted in polynomial time; by
    cofactor expansion they took 9! and 10! terms per minor."""
    src = tmp_path / "standard4.json"
    src.write_text(serialize.dumps(
        serialize.encode_structure(standard_courant(4))))
    out = tmp_path / "adjoint4.json"
    assert main(["construct", "adjoint", str(src), "--out", str(out)]) == 0
    assert main(["check", "--mode", "dorfman", str(out),
                 "--out", str(tmp_path / "report.txt")]) == 0
    ca = standard_courant(5)
    ginv = tangent_double_pair(ca, _zero_gamma(5, 10)).selfdual.partial_q
    assert ginv.matmul(ca.pairing) == PolyMatrix.identity(5, 10)

def test_core_courant_recovers_the_original_bracket():
    ca = so3_quadratic()
    pair = tangent_double_pair(ca, _zero_gamma(1, 3))
    cc = core_courant(pair)
    ginv = ca.pairing.inverse_constant()
    assert cc.pairing == ginv
    assert cc.rho == ca.rho.matmul(ginv)
    for i in range(3):
        for j in range(3):
            ti = unit_section(1, 3, i)
            tj = unit_section(1, 3, j)
            got = cc.bracket(cc.dee, ti, tj)
            exp = ca.pairing.apply(
                ca.bracket(ca.dee, ginv.apply(ti), ginv.apply(tj)))
            assert all((a - b).is_zero() for a, b in zip(got, exp))


def test_dirac_verdicts_on_so3():
    dorf = so3_lie2()
    rep = check_dirac(dorf, None, so3_e3_dirac(), "vb_dirac", seed=3)
    assert rep.passed, rep.failing_labels()
    rep = check_dirac(dorf, None, broken_so3_e12_dirac(), "vb_dirac", seed=3)
    assert set(rep.failing_labels()) == {"3_bracket_closes_in_U"}


def test_la_dirac_modes():
    pair = so3_poisson_pair()
    full = DiracData(PolyMatrix.identity(1, 3), PolyMatrix(1, 0, 0))
    for mode in ("vb_dirac", "la_subalgebroid", "la_dirac"):
        rep = check_dirac(pair.dorfman, pair.selfdual, full, mode, seed=3)
        assert rep.passed, (mode, rep.failing_labels())
    rep = check_dirac(pair.dorfman, pair.selfdual, so3_e3_dirac(),
                      "la_dirac", seed=3)
    assert rep.passed, rep.failing_labels()


def test_dirac_mode_validation():
    pair = so3_poisson_pair()
    with pytest.raises(ValueError):
        check_dirac(pair.dorfman, pair.selfdual, so3_e3_dirac(), "nope")
    with pytest.raises(ValueError):
        check_dirac(pair.dorfman, None, so3_e3_dirac(), "la_dirac")


@pytest.mark.parametrize("data", [
    # so3_poisson_pair has rank Q = 3, rank B = 0, base dimension 1; a
    # 2-row U used to pass la_subalgebroid, a 3-row B' to raise IndexError
    DiracData(PolyMatrix.identity(1, 2), PolyMatrix(1, 0, 0)),
    DiracData(PolyMatrix.identity(1, 3), PolyMatrix.identity(1, 3)),
    DiracData(PolyMatrix.identity(2, 3), PolyMatrix(2, 0, 0)),
], ids=["u_rows", "bprime_rows", "base_dim"])
def test_dirac_data_of_the_wrong_shape_is_rejected(data):
    pair = so3_poisson_pair()
    runs = [lambda: manin_pair(pair, data),
            lambda: induced_lie_algebroid_on_U(pair.dorfman, data)]
    runs += [lambda mode=mode: check_dirac(pair.dorfman, pair.selfdual,
                                           data, mode)
             for mode in ("vb_dirac", "la_subalgebroid", "la_dirac")]
    for run in runs:
        with pytest.raises(ValueError, match="^dirac "):
            run()


def test_induced_lie_algebroid():
    alg = induced_lie_algebroid_on_U(so3_lie2(), so3_e3_dirac())
    assert check_lie_algebroid(alg, seed=3).passed
    with pytest.raises(ValueError):
        induced_lie_algebroid_on_U(so3_lie2(), broken_so3_e12_dirac())


def test_manin_pair_on_so3_double():
    pair = so3_poisson_pair()
    full = DiracData(PolyMatrix.identity(1, 3), PolyMatrix(1, 0, 0))
    ca = manin_pair(pair, full)
    assert ca.rank == 6
    rep = check_manin_pair(ca, seed=3)
    assert rep.passed, rep.failing_labels()


def test_manin_pair_on_e3_dirac():
    pair = so3_poisson_pair()
    result = manin_pair(pair, so3_e3_dirac())
    rep = check_manin_pair(result, seed=3)
    assert rep.passed, rep.failing_labels()
