"""Split Lie 2-algebroids, Dorfman 2-representations and the
homological vector field."""

from hypothesis import given, settings, strategies as st

from lie2check.exactpoly import Polynomial, PolyMatrix, PolyTensor
from lie2check.lie2 import (
    GradedDerivation, GradedFunction, build_homological_field,
    change_splitting, check_dorfman2rep, check_homological,
    check_lie2_morphism, dorfman_from_split, graded_commutator,
    split_from_dorfman,
)
from lie2check.examples import (
    broken_r4_nonclosed, broken_so3_bad_jacobi, broken_so3_string_l1,
    so3_lie2, so3_string, tm_r1_lie1,
)

from helpers import Draw, graded_function


def test_so3_string_passes_all_axioms():
    rep = check_dorfman2rep(dorfman_from_split(so3_string()), seed=3)
    assert rep.passed, rep.failing_labels()


def test_so3_string_curvature_components():
    # R(q_i, q_j) b has eps_ijk as its q_k component
    dorf = dorfman_from_split(so3_string())
    assert dorf.curv.get(0, 1, 0, 2) == Polynomial.const(1, 1)
    assert dorf.curv.get(1, 2, 0, 0) == Polynomial.const(1, 1)
    assert dorf.curv.get(2, 0, 0, 1) == Polynomial.const(1, 1)
    assert dorf.curv.get(0, 1, 0, 0).is_zero()


def test_de_rham_field_oracle():
    # Lie-1 case Q = TM over R^1, B = 0: Q(f) = (d_x f) tau_1, Q(tau_1) = 0
    dorf = dorfman_from_split(tm_r1_lie1())
    field = build_homological_field(dorf)
    expected = GradedFunction(1, 1, 0, {((0,), ()): Polynomial.const(1, 1)})
    assert field.x_img[0] == expected
    assert field.tau_img[0].is_zero()
    assert not field.b_img
    half_sq = graded_commutator(field, field)
    assert all(g.is_zero() for g in half_sq.images())


def test_so3_string_field_is_chevalley_eilenberg_plus_b_term():
    dorf = dorfman_from_split(so3_string())
    field = build_homological_field(dorf)
    # Q(tau_3) = -tau_1 tau_2 (Chevalley-Eilenberg term for [e1,e2]=e3)
    assert field.tau_img[2] == GradedFunction(
        1, 3, 1, {((0, 1), ()): Polynomial.const(1, -1)})
    # Q(b_1) = -tau_1 tau_2 tau_3 (Cartan 3-form term)
    assert field.b_img[0] == GradedFunction(
        1, 3, 1, {((0, 1, 2), ()): Polynomial.const(1, -1)})


def test_homological_matches_axiom_checker_on_corpus():
    for split in (so3_string(), tm_r1_lie1()):
        dorf = dorfman_from_split(split)
        assert check_dorfman2rep(dorf, seed=3).passed
        assert check_homological(dorf, seed=3).passed
    assert check_homological(so3_lie2(), seed=3).passed


def test_broken_variants_fail_both_ways():
    for split in (broken_so3_bad_jacobi(), broken_r4_nonclosed(),
                  broken_so3_string_l1()):
        dorf = dorfman_from_split(split)
        assert not check_dorfman2rep(dorf, seed=3).passed
        assert not check_homological(dorf, seed=3).passed


def test_broken_r4_fails_exactly_d6():
    rep = check_dorfman2rep(dorfman_from_split(broken_r4_nonclosed()), seed=3)
    assert set(rep.failing_labels()) == {"D6"}


def test_split_round_trip():
    for split in (so3_string(), tm_r1_lie1()):
        back = split_from_dorfman(dorfman_from_split(split))
        assert back.l1 == split.l1
        assert back.bracket.comps == split.bracket.comps
        assert back.nablaB.gamma == split.nablaB.gamma
        assert back.l3 == split.l3


def test_change_splitting_preserves_axioms():
    dorf = dorfman_from_split(so3_string())
    phi = PolyTensor(1, [(3, 2, True), (1, 1, False)])
    phi.set((0, 1, 0), Polynomial.variable(1, 0))
    phi.set((1, 2, 0), Polynomial.const(1, 2))
    shifted = change_splitting(dorf, phi)
    rep = check_dorfman2rep(shifted, seed=3)
    assert rep.passed, rep.failing_labels()
    assert check_homological(shifted, seed=3).passed


def test_change_splitting_with_zero_phi_is_identity():
    dorf = dorfman_from_split(so3_string())
    phi = PolyTensor(1, [(3, 2, True), (1, 1, False)])
    same = change_splitting(dorf, phi)
    assert same.delta.comps == dorf.delta.comps
    assert same.nablaB.gamma == dorf.nablaB.gamma
    assert same.curv == dorf.curv


def test_projection_morphism_string_to_lie2():
    # projection string(so(3)) -> so(3)-as-Lie-2: mu_Q = id, mu_B = 0
    split1 = so3_string()
    split2 = split_from_dorfman(so3_lie2())
    mu_q = PolyMatrix.identity(1, 3)
    mu_b = PolyMatrix(1, 0, 1)
    mu12 = PolyTensor(1, [(3, 2, True), (0, 1, False)])
    rep = check_lie2_morphism(split1, split2, mu_q, mu_b, mu12, seed=3)
    assert rep.passed, rep.failing_labels()


def test_non_morphism_detected():
    split1 = so3_string()
    split2 = split_from_dorfman(so3_lie2())
    mu_q = PolyMatrix.identity(1, 3)
    mu_q[0, 1] = Polynomial.const(1, 1)
    mu_b = PolyMatrix(1, 0, 1)
    mu12 = PolyTensor(1, [(3, 2, True), (0, 1, False)])
    rep = check_lie2_morphism(split1, split2, mu_q, mu_b, mu12, seed=3)
    assert not rep.passed
    assert "bracket" in rep.failing_labels()


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_odd_derivation_squares_to_half_its_commutator(data):
    """Why ``check_homological`` records its random function without
    evaluating it: for an odd derivation D, D^2 = [D, D] / 2 is again a
    derivation, so [Q, Q] = 0 on generators gives Q^2 = 0 everywhere."""
    p = data.draw(st.integers(min_value=1, max_value=2))
    rq = data.draw(st.integers(min_value=1, max_value=3))
    rb = data.draw(st.integers(min_value=0, max_value=2))
    d = Draw(data.draw, p)
    field = GradedDerivation(
        p, rq, rb, 1,
        [graded_function(d, rq, rb, 1) for _ in range(p)],
        [graded_function(d, rq, rb, 0) for _ in range(rq)],
        [graded_function(d, rq, rb, 1) for _ in range(rb)])
    f = graded_function(d, rq, rb)
    assert field.apply(field.apply(f)).scale(2) == \
        graded_commutator(field, field).apply(f)
