"""Self-dual 2-representations and the degree -2 Poisson bracket."""

from lie2check.exactpoly import Polynomial, PolyMatrix
from lie2check.lie2 import GradedFunction, build_homological_field
from lie2check.poisson import (
    PoissonStructure, check_graded_jacobi, check_selfdual2rep,
    is_symplectic,
)
from lie2check.examples import (
    broken_selfdual_nonsym, broken_selfdual_zero_r, euclidean_curved_r2,
    euclidean_selfdual_r1, so3_poisson_pair, so3_selfdual,
    so3_symplectic_pair, tangent_double_pair_r1,
)

from helpers import curved_tangent_double

SOUND = (euclidean_selfdual_r1, euclidean_curved_r2, so3_selfdual)
BROKEN = (broken_selfdual_nonsym, broken_selfdual_zero_r)
SOUND_PAIRS = (so3_symplectic_pair, so3_poisson_pair, tangent_double_pair_r1,
               curved_tangent_double)


def test_sound_selfdual_reps_pass():
    for build in SOUND:
        rep = check_selfdual2rep(build(), seed=3)
        assert rep.passed, (build.__name__, rep.failing_labels())


def test_broken_selfdual_reps_fail():
    rep = check_selfdual2rep(broken_selfdual_nonsym(), seed=3)
    assert "partial_symmetric" in rep.failing_labels()
    rep = check_selfdual2rep(broken_selfdual_zero_r(), seed=3)
    assert "curv_on_B" in rep.failing_labels()


def test_euclidean_bracket_of_momenta_is_the_pairing():
    # {tau_i, tau_j} = <e_i, e_j> for the Euclidean structure: with
    # partial_q = id the pairing of frames is delta_ij
    ps = PoissonStructure(euclidean_selfdual_r1())
    _, tau1, tau2, b1 = range(4)  # x1, tau1, tau2, b1
    one = GradedFunction.from_poly(2, 1, Polynomial.const(1, 1))
    tau = [GradedFunction(1, 2, 1, {((i,), ()): Polynomial.const(1, 1)})
           for i in range(2)]
    assert ps.table[tau1][tau1] == one
    assert ps.left[tau1].apply(tau[0]) == one
    assert ps.with_generator(tau[0], 1, tau1) == one
    assert ps.table[tau1][tau2].is_zero()
    assert ps.left[tau1].apply(tau[1]).is_zero()
    assert ps.table[b1][b1].is_zero()
    b_gen = GradedFunction(1, 2, 1, {((), (0,)): Polynomial.const(1, 1)})
    assert ps.left[b1].apply(b_gen).is_zero()


def test_right_bracket_is_the_left_one_under_graded_skew_symmetry():
    """On a sound structure {u, g_c} = -(-1)^{|u| d_c} {g_c, u}: the
    ``right`` derivation with its sign agrees with ``left``, for u not a
    generator: u = {g_a, g_b} and u = Q g_a."""
    cases = []
    for build in SOUND:
        ps = PoissonStructure(build())
        deg = ps.degrees
        cases.append((ps, [(ps.table[a][b], deg[a] + deg[b] - 2)
                           for a in range(len(deg)) for b in range(len(deg))]))
    for build in SOUND_PAIRS:
        pair = build()
        ps = PoissonStructure(pair.selfdual)
        field = build_homological_field(pair.dorfman)
        cases.append((ps, [(img, d + 1) for img, d in
                           zip(field.images(), ps.degrees)]))
    odd_nonzero = 0
    for ps, functions in cases:
        for u, degree in functions:
            for c, dc in enumerate(ps.degrees):
                value = ps.left[c].apply(u)
                odd = degree * dc % 2 == 1
                assert ps.with_generator(u, degree, c) == \
                    (value if odd else -value)
                odd_nonzero += odd and not value.is_zero()
    assert odd_nonzero  # the sign (-1)^{|u| d_c} is exercised


def test_graded_jacobi_on_sound_examples():
    for build in SOUND:
        rep = check_graded_jacobi(build(), seed=3)
        assert rep.passed, (build.__name__, rep.failing_labels())


def test_graded_jacobi_biconditional():
    for build in SOUND + BROKEN:
        rep = build()
        jac = check_graded_jacobi(rep, seed=3)
        ax = check_selfdual2rep(rep, seed=3)
        assert jac.passed == ax.passed, build.__name__
        agreement = [e for e in jac.entries
                     if e.label == "selfdual_agreement"]
        assert agreement and agreement[0].passed


def test_is_symplectic():
    rep = is_symplectic(euclidean_selfdual_r1())
    assert rep.passed, rep.failing_labels()
    # zero partial_q is never symplectic
    base = euclidean_selfdual_r1()
    from lie2check.poisson import SelfDual2Rep
    degenerate = SelfDual2Rep(base.algebroid, 2, PolyMatrix(1, 2, 2),
                              base.nablaQ, base.curvB)
    assert not is_symplectic(degenerate).passed

