"""Self-dual 2-representations and the degree -2 Poisson bracket."""

from lie2check.exactpoly import Polynomial, PolyMatrix
from lie2check.lie2 import GradedFunction
from lie2check.poisson import (
    PoissonStructure, check_graded_jacobi, check_selfdual2rep,
    is_symplectic,
)
from lie2check.examples import (
    broken_selfdual_nonsym, broken_selfdual_zero_r, euclidean_curved_r2,
    euclidean_selfdual_r1, so3_selfdual,
)

SOUND = (euclidean_selfdual_r1, euclidean_curved_r2, so3_selfdual)
BROKEN = (broken_selfdual_nonsym, broken_selfdual_zero_r)


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
    # {beta(e_1), beta(e_2)} = <e_1, e_2> for the Euclidean structure
    rep = euclidean_selfdual_r1()
    ps = PoissonStructure(rep)
    b1 = GradedFunction(1, 2, 1, {((), (0,)): Polynomial.const(1, 1)})
    # beta(e_i) corresponds to the degree-2 image of tau_i under partial_q;
    # with partial_q = id the pairing of frames is delta_ij
    tau = [GradedFunction(1, 2, 1, {((i,), ()): Polynomial.const(1, 1)})
           for i in range(2)]
    out = ps.bracket(tau[0], tau[0])
    assert out == GradedFunction.from_poly(2, 1, Polynomial.const(1, 1))
    out = ps.bracket(tau[0], tau[1])
    assert out.is_zero()
    assert ps.bracket(b1, b1).is_zero()


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

