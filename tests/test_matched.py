"""Matched pairs of 2-representations and of Lie algebroids."""

from lie2check.lie2 import check_dorfman2rep, check_homological, \
    dorfman_from_split
from lie2check.matched import (
    bicrossproduct, check_la_matched_pair, check_matched_two_reps,
    check_q_preserves_poisson, decompose_bicrossproduct,
)
from lie2check.examples import (
    axb_matched, broken_axb_cond5, broken_so3_pair_dq,
    broken_unit_matched_cond2, so3_poisson_pair, so3_symplectic_pair,
    tangent_double_pair_r1, unit_matched_point,
)

MATCHED = (unit_matched_point, axb_matched)
LA_PAIRS = (so3_symplectic_pair, so3_poisson_pair, tangent_double_pair_r1)


def test_matched_two_reps_pass():
    for build in MATCHED:
        rep = check_matched_two_reps(build(), seed=3)
        assert rep.passed, (build.__name__, rep.failing_labels())


def test_broken_matched_two_reps_fail():
    rep = check_matched_two_reps(broken_axb_cond5(), seed=3)
    assert "condition_5" in rep.failing_labels()
    rep = check_matched_two_reps(broken_unit_matched_cond2(), seed=3)
    assert "condition_2" in rep.failing_labels()


def test_component_reports_are_included():
    rep = check_matched_two_reps(unit_matched_point(), seed=3)
    labels = [e.label for e in rep.entries]
    assert any(l.startswith("2rep_A:") for l in labels)
    assert any(l.startswith("2rep_B:") for l in labels)


def test_bicrossproduct_passes_homological():
    for build in MATCHED:
        split = bicrossproduct(build())
        dorf = dorfman_from_split(split)
        assert check_dorfman2rep(dorf, seed=5).passed
        assert check_homological(dorf, seed=5).passed


def test_bicrossproduct_with_trivial_core_has_zero_l3():
    split = bicrossproduct(axb_matched())
    assert split.l3.is_zero()


def test_decompose_inverts_bicrossproduct():
    for build in MATCHED:
        pair = build()
        back = decompose_bicrossproduct(bicrossproduct(pair),
                                        pair.algA.bundle.rank)
        assert back.partialA == pair.partialA
        assert back.partialB == pair.partialB
        assert back.nablaAB.gamma == pair.nablaAB.gamma
        assert back.nablaAC.gamma == pair.nablaAC.gamma
        assert back.nablaBA.gamma == pair.nablaBA.gamma
        assert back.nablaBC.gamma == pair.nablaBC.gamma
        assert back.curvAB == pair.curvAB
        assert back.curvBA == pair.curvBA


def test_decompose_rejects_non_closing_split():
    import pytest
    from lie2check.examples import so3_string
    # [e1, e2] = e3 does not stay inside the A = span(e1, e2) part
    with pytest.raises(ValueError):
        decompose_bicrossproduct(so3_string(), 2)


def test_la_matched_pairs_pass():
    for build in LA_PAIRS:
        rep = check_la_matched_pair(build(), seed=3)
        assert rep.passed, (build.__name__, rep.failing_labels())


def test_expanded_m5_agrees_with_koszul_form():
    for build in LA_PAIRS:
        rep = check_la_matched_pair(build(), seed=3)
        agreement = [e for e in rep.entries if e.label == "M5_agreement"]
        assert agreement and all(e.passed for e in agreement)


def test_broken_la_pair_fails_m1():
    rep = check_la_matched_pair(broken_so3_pair_dq(), seed=3)
    assert "M1" in rep.failing_labels()


def test_q_poisson_biconditional():
    for build in LA_PAIRS + (broken_so3_pair_dq,):
        pair = build()
        qp = check_q_preserves_poisson(pair, seed=3)
        mp = check_la_matched_pair(pair, seed=3)
        assert qp.passed == mp.passed, build.__name__
        agreement = [e for e in qp.entries
                     if e.label == "matched_agreement"]
        assert agreement and agreement[0].passed
