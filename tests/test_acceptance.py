"""End-to-end acceptance checks.  All comparisons are exact (rational
arithmetic, zero tolerance)."""

import json
import time

import pytest

from lie2check.exactpoly import Polynomial, PolyMatrix, PolyTensor
from lie2check.bundle import (
    AnchoredBundle, DullBracket, LinearConnection, check_lie_algebroid,
    unit_section,
)
from lie2check.lie2 import (
    change_splitting, check_dorfman2rep, check_homological,
    dorfman_from_split,
)
from lie2check.poisson import SelfDual2Rep, check_graded_jacobi, \
    check_selfdual2rep
from lie2check.matched import (
    LAPairData, bicrossproduct, check_la_matched_pair,
    check_q_preserves_poisson, decompose_bicrossproduct,
)
from lie2check.courant import (
    DiracData, adjoint_dorfman2rep, check_courant_axioms, check_dirac,
    check_manin_pair, core_courant, induced_lie_algebroid_on_U, manin_pair,
    selfdual_change_splitting, standard_dorfman2rep, tangent_double_pair,
)
from lie2check.cli import main
from lie2check.examples import (
    EXAMPLES, axb_matched, broken_r4_nonclosed, broken_selfdual_nonsym,
    broken_selfdual_zero_r, broken_so3_bad_jacobi, broken_so3_pair_dq,
    broken_so3_string_l1, euclidean_curved_r2, euclidean_selfdual_r1,
    semidirect_flat, so3_lie2, so3_poisson_pair, so3_quadratic,
    so3_selfdual, so3_string, so3_structure_constants,
    so3_symplectic_pair, standard_courant_r1, tangent_double_pair_r1,
    tm_r1_lie1, unit_matched_point,
)

from helpers import canonical_keys


def _zero_gamma(p, rank):
    z = Polynomial.zero(p)
    return [[[z for _ in range(rank)] for _ in range(rank)]
            for _ in range(p)]


def _standard_dorfman():
    anchor = PolyMatrix(1, 1, 2)
    anchor[0, 0] = Polynomial.const(1, 1)
    bundle = AnchoredBundle(1, 2, anchor)
    z = Polynomial.zero(1)
    dull = DullBracket(bundle, [[[z, z] for _ in range(2)]
                                for _ in range(2)])
    return standard_dorfman2rep(dull)


def test_acceptance_1_q_squared_equivalence():
    start = time.monotonic()
    sound = [
        dorfman_from_split(so3_string()),
        dorfman_from_split(tm_r1_lie1()),
        _standard_dorfman(),
        adjoint_dorfman2rep(so3_quadratic(), _zero_gamma(1, 3)),
        semidirect_flat(),
        dorfman_from_split(bicrossproduct(axb_matched())),
        so3_lie2(),
    ]
    broken = [
        dorfman_from_split(broken_so3_bad_jacobi()),
        dorfman_from_split(broken_r4_nonclosed()),
        dorfman_from_split(broken_so3_string_l1()),
    ]
    assert len(sound) >= 6 and len(broken) >= 3
    for rep in sound + broken:
        axioms = check_dorfman2rep(rep, seed=3)
        field = check_homological(rep, seed=3)
        assert axioms.passed == field.passed
    for rep in sound:
        assert check_dorfman2rep(rep, seed=3).passed
    for rep in broken:
        assert not check_dorfman2rep(rep, seed=3).passed
    assert time.monotonic() - start < 10.0


def test_acceptance_2_poisson_biconditional():
    sound = [euclidean_selfdual_r1(), euclidean_curved_r2(), so3_selfdual(),
             tangent_double_pair_r1().selfdual]
    broken = [broken_selfdual_nonsym(), broken_selfdual_zero_r()]
    assert len(sound) >= 4 and len(broken) >= 2
    for rep in sound + broken:
        jac = check_graded_jacobi(rep, seed=3)
        ax = check_selfdual2rep(rep, seed=3)
        assert jac.passed == ax.passed
    assert all(check_selfdual2rep(r, seed=3).passed for r in sound)
    assert not any(check_selfdual2rep(r, seed=3).passed for r in broken)


def _broken_pair_ad_connection():
    """so(3) pair with nabla^Q replaced by the adjoint action: the mixed
    Jacobi-type conditions fail."""
    pair = so3_symplectic_pair()
    nablaQ = LinearConnection(pair.selfdual.algebroid.bundle, 3,
                              so3_structure_constants(1))
    selfdual = SelfDual2Rep(pair.selfdual.algebroid, 3,
                            pair.selfdual.partial_q, nablaQ,
                            pair.selfdual.curvB)
    return LAPairData(selfdual, pair.dorfman)


def test_acceptance_3_matched_pair_biconditional():
    sound = [so3_symplectic_pair(), tangent_double_pair_r1()]
    broken = [broken_so3_pair_dq(), _broken_pair_ad_connection()]
    for pair in sound + broken:
        qp = check_q_preserves_poisson(pair, seed=3)
        mp = check_la_matched_pair(pair, seed=3)
        assert qp.passed == mp.passed
    assert all(check_la_matched_pair(p, seed=3).passed for p in sound)
    assert not any(check_la_matched_pair(p, seed=3).passed for p in broken)


def test_acceptance_4_bicrossproduct():
    for pair in (unit_matched_point(), axb_matched()):
        split = bicrossproduct(pair)
        assert check_homological(dorfman_from_split(split), seed=5).passed
        back = decompose_bicrossproduct(split, pair.algA.bundle.rank)
        assert back.partialA == pair.partialA
        assert back.partialB == pair.partialB
        assert back.nablaAB.gamma == pair.nablaAB.gamma
        assert back.nablaAC.gamma == pair.nablaAC.gamma
        assert back.nablaBA.gamma == pair.nablaBA.gamma
        assert back.nablaBC.gamma == pair.nablaBC.gamma
        assert back.curvAB == pair.curvAB
        assert back.curvBA == pair.curvBA
    # C = 0 case: the 3-bracket vanishes identically
    assert bicrossproduct(axb_matched()).l3.is_zero()


def _courant_equal(c1, c2):
    if c1.rho != c2.rho or c1.pairing != c2.pairing or c1.dmat != c2.dmat:
        return False
    for row1, row2 in zip(c1.bracket_comps, c2.bracket_comps):
        for s1, s2 in zip(row1, row2):
            if any(not (a - b).is_zero() for a, b in zip(s1, s2)):
                return False
    return True


def _phi_choices(pair):
    p = pair.dorfman.bundle.base_dim
    rq, rb = pair.dorfman.rank_q, pair.dorfman.rank_b
    groups = [(rq, 2, True), (rb, 1, False)]
    x = Polynomial.variable(p, 0)
    one = Polynomial.const(p, 1)
    out = []
    for fill in ((x,), (one,), (x, one)):
        phi = PolyTensor(p, groups)
        for value, key in zip(fill, canonical_keys(phi)):
            phi.set(key, value)
        if not phi.is_zero():
            out.append(phi)
    return out


def test_acceptance_5_core_courant_and_splitting_independence():
    pairs = [so3_symplectic_pair(), so3_poisson_pair(),
             tangent_double_pair_r1()]
    for pair in pairs:
        assert check_courant_axioms(core_courant(pair), seed=3).passed
    for pair in (so3_symplectic_pair(), tangent_double_pair_r1()):
        reference = core_courant(pair)
        phis = _phi_choices(pair)
        assert len(phis) >= 3
        for phi in phis:
            shifted = LAPairData(
                selfdual_change_splitting(pair.selfdual, phi),
                change_splitting(pair.dorfman, phi))
            assert check_la_matched_pair(shifted, seed=3).passed
            assert _courant_equal(core_courant(shifted), reference)


def _so3_metric_gamma():
    x = Polynomial.variable(1, 0)
    z = Polynomial.zero(1)
    return [[[z, x, z], [-x, z, z], [z, z, z]]]


def _standard_r1_metric_gamma():
    x = Polynomial.variable(1, 0)
    z = Polynomial.zero(1)
    return [[[x, z], [z, -x]]]


def test_acceptance_6_courant_bracket_recovery():
    cases = [
        (so3_quadratic(), [_zero_gamma(1, 3), _so3_metric_gamma()]),
        (standard_courant_r1(),
         [_zero_gamma(1, 2), _standard_r1_metric_gamma()]),
    ]
    for ca, gammas in cases:
        assert len(gammas) >= 2
        ginv = ca.pairing.inverse_constant()
        for gamma in gammas:
            cc = core_courant(tangent_double_pair(ca, gamma))
            assert cc.pairing == ginv
            assert cc.rho == ca.rho.matmul(ginv)
            n = ca.rank
            for i in range(n):
                for j in range(n):
                    ti = unit_section(ca.base_dim, n, i)
                    tj = unit_section(ca.base_dim, n, j)
                    got = cc.bracket(cc.dee, ti, tj)
                    want = ca.pairing.apply(
                        ca.bracket(ca.dee, ginv.apply(ti), ginv.apply(tj)))
                    assert all((a - b).is_zero()
                               for a, b in zip(got, want))


def test_acceptance_7_manin_pairs():
    pair = so3_poisson_pair()
    inputs = [
        DiracData(PolyMatrix.identity(1, 3), PolyMatrix(1, 0, 0)),
    ]
    e3 = PolyMatrix(1, 3, 1)
    e3[2, 0] = Polynomial.const(1, 1)
    inputs.append(DiracData(e3, PolyMatrix(1, 0, 0)))
    assert len(inputs) >= 2
    for data in inputs:
        assert check_dirac(pair.dorfman, pair.selfdual, data, "la_dirac",
                           seed=3).passed
        result = manin_pair(pair, data)
        report = check_manin_pair(result, seed=3)
        assert report.passed, report.failing_labels()
        labels = {e.label for e in report.entries}
        assert "pairing_nondegenerate" in labels
        assert "U_isotropic" in labels
        assert "U_bracket_closed" in labels


def test_acceptance_8_dirac_verdicts():
    dorf = so3_lie2()
    e3 = PolyMatrix(1, 3, 1)
    e3[2, 0] = Polynomial.const(1, 1)
    e12 = PolyMatrix(1, 3, 2)
    e12[0, 0] = Polynomial.const(1, 1)
    e12[1, 1] = Polynomial.const(1, 1)
    good = DiracData(e3, PolyMatrix(1, 0, 0))
    bad = DiracData(e12, PolyMatrix(1, 0, 0))
    assert check_dirac(dorf, None, good, "vb_dirac", seed=3).passed
    assert not check_dirac(dorf, None, bad, "vb_dirac", seed=3).passed
    for data in (good, DiracData(PolyMatrix.identity(1, 3),
                                 PolyMatrix(1, 0, 0))):
        if check_dirac(dorf, None, data, "vb_dirac", seed=3).passed:
            alg = induced_lie_algebroid_on_U(dorf, data)
            assert check_lie_algebroid(alg, seed=3).passed
    with pytest.raises(ValueError):
        induced_lie_algebroid_on_U(dorf, bad)


def test_acceptance_9_cli_determinism_and_corpus_health(tmp_path):
    sound = sorted(n for n in EXAMPLES if not n.startswith("broken_"))
    broken = sorted(n for n in EXAMPLES if n.startswith("broken_"))
    paths = {}
    for name in sound + broken:
        path = tmp_path / f"{name}.json"
        assert main(["example", name, "--out", str(path)]) == 0
        paths[name] = path

    def check_args(name):
        if name.endswith("_dirac"):
            return ["check", "--mode", "dirac-vb", str(paths["so3_lie2"]),
                    str(paths[name])]
        return ["check", str(paths[name])]

    for name in sound:
        out = tmp_path / "rep.json"
        assert main(check_args(name) + ["--format", "json",
                                        "--out", str(out)]) == 0, name
    for name in broken:
        out = tmp_path / "rep.json"
        assert main(check_args(name) + ["--format", "json",
                                        "--out", str(out)]) == 1, name
        advertised = json.loads(paths[name].read_text())["expect_fail"]
        report = json.loads(out.read_text())
        failing = {c["label"] for c in report["checks"] if not c["passed"]}
        assert set(advertised) <= failing, name
    # byte-stable reports
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (r1, r2):
        assert main(["check", str(paths["tangent_double_pair_r1"]),
                     "--format", "json", "--seed", "11",
                     "--out", str(out)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
