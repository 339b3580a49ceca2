"""Golden report hashes for checkers and inputs the benchmark gate does
not run.

Each case pins the sha256 of one JSON report: the Dirac modes
``dirac-la-sub`` and ``dirac-la`` through the CLI, the Lie 2-algebroid
morphism of a change of splitting (a passing and a failing one), the
Manin-pair check, and the failing reports of the Poisson-bracket checkers
``graded-jacobi`` and ``q-poisson`` (on broken self-dual examples, on
``broken_so3_pair_dq``, and on ``so3_poisson_pair`` with a non-symmetric
``partial_q``, whose bracket table is not skew).  A change to a
checker's loops, labels, witnesses or residuals changes the hash.  Print
the current hashes with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json

import pytest

from lie2check.cli import main
from lie2check.courant import DiracData, check_manin_pair, manin_pair
from lie2check.examples import (
    broken_selfdual_nonsym, broken_selfdual_zero_r, broken_so3_pair_dq,
    semidirect_flat, so3_e3_dirac, so3_poisson_pair,
)
from lie2check.exactpoly import Polynomial, PolyMatrix, PolyTensor
from lie2check.lie2 import change_splitting, check_lie2_morphism, \
    split_from_dorfman
from lie2check.matched import check_q_preserves_poisson
from lie2check.poisson import check_graded_jacobi

from helpers import report_dict

SEEDS = (0, 5)

GOLDEN = {
    'dirac-la-sub/broken_so3_e12_dirac/seed0': '8dba05f6d3c53ecc2ce4c6252691d83a592945212061342f0830d74673aee1f0',
    'dirac-la-sub/broken_so3_e12_dirac/seed5': '46c35661c14cd67640e4a0ab7caa5dc5ef414be7c751a88a868a45176cb229b8',
    'dirac-la-sub/so3_e3_dirac/seed0': '44137b7c5b613523a66b6d81485471a9b0cb633de7c94fb7d83ed8bca3a66294',
    'dirac-la-sub/so3_e3_dirac/seed5': '324b2acc98167ee9712a45e40239fea15e9f77b9095a431e752075ae3011b740',
    'dirac-la/broken_so3_e12_dirac/seed0': 'b9646825613ee492bfad16fdc522bb1029a3a2e302379effb200ffded69d0128',
    'dirac-la/broken_so3_e12_dirac/seed5': '3badbd38ffaf9ba21a0c918f73b2a9cda1a1e22d283fab87c71ddf2067b4bed1',
    'dirac-la/so3_e3_dirac/seed0': 'd8bc20881a205edeb7492f0d9b95e16b4ed3c0a98b143885fc9f39a6b009ddd6',
    'dirac-la/so3_e3_dirac/seed5': 'c94cb3015b6df18e19d3ee888806666678ac3cd5e4b2b2d8f2ad3d7fc8b6b0a7',
    'graded-jacobi/broken_selfdual_nonsym/seed0': '1f81e8f52d822e458f759199177725c89fd0d23153ad9c3107949bbb53c04e25',
    'graded-jacobi/broken_selfdual_nonsym/seed5': '63db0b2f4cf29e6e422da31065f85848fc0b57a8364d8025d73e6ce5491d1b17',
    'graded-jacobi/broken_selfdual_zero_r/seed0': '69f5532793e893368e7a7df522fd9c46ec02f3e25d205c45eeb647d9d38160a8',
    'graded-jacobi/broken_selfdual_zero_r/seed5': '50ca5114c6e53b443edd735e32ada467633d6bb064288b6d1f53d76a7e61c66a',
    'graded-jacobi/broken_so3_pair_dq/seed0': '47d255185d076288bb2c7106c26f0326ac85dab800ad486e344f924f9bcfcf12',
    'graded-jacobi/broken_so3_pair_dq/seed5': '8facb5f3af8f285c3691a1224341036698e94970b40e79b9800e82133989efa3',
    'graded-jacobi/so3_poisson_pair_nonsym/seed0': 'dd25216de47a6ed9bace573b8f90dfbfdd8d4834cde1339f51460731b0c73af0',
    'graded-jacobi/so3_poisson_pair_nonsym/seed5': 'e423f6a40aa903f4e23d3ba4dfc3e309d96618f1ba93fdbe13324a7fac9ec4d4',
    'manin/full/seed0': '5d0615bf35b97a5629bdd930fa8192b7dbddf456dfe499e7050d0dc6ecc537b4',
    'manin/full/seed5': '96909cdd095774209ea43e5fe732692aa476c31bf9264939e473d35ffcf26944',
    'manin/so3_e3_dirac/seed0': 'dc49c4b302b9ad5a47f04fe6f8b374f6fba744ef92ac7d3a0980654af16fb0be',
    'manin/so3_e3_dirac/seed5': '69489bb41a49cf41d0abb3b617669229ea2b04e57a9401c7026baa1846017f9b',
    'morphism/minus_phi/seed0': '33df248711018734a9f05d54410db28fc462a358415d926a223a99e4316b888c',
    'morphism/minus_phi/seed5': 'ba0c118a3fb0b1034d6a4ee900129e959dd19c2df5e0a60e49060caf34e2f0c5',
    'morphism/plus_phi/seed0': 'e9ff0d615f214b4aad5f4fa43ad090ce924efe50eb666cf7dff329c2facbb9d1',
    'morphism/plus_phi/seed5': '0ea27382be445920b0424be160d7220568b4ebbaebe7602072e1c836f97ddce1',
    'q-poisson/broken_so3_pair_dq/seed0': 'eee9835ca40e77ddfd321780c9326bfb2a9e87180e3177f1443fd3343b7af075',
    'q-poisson/broken_so3_pair_dq/seed5': '3aef146e0a343e23c6630f18459d7a31a0e3620e74c97b1aa516878289965c3f',
    'q-poisson/so3_poisson_pair_nonsym/seed0': '8de0b5eee5c39e65330ca517aca47a6054b1bae7c0189b7dc08d353f913481df',
    'q-poisson/so3_poisson_pair_nonsym/seed5': '2ab8176abf83a10e0d1119d94ec13503359d8cdfd5ef76beb3807c5276dcc6cb',
}


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _report_sha(report):
    return _sha(json.dumps(report_dict(report), sort_keys=True, indent=2))


def _dirac(tmp_path, mode, dirac, seed):
    paths = []
    for name in ("so3_poisson_pair", dirac):
        paths.append(str(tmp_path / f"{name}.json"))
        assert main(["example", name, "--out", paths[-1]]) == 0
    out = tmp_path / "report.json"
    main(["check", "--mode", mode, *paths, "--format", "json",
          "--seed", str(seed), "--out", str(out)])
    return _sha(out.read_text(encoding="utf-8"))


def _morphism(sign, seed):
    """semidirect_flat against its change of splitting by phi, with
    mu_Q and mu_B the identities and mu12 = sign * phi."""
    dorf = semidirect_flat()
    x = Polynomial.variable(1, 0)
    phi, mu12 = (PolyTensor(1, [(2, 2, True), (1, 1, False)])
                 for _ in range(2))
    phi.set((0, 1, 0), x)
    mu12.set((0, 1, 0), x.scale(sign))
    report = check_lie2_morphism(
        split_from_dorfman(dorf), split_from_dorfman(change_splitting(dorf, phi)),
        PolyMatrix.identity(1, 2), PolyMatrix.identity(1, 1), mu12, seed=seed)
    return _report_sha(report)


def _manin(data, seed):
    return _report_sha(check_manin_pair(manin_pair(so3_poisson_pair(), data),
                                        seed=seed))


def so3_poisson_pair_nonsym():
    """so3_poisson_pair with partial_q[0, 1] = 1, so partial_q is not
    symmetric and the generator table of its bracket is not skew."""
    pair = so3_poisson_pair()
    pair.selfdual.partial_q[0, 1] = Polynomial.const(1, 1)
    return pair


def _poisson_checks():
    """(mode, example name, report of a seed) for each Poisson case."""
    for build in (broken_selfdual_nonsym, broken_selfdual_zero_r):
        yield ("graded-jacobi", build.__name__,
               lambda s, b=build: check_graded_jacobi(b(), seed=s))
    for build in (broken_so3_pair_dq, so3_poisson_pair_nonsym):
        yield ("graded-jacobi", build.__name__,
               lambda s, b=build: check_graded_jacobi(b().selfdual, seed=s))
        yield ("q-poisson", build.__name__,
               lambda s, b=build: check_q_preserves_poisson(b(), seed=s))


def _cases():
    cases = {}
    for seed in SEEDS:
        for mode in ("dirac-la-sub", "dirac-la"):
            for dirac in ("so3_e3_dirac", "broken_so3_e12_dirac"):
                cases[f"{mode}/{dirac}/seed{seed}"] = \
                    lambda tmp, m=mode, d=dirac, s=seed: _dirac(tmp, m, d, s)
        for name, sign in (("minus_phi", -1), ("plus_phi", 1)):
            cases[f"morphism/{name}/seed{seed}"] = \
                lambda tmp, g=sign, s=seed: _morphism(g, s)
        full = DiracData(PolyMatrix.identity(1, 3), PolyMatrix(1, 0, 0))
        for name, data in (("full", full), ("so3_e3_dirac", so3_e3_dirac())):
            cases[f"manin/{name}/seed{seed}"] = \
                lambda tmp, d=data, s=seed: _manin(d, s)
        for mode, name, check in _poisson_checks():
            cases[f"{mode}/{name}/seed{seed}"] = \
                lambda tmp, c=check, s=seed: _report_sha(c(s))
    return cases


CASES = _cases()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_hash_is_pinned(tmp_path, case):
    assert CASES[case](tmp_path) == GOLDEN[case]


def test_every_case_is_pinned():
    assert set(GOLDEN) == set(CASES)


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            print(f"    {case!r}: {CASES[case](Path(tmp))!r},")
