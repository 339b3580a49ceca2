"""Golden report hashes for checkers and inputs the benchmark gate does
not run.

Each case pins the sha256 of one JSON report: the Dirac modes
``dirac-la-sub`` and ``dirac-la`` through the CLI, the Lie 2-algebroid
morphism of a change of splitting (a passing and a failing one), the
Manin-pair check, and the failing reports of the Poisson-bracket checkers
``graded-jacobi`` and ``q-poisson`` (on broken self-dual examples, on
``broken_so3_pair_dq``, and on ``so3_poisson_pair`` with a non-symmetric
``partial_q``, whose bracket table is not skew).  A change to a
checker's loops, labels, witnesses or residuals changes the hash.

The ``koszul/`` cases pin four failing reports whose residuals are
covariant Koszul differentials, which no corpus input fails:
``dR_zero`` of a self-dual 2-representation, M5 of a matched Lie
2-algebroid pair, condition 7 of a matched pair of 2-representations,
and the ``curvature`` label of a Lie 2-algebroid morphism (through
d mu12).  ``test_koszul_pin_fails`` names the labels each one fails.

``CONSTRUCTIONS`` pins the sha256 of the encoded output of every
construction, on the corpus examples of the kind it takes: split <->
Dorfman, the bicrossproduct and its decomposition at every ``rank_a``,
the semidirect and dual 2-representations (also of each self-dual
example's ``as_two_rep()``), the standard Dorfman 2-representation, the
adjoint Dorfman 2-representation and the tangent double (also of
``standard_courant(2)`` and ``(3)`` with a curved metric connection),
both changes of splitting with a fixed nonzero phi, the core Courant
algebroid of each matched pair, and the Manin pair and the induced Lie
algebroid of each (matched pair or Dorfman 2-representation, Dirac
structure) pair.  The corpus Dirac structures have B' = 0, so the
tangent double over R^1 is also paired with B' = B and U = Q or U =
span(e1): there B is nonzero and reaches the Manin-pair bracket.  A
construction that refuses its input pins its message instead.  The
benchmark covers only its six round trips, with phi = 0.

Print the current hashes of both tables with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json

import pytest

from lie2check import serialize
from lie2check.cli import main
from lie2check.courant import (
    DiracData, adjoint_dorfman2rep, check_manin_pair, core_courant,
    induced_lie_algebroid_on_U, manin_pair, selfdual_change_splitting,
    semidirect_dorfman2rep, standard_courant, standard_dorfman2rep,
    tangent_double_pair,
)
from lie2check.examples import (
    EXAMPLES, broken_selfdual_nonsym, broken_selfdual_zero_r,
    broken_so3_pair_dq, build_example, so3_e3_dirac, so3_poisson_pair,
)
from lie2check.bundle import (
    AnchoredBundle, DullBracket, LieAlgebroidData, LinearConnection,
    dualize_two_rep,
)
from lie2check.exactpoly import Polynomial, PolyMatrix, PolyTensor
from lie2check.examples import broken_r4_nonclosed, euclidean_curved_r2
from lie2check.lie2 import (
    Dorfman2Rep, change_splitting, check_lie2_morphism, dorfman_from_split,
    split_from_dorfman,
)
from lie2check.matched import (
    MatchedPair2Reps, bicrossproduct, check_la_matched_pair,
    check_matched_two_reps, check_q_preserves_poisson,
    decompose_bicrossproduct,
)
from lie2check.poisson import check_graded_jacobi, check_selfdual2rep

from helpers import (
    canonical_keys, curved_tangent_double, report_dict, splitting_morphism,
)

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
    'koszul/M5/seed0': 'c3e2943e6f28f2cf6a2cc42bf6883d37036d58517aad42e827d83ad72013624b',
    'koszul/M5/seed5': '8189fb4f16eaddb7dd39e1cf5ad98b4f35ff283fffde36d18c22357ba90fdc19',
    'koszul/condition_7/seed0': '49feb6c49e1741aab3f556df08e0acf073c4a45d6b874ab532fd30391d26a8a4',
    'koszul/condition_7/seed5': 'a343ae455ef243394957307b46299ffd96ade368824b5e38fe6fb6d313dae4ac',
    'koszul/curvature/seed0': 'd5875ea2900860b73f574cb3773a1647bf2fa22f97fccf9ab97051603fb2cd47',
    'koszul/curvature/seed5': '48de677acbaf7a2c8453e824b46553142f86c0cca32f0b411aaa4a4c95e8a122',
    'koszul/dR_zero/seed0': 'a0271569bc7c0db0b1032217ca10f15a61cb800ae1268304aa301dff544ca22d',
    'koszul/dR_zero/seed5': '8723f9c96ddf47fc66d5dfe9fd7833b443a82c53b5a5480b9148d2ac0b56c366',
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

CONSTRUCTIONS = {
    'adjoint/broken_so3_bad_pairing/flat': '82dcdf955cfe07f3ed65e8eb44b80e88d20b67313adc08b87f4753d17f8e6bf6',
    'adjoint/so3_quadratic/flat': '6195ed37ac1e574cc5aac29a3145969bd43cff8fd2566d3607140a756be1124c',
    'adjoint/standard_courant(2)/curved': '3dab869ee7befb47b802dd66bed2a8a6fb4a05a6ca61f2cc3ff522fd5faf10bd',
    'adjoint/standard_courant(2)/flat': 'de53b380d1082fb124dfa884d318c2ebdb98790b318fc3936074c08d75d26026',
    'adjoint/standard_courant(3)/curved': '07826be307506c5ee81edfe4bb1780fe2f055a649067a7539914d5cd2ce656d8',
    'adjoint/standard_courant(3)/flat': 'fc7e7f18289021eeea3c854ff9e279bf812877e287eff3d99e39cc646b3aa486',
    'adjoint/standard_courant_r1/flat': '9bed410d341c704d99792e9a101b2a79793e2e85b2b96d324c48080e09fa2715',
    'bicrossproduct/axb_matched': 'c8f4f03e05f18295f42ac90aa445567fea4bc60f8d03676251b189bdb7256739',
    'bicrossproduct/broken_axb_cond5': '8c50068142f7bb8a1a47ca67be30a2740a54c1caeaddb0f62bdb78b944d90565',
    'bicrossproduct/broken_unit_matched_cond2': '366a09e7ffbc80fda5f66b896e2746ed92f539a8a3492302c97e027d0304c327',
    'bicrossproduct/unit_matched_point': '124e0e8496b968f372361872ea57ea9c3ef28c441490064b7106d181619c872e',
    'change-splitting/broken_so3_pair_dq.dorfman': '18f650b07d45dee62e1df85e874ba47fa4f9727957a90e8ba1ba88c2a466dc93',
    'change-splitting/semidirect_flat': 'c55b14fc6fcec2f8e9fdbdbbf04b18de43557b6775f14225cd66d36e04a5a13f',
    'change-splitting/so3_lie2': '652fb4d5a496255789f7a4bda4dc5ce3b2d7edf4862ff7f111bd8ceaaefeb134',
    'change-splitting/so3_poisson_pair.dorfman': '652fb4d5a496255789f7a4bda4dc5ce3b2d7edf4862ff7f111bd8ceaaefeb134',
    'change-splitting/so3_symplectic_pair.dorfman': '18f650b07d45dee62e1df85e874ba47fa4f9727957a90e8ba1ba88c2a466dc93',
    'change-splitting/tangent_double_pair_r1.dorfman': 'c55b14fc6fcec2f8e9fdbdbbf04b18de43557b6775f14225cd66d36e04a5a13f',
    'core-courant/broken_so3_pair_dq': '27cf72f86b28319ac11f93a0473541247c053f38bb4a522fad906cdea24ceb1f',
    'core-courant/so3_poisson_pair': '7c09a435b8e2353c416fe6b18cbd1fef734c9da50235851d2df5307ab041a102',
    'core-courant/so3_symplectic_pair': 'c04d1ec7d763f8d84025a80e554e5c821006fe8b2ac149bce1673bf0af1a87cf',
    'core-courant/tangent_double_pair_r1': '51596070dbf48293f7be86f365aefb546ae0db50869d44b585a311a2b6d9c8be',
    'decompose/axb_matched.bicrossproduct/rank_a0': 'cb510e6c9c7a42050767f23448cf59db8f4a3436779409fd87a892d6a2524a26',
    'decompose/axb_matched.bicrossproduct/rank_a1': 'af11c30ff0ee1002d92361dc4212d97a02fb4935ecf79652815a32ca88a937bc',
    'decompose/axb_matched.bicrossproduct/rank_a2': 'c70665fa62f4e648f4b0031c29c07171d4a7a43616ea2fc37a36db4bc173ad9d',
    'decompose/broken_axb_cond5.bicrossproduct/rank_a0': '51c02f07b25baa2c192d4d0f3ea835035a8b5882dd8c009c22a07b902c3202b2',
    'decompose/broken_axb_cond5.bicrossproduct/rank_a1': 'b2e61f92de403faef2ded47b240d4c0f69ac2044899a5101f1f4a1bb46de9b2c',
    'decompose/broken_axb_cond5.bicrossproduct/rank_a2': '905524565afdda9e408e013f6cbb0fb8a92dcd51b96d3562ed60ef7869263701',
    'decompose/broken_r4_nonclosed/rank_a0': '63e43cfd6f3b9636e5c809bdbb9fdfafcf702648bdb131767b4689cb3111deb6',
    'decompose/broken_r4_nonclosed/rank_a1': '240547cf874bbe8f4e9bb613ad17e18c1edfb6ed1118d95f4d70128ed3756737',
    'decompose/broken_r4_nonclosed/rank_a2': 'b85251d3c38a2fb16e9ca74c32d9a352a50ce6efc952712ffe88a8233fc19929',
    'decompose/broken_r4_nonclosed/rank_a3': '6ffa4b51c8a5635ede31c3fbede8fc73ea0da4b61089a629e47087c9e5291af7',
    'decompose/broken_r4_nonclosed/rank_a4': '6ffa4b51c8a5635ede31c3fbede8fc73ea0da4b61089a629e47087c9e5291af7',
    'decompose/broken_so3_bad_jacobi/rank_a0': '103ac355e46fdb0886b2821cf1c00a87fdf7726dd5ffda86e5d3d4436c73fd5b',
    'decompose/broken_so3_bad_jacobi/rank_a1': '4e58ff010fb113ac30bebf2bb9338d19495b6d41bee7423c905de93965fea593',
    'decompose/broken_so3_bad_jacobi/rank_a2': 'a72e50243c9f249303de20badbd62c0ea2401e3926641774bd437ba90fe9d53e',
    'decompose/broken_so3_bad_jacobi/rank_a3': 'c14fca46005f293ab3687b076207e6abc822ede06f0cd839ab7f0437891a5510',
    'decompose/broken_so3_string_l1/rank_a0': '63e43cfd6f3b9636e5c809bdbb9fdfafcf702648bdb131767b4689cb3111deb6',
    'decompose/broken_so3_string_l1/rank_a1': '4e58ff010fb113ac30bebf2bb9338d19495b6d41bee7423c905de93965fea593',
    'decompose/broken_so3_string_l1/rank_a2': 'a72e50243c9f249303de20badbd62c0ea2401e3926641774bd437ba90fe9d53e',
    'decompose/broken_so3_string_l1/rank_a3': '6ffa4b51c8a5635ede31c3fbede8fc73ea0da4b61089a629e47087c9e5291af7',
    'decompose/broken_unit_matched_cond2.bicrossproduct/rank_a0': 'f247610faaec02b5b1ee6e03f7d321c16c053ef0978c972600fbc67f80a7606a',
    'decompose/broken_unit_matched_cond2.bicrossproduct/rank_a1': '8598185e0a72a715639c9205bba60109c1a6220a8faa69a824da899a6483892a',
    'decompose/broken_unit_matched_cond2.bicrossproduct/rank_a2': '160d9de72c48bf752679a681cc145c8f5e46da1963c373b110b9097e87693321',
    'decompose/so3_string/rank_a0': '63e43cfd6f3b9636e5c809bdbb9fdfafcf702648bdb131767b4689cb3111deb6',
    'decompose/so3_string/rank_a1': '4e58ff010fb113ac30bebf2bb9338d19495b6d41bee7423c905de93965fea593',
    'decompose/so3_string/rank_a2': 'a72e50243c9f249303de20badbd62c0ea2401e3926641774bd437ba90fe9d53e',
    'decompose/so3_string/rank_a3': '6ffa4b51c8a5635ede31c3fbede8fc73ea0da4b61089a629e47087c9e5291af7',
    'decompose/tm_r1_lie1/rank_a0': '3ecb3c8597909c15e51626050e58b31ad2b20f011ba6ab9e842fb78f128d4de4',
    'decompose/tm_r1_lie1/rank_a1': '50d2781357de33173e790e956bc8294cfde3ee6f5d3f6175d63d431f36367b3f',
    'decompose/unit_matched_point.bicrossproduct/rank_a0': '96b56b4cb7fa100cae125b00d3d24659bfba817b9f3c01da13f29065cea5d14c',
    'decompose/unit_matched_point.bicrossproduct/rank_a1': '9bc8949105c0f620c1233dcf045fc3e57e17510c1f8afcd909436d7ec5d3f33b',
    'decompose/unit_matched_point.bicrossproduct/rank_a2': 'fa7a1993f229c3edebb18c50ef4bcfcbcdc9509d2f4cd23d99297f7e3cd01fb3',
    'dorfman-from-split/broken_r4_nonclosed': 'cff2d741f5fc7f1b7dcb06d00902860daadebed5b3925e51765782f76bba12bc',
    'dorfman-from-split/broken_so3_bad_jacobi': '3fe329a371889f2cf8501c06e5b94f43b6cf46f4eedc614f791b748e016ce24f',
    'dorfman-from-split/broken_so3_string_l1': 'c0f921c6b7f752f5a217f1337cf9d1a9b5c904275005c7a9e18e72db50382dee',
    'dorfman-from-split/so3_string': 'a116854db1c033e18258a425b63516e290f22982fb92da11707faf757708614d',
    'dorfman-from-split/tm_r1_lie1': 'fac2054373c4a23ea861ed014aea822e144d3359605a81f25de2f547d3c00b03',
    'dualize/broken_selfdual_nonsym.as_two_rep': '2ddf3930928db4e36859ed77f171971fe5b5e301a8bcc828587756b82a0bd033',
    'dualize/broken_selfdual_zero_r.as_two_rep': '80a87893596a5f370574b9fff8dca074bb34817b6cd547a242da1c1c2493394e',
    'dualize/broken_so3_pair_dq.selfdual.as_two_rep': '268148bb5ed841ceeea88885f1d68327744ea3e30f2d6233e2e630676f10245d',
    'dualize/euclidean_curved_r2.as_two_rep': '67423c7bd427eee99b6bd8a9355e9e82f920a62c8f47c415b984d57d2a76fbb3',
    'dualize/euclidean_selfdual_r1.as_two_rep': '2ccfb472ed123ebe0cf5c2e60d4118bb7de9699bf6b7f4e81c5aafa3d6188f6c',
    'dualize/so3_poisson_pair.selfdual.as_two_rep': '5562863c16f38750f217d2a3f12b585d03c0a6d465921c705e458ba6eb06bccc',
    'dualize/so3_selfdual.as_two_rep': 'f49b8002fdef66bd34dc5ae61356ed5d75678c8ed75a920b2838d7bd57e959a7',
    'dualize/so3_symplectic_pair.selfdual.as_two_rep': 'f49b8002fdef66bd34dc5ae61356ed5d75678c8ed75a920b2838d7bd57e959a7',
    'dualize/tangent_double_pair_r1.selfdual.as_two_rep': 'a5c5b767399090509fde14ae46847f79734e7844301ea0dd0c3293e9da7449f4',
    'dualize/tm_r1_identity_2rep': 'd8aa7c4336f7baf7245b6c7f9f5c43dc737faebf3ae16665757001105bbd0e62',
    'induced-la/broken_so3_pair_dq.dorfman/broken_so3_e12_dirac': '56adc68ea18dbd87c2c3e07af9c8ae9f30400e0d93222cdd4e926dee130e8460',
    'induced-la/broken_so3_pair_dq.dorfman/so3_e3_dirac': '56adc68ea18dbd87c2c3e07af9c8ae9f30400e0d93222cdd4e926dee130e8460',
    'induced-la/semidirect_flat/broken_so3_e12_dirac': 'f5b438e96dcf130ffebc5fa68cd3468478aa969d6498de4bf4421de237f956e7',
    'induced-la/semidirect_flat/so3_e3_dirac': 'f5b438e96dcf130ffebc5fa68cd3468478aa969d6498de4bf4421de237f956e7',
    'induced-la/so3_lie2/broken_so3_e12_dirac': '9079bb9256da79e723a091e4df3628e27c02fd7551586047bae83f32b2fc772c',
    'induced-la/so3_lie2/so3_e3_dirac': 'c20d225944732791c61eb9d1aa09a70032956ecc645cdb51c6a2c438b9354bd4',
    'induced-la/so3_poisson_pair.dorfman/broken_so3_e12_dirac': '9079bb9256da79e723a091e4df3628e27c02fd7551586047bae83f32b2fc772c',
    'induced-la/so3_poisson_pair.dorfman/so3_e3_dirac': 'c20d225944732791c61eb9d1aa09a70032956ecc645cdb51c6a2c438b9354bd4',
    'induced-la/so3_symplectic_pair.dorfman/broken_so3_e12_dirac': '56adc68ea18dbd87c2c3e07af9c8ae9f30400e0d93222cdd4e926dee130e8460',
    'induced-la/so3_symplectic_pair.dorfman/so3_e3_dirac': '56adc68ea18dbd87c2c3e07af9c8ae9f30400e0d93222cdd4e926dee130e8460',
    'induced-la/tangent_double_pair_r1.dorfman/U_Q': '86e9a094f54b6b30d398d8428f0e837f9cbc0b8c41603e11add0dc623f56f062',
    'induced-la/tangent_double_pair_r1.dorfman/U_e1': '2dc630e8eaf7c26181aa0d06d9fcfd42cc8a72878f858396837d6398bab46189',
    'induced-la/tangent_double_pair_r1.dorfman/broken_so3_e12_dirac': 'f5b438e96dcf130ffebc5fa68cd3468478aa969d6498de4bf4421de237f956e7',
    'induced-la/tangent_double_pair_r1.dorfman/so3_e3_dirac': 'f5b438e96dcf130ffebc5fa68cd3468478aa969d6498de4bf4421de237f956e7',
    'manin-pair/broken_so3_pair_dq/broken_so3_e12_dirac': '56adc68ea18dbd87c2c3e07af9c8ae9f30400e0d93222cdd4e926dee130e8460',
    'manin-pair/broken_so3_pair_dq/so3_e3_dirac': '56adc68ea18dbd87c2c3e07af9c8ae9f30400e0d93222cdd4e926dee130e8460',
    'manin-pair/so3_poisson_pair/broken_so3_e12_dirac': '9b24e53789eb7940e7dfd33d410e7d839e8a7f43e5d4e6c572d654b09792b290',
    'manin-pair/so3_poisson_pair/so3_e3_dirac': '3134735cb3aa5416ad4dc66649302a8b7dd7ea2b7f31698492f7a0f1c90eb184',
    'manin-pair/so3_symplectic_pair/broken_so3_e12_dirac': '56adc68ea18dbd87c2c3e07af9c8ae9f30400e0d93222cdd4e926dee130e8460',
    'manin-pair/so3_symplectic_pair/so3_e3_dirac': '56adc68ea18dbd87c2c3e07af9c8ae9f30400e0d93222cdd4e926dee130e8460',
    'manin-pair/tangent_double_pair_r1/U_Q': '720afa0515ee741e0430033f04dfe81fda12626ed8fa6a80a0a910c0446ea157',
    'manin-pair/tangent_double_pair_r1/U_e1': 'd8fff838ad5e08177ebea003342bb16e1ebe29f7ff9bd4b889d88a2700fc2cbf',
    'manin-pair/tangent_double_pair_r1/broken_so3_e12_dirac': 'f5b438e96dcf130ffebc5fa68cd3468478aa969d6498de4bf4421de237f956e7',
    'manin-pair/tangent_double_pair_r1/so3_e3_dirac': 'f5b438e96dcf130ffebc5fa68cd3468478aa969d6498de4bf4421de237f956e7',
    'selfdual-change-splitting/broken_selfdual_nonsym/sign-1': '73b3961dc4b5210b0ed082933613ad515d889b687f68f550bcd8c0ae4d33c94d',
    'selfdual-change-splitting/broken_selfdual_nonsym/sign1': '798ac1ffe53e8a7da91ce72714bea93222abb21d01283169ce1adfec0dc6eeef',
    'selfdual-change-splitting/broken_selfdual_zero_r/sign-1': 'b325bb2f173c3f101656e7d6d95407934738979875413aef828e8e1209c01398',
    'selfdual-change-splitting/broken_selfdual_zero_r/sign1': '9464aca4dfbc1ade1f868831ca1319e27b8267d0f09fbb9ae22fdd51ce501542',
    'selfdual-change-splitting/broken_so3_pair_dq.selfdual/sign-1': 'db1092e6e5aaccd279f2dd2d179ddf680c28a8911b83ecc4a5eab9839bc026f9',
    'selfdual-change-splitting/broken_so3_pair_dq.selfdual/sign1': '1b10465c3bcacd2588f239ece521387e6ca5838c2ee0e7f3b71291fd1de102cf',
    'selfdual-change-splitting/euclidean_curved_r2/sign-1': 'f0f6f49729d4977ca78ae47606acbce4e11ce1ebeda54b63c7ab86bc235d0009',
    'selfdual-change-splitting/euclidean_curved_r2/sign1': 'ff084c5478a1ee325cefd8d36740b9460acd1ed5baca24d4a82326160abc6baf',
    'selfdual-change-splitting/euclidean_selfdual_r1/sign-1': 'd210fb18e9e043c00c76e3c579cda20c68bbcc67e21fa055a2efec10e27aa94b',
    'selfdual-change-splitting/euclidean_selfdual_r1/sign1': 'b1b47fe956a1ac699e402ed19199dad8d25d672647afef949ff2c6a37628e245',
    'selfdual-change-splitting/so3_poisson_pair.selfdual/sign-1': '6a2972caa16ba335db3e17730d8e76f6745e437626ef96643850a41c966e0932',
    'selfdual-change-splitting/so3_poisson_pair.selfdual/sign1': '6a2972caa16ba335db3e17730d8e76f6745e437626ef96643850a41c966e0932',
    'selfdual-change-splitting/so3_selfdual/sign-1': '471ceba273ab7905825a6e4fbd44043848c750dfe2eb25189d5cd31c3e481e13',
    'selfdual-change-splitting/so3_selfdual/sign1': 'c1193a931c060556c40e40f0f1b1b1ec4237089542564efbb2f3f234321fba06',
    'selfdual-change-splitting/so3_symplectic_pair.selfdual/sign-1': '471ceba273ab7905825a6e4fbd44043848c750dfe2eb25189d5cd31c3e481e13',
    'selfdual-change-splitting/so3_symplectic_pair.selfdual/sign1': 'c1193a931c060556c40e40f0f1b1b1ec4237089542564efbb2f3f234321fba06',
    'selfdual-change-splitting/tangent_double_pair_r1.selfdual/sign-1': '55732c027793db436c0f1fa3fa29fd43f6f66aa324114994c6827eb020172be5',
    'selfdual-change-splitting/tangent_double_pair_r1.selfdual/sign1': '50b7c3f89633fc6b9fa0955aef63d6dbfc6fbfdae58d754f10f277f9b6e89937',
    'semidirect/broken_selfdual_nonsym.as_two_rep': '9785f9bd69a202ee2a1cfe7c46dd13d7f630a70fbb1deae984fd107605a1bf66',
    'semidirect/broken_selfdual_zero_r.as_two_rep': 'fd063f06c36625fd53fa0df963000b6aee80a2558324452baba6ade8d1ec17bb',
    'semidirect/broken_so3_pair_dq.selfdual.as_two_rep': '168fda122af0fd4150107a338d2538b8c866911d565a6d7c8a84db80889eb58d',
    'semidirect/euclidean_curved_r2.as_two_rep': 'b1485f4e10ab7eb36242bd0d608ea8660d114fcc40a171b3d299f7699a91f4cf',
    'semidirect/euclidean_selfdual_r1.as_two_rep': 'd44a40791ea496cacd15e54b0a825f6bf6fd62c18963a75fdb4f70a10e608a3a',
    'semidirect/so3_poisson_pair.selfdual.as_two_rep': 'dd4c1b3d70ea458ff25789179150154be17cc3da1ad390ee394858b93872248a',
    'semidirect/so3_selfdual.as_two_rep': '2c2094f72cfe4a32dffd642846483ee190fa6dcc693b8eee1469f019a9360952',
    'semidirect/so3_symplectic_pair.selfdual.as_two_rep': '2c2094f72cfe4a32dffd642846483ee190fa6dcc693b8eee1469f019a9360952',
    'semidirect/tangent_double_pair_r1.selfdual.as_two_rep': '0e1029212d5ed89b82611a55c26eebbc956c2523d9bcdce7b761a7f6b62cd1fe',
    'semidirect/tm_r1_identity_2rep': '9bed410d341c704d99792e9a101b2a79793e2e85b2b96d324c48080e09fa2715',
    'split-from-dorfman/broken_so3_pair_dq.dorfman': '903398b5c1d81a24f06aa735d73ac65bd2bee40b8702cd2d3a6a12496ec75548',
    'split-from-dorfman/semidirect_flat': 'f94fee4e358b04f0c27ecf7e74140f02df5b128014397cffb76ce3075804fdba',
    'split-from-dorfman/so3_lie2': '0df3887457de27c8a867de7e0ec783543ddbe281c6d8e5a48cb541c918add805',
    'split-from-dorfman/so3_poisson_pair.dorfman': '0df3887457de27c8a867de7e0ec783543ddbe281c6d8e5a48cb541c918add805',
    'split-from-dorfman/so3_symplectic_pair.dorfman': '903398b5c1d81a24f06aa735d73ac65bd2bee40b8702cd2d3a6a12496ec75548',
    'split-from-dorfman/tangent_double_pair_r1.dorfman': 'f94fee4e358b04f0c27ecf7e74140f02df5b128014397cffb76ce3075804fdba',
    'standard/tm_r2_algebroid': 'b61edd45b803aebc9aef66cd0d83259b4df2156183d58800078e75158f9a89e3',
    'tangent-double/broken_so3_bad_pairing/flat': '1dfdc0f1639e82319bc023df466258d5b05edd3ace8fe713122cc35061a20438',
    'tangent-double/so3_quadratic/flat': '8cac96fed2d1deeafd8d1139b0267a015e5131f82b49cce79aa1b236aaaa6b73',
    'tangent-double/standard_courant(2)/curved': '9c910fb4f933ae883232548b85509e249cc1d69c02a726a7b61ec2e12dc3b639',
    'tangent-double/standard_courant(2)/flat': '1c2e5c2374c9f7c6c1fadcd51c3f8fb1d336b164e1d3078e94a9c41f635dc68c',
    'tangent-double/standard_courant(3)/curved': 'b7e33dd2ea23f73255e4e93f33227d1ca98fc6027049b4d52477f60040865acc',
    'tangent-double/standard_courant(3)/flat': '316905546f5d608d7d57d5ef109eff0ab279dbd497682679901b4ba8c1a014f6',
    'tangent-double/standard_courant_r1/flat': '8d6929c3fc5040d114041fa4a72b27841f3445114dc5ce3eb1fd6f55db1370fb',
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
    return _report_sha(check_lie2_morphism(*splitting_morphism(sign),
                                           seed=seed))


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


def selfdual_bad_bracket():
    """euclidean_curved_r2 with 1 added to the (e1, e1) bracket's first
    component: the bracket is not skew, and dR_zero fails."""
    rep = euclidean_curved_r2()
    comps = rep.algebroid.bracket.comps
    comps[0][0][0] = comps[0][0][0] + Polynomial.const(2, 1)
    return rep


def curved_double_bad_bracket():
    """The curved tangent double with 1 added to the (b1, b1) bracket's
    first component: M5 fails."""
    pair = curved_tangent_double()
    comps = pair.selfdual.algebroid.bracket.comps
    comps[0][0][0] = comps[0][0][0] + Polynomial.const(2, 1)
    return pair


def matched_curved_ab():
    """Matched pair of ranks 2, 2 and 1 over R^1 with zero brackets,
    connections and partials, b1 anchored to d/dx and
    R_AB(a1, a2) b2 = x1 c1: only condition 7 fails."""
    z = Polynomial.zero(1)

    def algebroid(anchor):
        bundle = AnchoredBundle(1, 2, anchor)
        return LieAlgebroidData(bundle, DullBracket(
            bundle, [[[z] * 2 for _ in range(2)] for _ in range(2)]))

    def flat(alg, rank):
        return LinearConnection(alg.bundle, rank, [
            [[z] * rank for _ in range(rank)] for _ in range(2)])

    anchor_b = PolyMatrix(1, 1, 2)
    anchor_b[0, 0] = Polynomial.const(1, 1)
    alg_a, alg_b = algebroid(PolyMatrix(1, 1, 2)), algebroid(anchor_b)
    curv_ab = MatchedPair2Reps.curv_tensor(1, 2, 2, 1)
    curv_ab.set((0, 1, 1, 0), Polynomial.variable(1, 0))
    return MatchedPair2Reps(
        alg_a, alg_b, 1, PolyMatrix(1, 2, 1), PolyMatrix(1, 2, 1),
        flat(alg_a, 2), flat(alg_a, 1), flat(alg_b, 2), flat(alg_b, 1),
        curv_ab, MatchedPair2Reps.curv_tensor(1, 2, 2, 1))


def r4_morphism():
    """broken_r4_nonclosed to itself with identity mu_Q and mu_B and
    mu12 = x1 (q1 ^ q2) b1: only the curvature label fails, through
    d mu12."""
    split = broken_r4_nonclosed()
    mu12 = PolyTensor(1, [(4, 2, True), (1, 1, False)])
    mu12.set((0, 1, 0), Polynomial.variable(1, 0))
    return (split, split, PolyMatrix.identity(1, 4),
            PolyMatrix.identity(1, 1), mu12)


# name -> (report of a seed, the labels it fails)
KOSZUL_CHECKS = {
    "dR_zero": (lambda s: check_selfdual2rep(selfdual_bad_bracket(), seed=s),
                {"dR_zero", "curv_on_B", "curv_on_C", "algebroid:skew",
                 "algebroid:anchor_compat", "algebroid:jacobi"}),
    "M5": (lambda s: check_la_matched_pair(curved_double_bad_bracket(),
                                           seed=s),
           {"M2", "M3", "M5", "M5_expanded"}),
    "condition_7": (lambda s: check_matched_two_reps(matched_curved_ab(),
                                                     seed=s),
                    {"condition_7"}),
    "curvature": (lambda s: check_lie2_morphism(*r4_morphism(), seed=s),
                  {"curvature"}),
}


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
        for name, (check, _) in KOSZUL_CHECKS.items():
            cases[f"koszul/{name}/seed{seed}"] = \
                lambda tmp, c=check, s=seed: _report_sha(c(s))
    return cases


CASES = _cases()


def _built(build):
    """sha256 of the encoded structure ``build()`` returns, or of the
    precondition message it raises."""
    try:
        result = build()
    except ValueError as exc:
        return _sha(f"precondition failed: {exc}")
    return _sha(serialize.dumps(serialize.encode_structure(result)))


def _phi(p, rank_q, rank_b):
    """A change of splitting with every canonical entry nonzero: the t-th
    is t + 1, plus x1 when t is odd."""
    phi = Dorfman2Rep.phi_tensor(p, rank_q, rank_b)
    for t, key in enumerate(canonical_keys(phi)):
        value = Polynomial.const(p, t + 1)
        phi.set(key, value + Polynomial.variable(p, 0) if t % 2 else value)
    return phi


def _gammas(p, rank):
    """The flat TM-connection, and for a standard Courant algebroid
    (rank 2p, p >= 2) the metric one that acts on TM by x2 E_12 along x1
    and on T*M by minus the transpose, which is curved."""
    z = Polynomial.zero(p)
    flat = [[[z] * rank for _ in range(rank)] for _ in range(p)]
    if rank != 2 * p or p < 2:
        return {"flat": flat}
    x2 = Polynomial.variable(p, 1)
    curved = [[[z] * rank for _ in range(rank)] for _ in range(p)]
    curved[0][0][1], curved[0][p + 1][p] = x2, -x2
    return {"flat": flat, "curved": curved}


def _construction_cases():
    built = {}
    for name in EXAMPLES:
        obj, _ = build_example(name)
        built.setdefault(serialize.kind_of(obj), {})[name] = obj
    for p in (2, 3):
        built["courant"][f"standard_courant({p})"] = standard_courant(p)
    splits = dict(built["splitlie2"])
    dorfmans = dict(built["dorfman2rep"])
    selfduals = dict(built["selfdual2rep"])
    for name, pair in built["lapair"].items():
        dorfmans[f"{name}.dorfman"] = pair.dorfman
        selfduals[f"{name}.selfdual"] = pair.selfdual
    tworeps = dict(built["tworep"])
    for name, rep in selfduals.items():
        tworeps[f"{name}.as_two_rep"] = rep.as_two_rep()
    cases = {}
    for name, split in built["splitlie2"].items():
        cases[f"dorfman-from-split/{name}"] = \
            lambda s=split: dorfman_from_split(s)
    for name, rep in dorfmans.items():
        cases[f"split-from-dorfman/{name}"] = \
            lambda r=rep: split_from_dorfman(r)
        cases[f"change-splitting/{name}"] = lambda r=rep: change_splitting(
            r, _phi(r.bundle.base_dim, r.rank_q, r.rank_b))
    for name, rep in selfduals.items():
        for sign in (1, -1):
            cases[f"selfdual-change-splitting/{name}/sign{sign}"] = \
                lambda r=rep, g=sign: selfdual_change_splitting(
                    r, _phi(r.base_dim, r.rank_q, r.rank_b), g)
    for name, pair in built["matched2reps"].items():
        cases[f"bicrossproduct/{name}"] = lambda m=pair: bicrossproduct(m)
        splits[f"{name}.bicrossproduct"] = bicrossproduct(pair)
    for name, split in splits.items():
        for rank_a in range(split.rank_q + 1):
            cases[f"decompose/{name}/rank_a{rank_a}"] = \
                lambda s=split, a=rank_a: decompose_bicrossproduct(s, a)
    for name, rep in tworeps.items():
        cases[f"semidirect/{name}"] = lambda r=rep: semidirect_dorfman2rep(r)
        cases[f"dualize/{name}"] = lambda r=rep: dualize_two_rep(r)
    for name, alg in built["liealgebroid"].items():
        cases[f"standard/{name}"] = lambda a=alg: standard_dorfman2rep(
            a.bracket)
    for name, ca in built["courant"].items():
        for gname, gamma in _gammas(ca.base_dim, ca.rank).items():
            cases[f"adjoint/{name}/{gname}"] = \
                lambda c=ca, g=gamma: adjoint_dorfman2rep(c, g)
            cases[f"tangent-double/{name}/{gname}"] = \
                lambda c=ca, g=gamma: tangent_double_pair(c, g)
    for name, pair in built["lapair"].items():
        cases[f"core-courant/{name}"] = lambda a=pair: core_courant(a)
    dirac_pairs = [(pname, pair, dname, data)
                   for pname, pair in built["lapair"].items()
                   for dname, data in built["dirac"].items()]
    double = "tangent_double_pair_r1"
    dirac_pairs += [(double, built["lapair"][double], dname, data)
                    for dname, data in _double_diracs().items()]
    for pname, pair, dname, data in dirac_pairs:
        cases[f"manin-pair/{pname}/{dname}"] = \
            lambda a=pair, d=data: manin_pair(a, d)
    dirac_pairs = [(rname, rep, dname, data)
                   for rname, rep in dorfmans.items()
                   for dname, data in built["dirac"].items()]
    dirac_pairs += [(f"{double}.dorfman", built["lapair"][double].dorfman,
                     dname, data) for dname, data in _double_diracs().items()]
    for rname, rep, dname, data in dirac_pairs:
        cases[f"induced-la/{rname}/{dname}"] = \
            lambda r=rep, d=data: induced_lie_algebroid_on_U(r, d)
    return cases


def _double_diracs():
    """Dirac structures of the tangent double over R^1 (rank Q = 2, rank
    B = 1) with full support B' = B: U = Q and U = span(e1)."""
    one, zero = Polynomial.const(1, 1), Polynomial.zero(1)
    full_b = PolyMatrix.identity(1, 1)
    return {"U_Q": DiracData(PolyMatrix.identity(1, 2), full_b),
            "U_e1": DiracData(PolyMatrix(1, 2, 1, [[one], [zero]]), full_b)}


CONSTRUCTION_CASES = _construction_cases()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_hash_is_pinned(tmp_path, case):
    assert CASES[case](tmp_path) == GOLDEN[case]


def test_every_case_is_pinned():
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("name", sorted(KOSZUL_CHECKS))
@pytest.mark.parametrize("seed", SEEDS)
def test_koszul_pin_fails(name, seed):
    check, labels = KOSZUL_CHECKS[name]
    assert {e.label for e in check(seed).entries if not e.passed} == labels


@pytest.mark.parametrize("case", sorted(CONSTRUCTION_CASES))
def test_construction_hash_is_pinned(case):
    assert _built(CONSTRUCTION_CASES[case]) == CONSTRUCTIONS[case]


def test_every_construction_is_pinned():
    assert set(CONSTRUCTIONS) == set(CONSTRUCTION_CASES)


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            print(f"    {case!r}: {CASES[case](Path(tmp))!r},")
    print()
    for case in sorted(CONSTRUCTION_CASES):
        print(f"    {case!r}: {_built(CONSTRUCTION_CASES[case])!r},")
