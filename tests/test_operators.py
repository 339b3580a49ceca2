"""Differential test of the frame-stored operators, forms and derivations.

Every operator that is stored by its frame components and extended to
sections by the Leibniz rule goes through ``bundle.covariant_apply``,
and every curvature matrix through ``bundle.curvature_matrix``.  The
reference functions below are the earlier hand-written loops, one per
operator, kept here only as the oracle: on random polynomial data with
zero components and rank-0 modules, both must give equal polynomials in
every component.

``PolyMatrix.apply`` and ``matmul``, ``section_pair``, ``field_apply``,
``covariant_apply`` and ``anchor_pullback_d`` skip zero operands, and
``covariant_apply`` forms no coefficient product for an all-zero frame
row.  The references share none of them: anchors and vector fields act
through the dense loops ``ref_matrix_apply`` and ``ref_field_apply``,
which pass every entry to the kernel, and the frame components are drawn
sparse often enough that whole zero rows meet nonzero sections.

Module-valued k-forms and their Koszul differentials go through
``bundle.form_value`` and ``bundle.koszul``, and the graded Leibniz rule
through ``GradedDerivation.apply``.  Their references are the earlier
determinant evaluation, the earlier differential of a form with a
connection on its values, and the earlier apply that multiplies a
prefix, the image and a suffix for every generator factor.
"""

import pytest
from hypothesis import given, settings, strategies as st

from functools import partial
from lie2check.bundle import (
    AnchoredBundle, DorfmanConnection, DullBracket, LieAlgebroidData,
    LinearConnection, TwoRepData, connection_curvature, covariant_apply,
    field_apply, field_bracket, form_value, koszul, section_add,
    section_pair, section_sub, zero_section,
)
from lie2check.courant import (DegenerateCourant, check_courant_axioms,
                               standard_courant)
from lie2check.exactpoly import Polynomial, PolyMatrix, PolyTensor
from lie2check.lie2 import Dorfman2Rep, GradedDerivation, GradedFunction
from lie2check.poisson import SelfDual2Rep
from lie2check.report import CheckReport

from helpers import Draw, canonical_keys, graded_function


# ---------------------------------------------------------------------------
# reference loops


def ref_matrix_apply(mat, vec):
    out = []
    for i in range(mat.rows):
        acc = Polynomial.zero(mat.base_dim)
        for j in range(mat.cols):
            acc = acc + mat.data[i][j] * vec[j]
        out.append(acc)
    return out


def ref_field_apply(x, f):
    acc = Polynomial.zero(f.base_dim)
    for m, comp in enumerate(x):
        acc = acc + comp * f.diff(m)
    return acc


def ref_anchor_apply(anchor, q, f):
    return ref_field_apply(ref_matrix_apply(anchor, q), f)


def ref_anchor_pullback_d(anchor, f):
    """Component i: anchor column i applied to f."""
    return [ref_field_apply([anchor.data[m][i] for m in range(anchor.rows)],
                            f)
            for i in range(anchor.cols)]


def ref_matmul(a, b):
    """Rows of a times b: ``ref_matrix_apply`` of a on each column of b."""
    cols = [ref_matrix_apply(a, [row[k] for row in b.data])
            for k in range(b.cols)]
    return [[col[i] for col in cols] for i in range(a.rows)]


def ref_connection_apply(conn, q, s):
    p = conn.bundle.base_dim
    out = zero_section(p, conn.module_rank)
    for j in range(conn.module_rank):
        out[j] = out[j] + ref_anchor_apply(conn.bundle.anchor, q, s[j])
    for i in range(conn.bundle.rank):
        if q[i].is_zero():
            continue
        for j in range(conn.module_rank):
            if s[j].is_zero():
                continue
            coeff = q[i] * s[j]
            for k in range(conn.module_rank):
                out[k] = out[k] + coeff * conn.gamma[i][j][k]
    return out


def ref_dorfman_apply(delta, q, tau):
    p = delta.bundle.base_dim
    r = delta.bundle.rank
    out = zero_section(p, r)
    anchor = delta.bundle.anchor
    for j in range(r):
        out[j] = out[j] + ref_anchor_apply(anchor, q, tau[j])
    for i in range(r):
        if q[i].is_zero():
            continue
        for j in range(r):
            if tau[j].is_zero():
                continue
            coeff = q[i] * tau[j]
            for k in range(r):
                out[k] = out[k] + coeff * delta.comps[i][j][k]
    for j in range(r):
        if tau[j].is_zero():
            continue
        pull = [ref_anchor_apply(anchor, _unit(p, r, i), q[j])
                for i in range(r)]
        for k in range(r):
            out[k] = out[k] + tau[j] * pull[k]
    return out


def ref_dull_apply(bracket, q1, q2):
    p = bracket.bundle.base_dim
    r = bracket.bundle.rank
    out = zero_section(p, r)
    for i in range(r):
        if q1[i].is_zero():
            continue
        for j in range(r):
            if q2[j].is_zero():
                continue
            coeff = q1[i] * q2[j]
            for k in range(r):
                out[k] = out[k] + coeff * bracket.comps[i][j][k]
    anchor = bracket.bundle.anchor
    for j in range(r):
        out[j] = out[j] + ref_anchor_apply(anchor, q1, q2[j]) \
            - ref_anchor_apply(anchor, q2, q1[j])
    return out


def ref_nabla_vec(ca, gamma, x, e):
    p, n = ca.base_dim, ca.rank
    out = zero_section(p, n)
    for j in range(n):
        out[j] = out[j] + ref_field_apply(x, e[j])
    for m in range(p):
        if x[m].is_zero():
            continue
        for i in range(n):
            if e[i].is_zero():
                continue
            coeff = x[m] * e[i]
            for j in range(n):
                out[j] = out[j] + coeff * gamma[m][i][j]
    return out


def ref_curv_nabla(ca, gamma, x, y, e):
    def nabla(v, sec):
        return ref_nabla_vec(ca, gamma, v, sec)

    out = section_sub(nabla(x, nabla(y, e)), nabla(y, nabla(x, e)))
    return section_sub(out, nabla(field_bracket(x, y), e))


def _unit(p, n, i):
    out = zero_section(p, n)
    out[i] = Polynomial.const(p, 1)
    return out


def ref_dee(ca, f):
    out = zero_section(ca.base_dim, ca.rank)
    for k in range(ca.rank):
        for m in range(ca.base_dim):
            out[k] = out[k] + ca.dmat[k, m] * f.diff(m)
    return out


def ref_courant_bracket(ca, e1, e2):
    p, n = ca.base_dim, ca.rank

    def frame_bracket_with(i, sec):
        out = zero_section(p, n)
        for j in range(n):
            if not sec[j].is_zero():
                for k in range(n):
                    out[k] = out[k] + sec[j] * ca.bracket_comps[i][j][k]
            out[j] = out[j] + ref_anchor_apply(ca.rho, _unit(p, n, i),
                                               sec[j])
        return out

    out = zero_section(p, n)
    for i in range(n):
        if e1[i].is_zero():
            continue
        out = [a + e1[i] * b for a, b in zip(out, frame_bracket_with(i, e2))]
        out = [a - ref_anchor_apply(ca.rho, e2, e1[i]) * b
               for a, b in zip(out, _unit(p, n, i))]
        out = [a + ca.pair(_unit(p, n, i), e2) * b
               for a, b in zip(out, ref_dee(ca, e1[i]))]
    return out


def ref_curv_matrix(curv, ra, rank_in, rank_out, u1, u2, base_dim):
    """The TwoRepData / Dorfman2Rep / SelfDual2Rep loop."""
    out = PolyMatrix(base_dim, rank_out, rank_in)
    for i in range(ra):
        for j in range(i + 1, ra):
            coeff = u1[i] * u2[j] - u1[j] * u2[i]
            if coeff.is_zero():
                continue
            for r in range(rank_in):
                for m in range(rank_out):
                    entry = curv.get(i, j, r, m)
                    if not entry.is_zero():
                        out.data[m][r] = out.data[m][r] + coeff * entry
    return out


def ref_dual(comps, rows, r):
    return [[[-comps[i][k][j] for k in range(r)] for j in range(r)]
            for i in range(rows)]


def ref_form_value(tensor, value_rank, args):
    """The earlier alternating-form evaluation: for each stored key, the
    determinant of the args' components at its frame indices."""
    p = tensor.base_dim
    out = zero_section(p, value_rank)
    coeffs = {}
    for idx, val in tensor.entries.items():
        key, m = idx[:-1], idx[-1]
        if key not in coeffs:
            n = len(key)
            coeffs[key] = PolyMatrix(p, n, n, [[args[a][key[b]]
                                                for b in range(n)]
                                               for a in range(n)]
                                     ).determinant()
        if coeffs[key].terms:
            out[m] = out[m] + coeffs[key] * val
    return out


def ref_form_differential(tensor, value_rank, conn, bracket, args):
    """The earlier Koszul differential of a form with a connection on its
    values, with 1-based signs."""
    p = tensor.base_dim
    k = len(args)
    out = zero_section(p, value_rank)
    for i in range(k):
        rest = args[:i] + args[i + 1:]
        term = conn(args[i], ref_form_value(tensor, value_rank, rest))
        out = section_add(out, term) if i % 2 == 0 else section_sub(out, term)
    for i in range(k):
        for j in range(i + 1, k):
            rest = [bracket(args[i], args[j])] + \
                [args[m] for m in range(k) if m not in (i, j)]
            term = ref_form_value(tensor, value_rank, rest)
            # 1-based sign (-1)^{(i+1)+(j+1)} = (-1)^{i+j}
            out = section_add(out, term) if (i + j) % 2 == 0 else \
                section_sub(out, term)
    return out


def ref_graded_apply(der, gf):
    """The earlier graded Leibniz rule: for every generator factor of
    every term, prefix * image * suffix, times D's Koszul sign through
    the earlier taus."""
    shape = (der.base_dim, der.rank_q, der.rank_b)
    one = Polynomial.const(der.base_dim, 1)
    out = GradedFunction.zero(*shape)
    odd = der.degree % 2 == 1
    for (taus, bs), poly in gf.terms.items():
        monomial = GradedFunction(*shape, {(taus, bs): one})
        for i in range(der.base_dim):
            dpoly = poly.diff(i)
            if dpoly.is_zero() or der.x_img[i].is_zero():
                continue
            out = out + (der.x_img[i] * monomial) * dpoly
        factors = [("tau", i) for i in taus] + [("b", i) for i in bs]
        for pos, (kind, idx) in enumerate(factors):
            img = der.tau_img[idx] if kind == "tau" else der.b_img[idx]
            if img.is_zero():
                continue
            prefix_odd = sum(1 for k, _ in factors[:pos] if k == "tau")
            sign = -1 if (odd and prefix_odd % 2 == 1) else 1

            def part(fs):
                return GradedFunction(*shape, {
                    (tuple(i for k, i in fs if k == "tau"),
                     tuple(i for k, i in fs if k == "b")): one})

            term = (part(factors[:pos]) * img * part(factors[pos + 1:])) \
                * poly
            out = out + term.scale(sign)
    return out


# ---------------------------------------------------------------------------
# random data


ranks = st.integers(min_value=0, max_value=3)


def _setup(data):
    """Base dimension, two ranks, a drawer and an anchored bundle."""
    p = data.draw(st.integers(min_value=1, max_value=2))
    rq, r = data.draw(ranks), data.draw(ranks)
    d = Draw(data.draw, p)
    return p, rq, r, d, AnchoredBundle(p, rq, d.matrix(p, rq))


def _comps_drawer(data, p):
    """A drawer for frame components: one zero in three, or two."""
    return Draw(data.draw, p, zeros=data.draw(st.integers(1, 2)))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_connections_and_brackets_match_reference(data):
    p, rq, r, d, bundle = _setup(data)
    dc = _comps_drawer(data, p)
    conn = LinearConnection(bundle, r, dc.comps(rq, r, r))
    delta = DorfmanConnection(bundle, dc.comps(rq, rq, rq))
    bracket = DullBracket(bundle, dc.comps(rq, rq, rq))
    q1, q2 = d.section(rq), d.section(rq)
    s = d.section(r)

    assert conn.apply(q1, s) == ref_connection_apply(conn, q1, s)
    assert delta.apply(q1, q2) == ref_dorfman_apply(delta, q1, q2)
    assert bracket.apply(q1, q2) == ref_dull_apply(bracket, q1, q2)
    assert conn.dual().gamma == ref_dual(conn.gamma, rq, r)
    assert delta.dual_dull_bracket().comps == ref_dual(delta.comps, rq, rq)
    assert DorfmanConnection.from_dull_bracket(bracket).comps == \
        ref_dual(bracket.comps, rq, rq)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_courant_bracket_and_tm_connection_match_reference(data):
    p, n, _, d, _ = _setup(data)
    dc = _comps_drawer(data, p)
    ca = DegenerateCourant(p, n, d.matrix(p, n), dc.matrix(n, n),
                           dc.comps(n, n, n), dc.matrix(n, p))
    gamma = dc.comps(p, n, n)
    e1, e2 = d.section(n), d.section(n)
    x, y = d.section(p), d.section(p)
    f = d.poly()

    assert ca.dee(f) == ref_dee(ca, f)
    assert ca.bracket(ca.dee, e1, e2) == ref_courant_bracket(ca, e1, e2)
    # the TM-connection of ``adjoint_dorfman2rep`` and ``tangent_double_pair``
    tm = AnchoredBundle(p, p, PolyMatrix.identity(p, p))
    nabla = LinearConnection(tm, n, gamma).apply
    assert nabla(x, e1) == ref_nabla_vec(ca, gamma, x, e1)
    assert connection_curvature(nabla, field_bracket, x, y, e2) == \
        ref_curv_nabla(ca, gamma, x, y, e2)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_curvature_matrices_match_reference(data):
    p, ra, rb, d, bundle = _setup(data)
    rc = data.draw(ranks)
    alg = LieAlgebroidData(bundle, DullBracket(bundle, d.comps(ra, ra, ra)))
    u1, u2 = d.section(ra), d.section(ra)

    two = TwoRepData(alg, rb, rc, d.matrix(rb, rc),
                     LinearConnection(bundle, rb, d.comps(ra, rb, rb)),
                     LinearConnection(bundle, rc, d.comps(ra, rc, rc)),
                     d.two_form(ra, rb, rc))
    assert two.curv_matrix(u1, u2) == \
        ref_curv_matrix(two.curv, ra, rb, rc, u1, u2, p)

    dorf = Dorfman2Rep(bundle, rb, d.matrix(rb, ra),
                       DorfmanConnection(bundle, d.comps(ra, ra, ra)),
                       LinearConnection(bundle, rb, d.comps(ra, rb, rb)),
                       d.two_form(ra, rb, ra))
    assert dorf.curv_matrix(u1, u2) == \
        ref_curv_matrix(dorf.curv, ra, rb, ra, u1, u2, p)

    selfdual = SelfDual2Rep(alg, rc, d.matrix(rc, rc),
                            LinearConnection(bundle, rc, d.comps(ra, rc, rc)),
                            d.two_form(ra, rc, rc))
    assert selfdual.curv_matrix(u1, u2) == \
        ref_curv_matrix(selfdual.curvB, ra, rc, rc, u1, u2, p)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_zero_skipping_loops_match_dense_reference(data):
    p = data.draw(st.integers(min_value=1, max_value=3))
    rows, cols = data.draw(ranks), data.draw(ranks)
    d = Draw(data.draw, p, zeros=2)
    mat, vec = d.matrix(rows, cols), d.section(cols)
    assert mat.apply(vec) == ref_matrix_apply(mat, vec)
    other = d.matrix(cols, data.draw(ranks))
    assert mat.matmul(other).data == ref_matmul(mat, other)
    x, f = d.section(data.draw(st.integers(0, p))), d.poly()
    assert field_apply(x, f) == ref_field_apply(x, f)
    if cols:
        dual = d.section(cols)
        assert section_pair(vec, dual) == \
            ref_matrix_apply(PolyMatrix(p, 1, cols, [vec]), dual)[0]
    bundle = AnchoredBundle(p, cols, d.matrix(p, cols))
    assert bundle.anchor_pullback_d(f) == \
        ref_anchor_pullback_d(bundle.anchor, f)


def _form(d, rank, arity, n):
    """A random n-valued arity-form on a rank-``rank`` bundle."""
    tensor = PolyTensor(d.p, [(rank, arity, True), (n, 1, False)])
    for key in canonical_keys(tensor):
        tensor.set(key, d.poly())
    return tensor


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_forms_and_koszul_differentials_match_reference(data):
    p = data.draw(st.integers(min_value=1, max_value=2))
    rq = data.draw(st.integers(min_value=0, max_value=4))
    n, arity = data.draw(ranks), data.draw(st.integers(1, 3))
    d, dc = Draw(data.draw, p), _comps_drawer(data, p)
    bundle = AnchoredBundle(p, rq, d.matrix(p, rq))
    tensor = _form(d, rq, arity, n)
    args = [d.section(rq) for _ in range(arity + 1)]
    assert form_value(tensor, args[:arity]) == \
        ref_form_value(tensor, n, args[:arity])

    conn = LinearConnection(bundle, n, dc.comps(rq, n, n)).apply
    bracket = DullBracket(bundle, dc.comps(rq, rq, rq)).apply
    assert koszul(partial(form_value, tensor),
                  lambda a, rest: conn(a, form_value(tensor, rest)),
                  bracket, args) == \
        ref_form_differential(tensor, n, conn, bracket, args)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_graded_apply_matches_prefix_suffix_reference(data):
    """A derivation of degree 0, 1 or 2, its generator images of the
    matching parity, on a random graded function.  At least two taus, so
    that a tau factor can stand after another one."""
    p = data.draw(st.integers(min_value=1, max_value=2))
    rq, rb = data.draw(st.integers(2, 3)), data.draw(st.integers(0, 2))
    degree = data.draw(st.integers(0, 2))
    d = Draw(data.draw, p)
    der = GradedDerivation(
        p, rq, rb, degree,
        [graded_function(d, rq, rb, degree % 2, 1) for _ in range(p)],
        [graded_function(d, rq, rb, (degree + 1) % 2, 1) for _ in range(rq)],
        [graded_function(d, rq, rb, degree % 2, 1) for _ in range(rb)])
    gf = graded_function(d, rq, rb, min_size=1, taus_first=True)
    assert der.apply(gf) == ref_graded_apply(der, gf)


# ---------------------------------------------------------------------------
# dimension checks on skipped operands
#
# Each case has one operand over R^1 among operands over R^2.  The odd
# operand, or the one it meets, is zero, so the zero-skipping loops never
# pass it to the kernel; a dense loop would, and the kernel would raise.


def _zero(p):
    return Polynomial.zero(p)


_x = Polynomial.variable(2, 0)
_field = [_x, _x]


def _anchored(rows):
    """A bundle over R^2 whose anchor has the given rows."""
    return AnchoredBundle(2, len(rows[0]),
                          PolyMatrix(2, 2, len(rows[0]), rows))


def _courant_r1(dmat_row):
    z = _zero(2)
    return DegenerateCourant(2, 1, PolyMatrix(2, 2, 1),
                             PolyMatrix(2, 1, 1), [[[z]]],
                             PolyMatrix(2, 1, 2, [dmat_row]))


DIMENSION_MISMATCHES = {
    "add": lambda: _x + _zero(1),
    "add_to_zero": lambda: _zero(1) + _x,
    "mul": lambda: _x * _zero(1),
    "mul_of_zero": lambda: _zero(1) * _x,
    "matrix_entry": lambda: PolyMatrix(2, 1, 2, [[_x, _zero(1)]]).apply(
        [_x, _x]),
    "matrix_vector": lambda: PolyMatrix(2, 1, 2, [[_x, _zero(2)]]).apply(
        [_x, _zero(1)]),
    "field_component": lambda: field_apply([_x, _zero(1)], _x),
    "field_component_zero_f": lambda: field_apply([_x, _zero(1)], _zero(2)),
    "covariant_comps": lambda: covariant_apply(
        _field, [[[_zero(1), _x]]], [_x], [_x, _x]),
    "covariant_section": lambda: covariant_apply(
        [], [[[_zero(2), _zero(2)], [_zero(2), _zero(2)]]],
        [_x], [_x, _zero(1)]),
    "covariant_zero_row": lambda: covariant_apply(
        [], [[[_zero(2)]]], [Polynomial.variable(1, 0)], [_x]),
    # an empty row: only the explicit u_i, v_j comparison can see it
    "covariant_empty_row": lambda: covariant_apply(
        [], [[[]]], [Polynomial.variable(1, 0)], [_x]),
    "covariant_zero_row_entry": lambda: covariant_apply(
        [], [[[_zero(2), _zero(1)], [_zero(2), _zero(2)]]],
        [_x], [_x, _zero(2)]),
    "dorfman_zero_pullback": lambda: DorfmanConnection(
        AnchoredBundle(0, 1, PolyMatrix(0, 0, 1)),
        [[[_zero(0)]]]).apply([_zero(0)], [_x]),
    "dee_entry": lambda: _courant_r1([_x, _zero(1)]).dee(_x),
    "dee_function": lambda: _courant_r1([_x, _x]).dee(_zero(1)),
    "dee_function_zero_entries": lambda: _courant_r1(
        [_zero(2), _zero(2)]).dee(Polynomial.variable(3, 2)),
    "pullback_entry": lambda: _anchored([[_x], [_zero(1)]]).anchor_pullback_d(
        _x),
    "pullback_function": lambda: _anchored([[_x], [_x]]).anchor_pullback_d(
        Polynomial.variable(1, 0)),
    "pullback_zero_function": lambda: _anchored(
        [[_x], [_x]]).anchor_pullback_d(_zero(1)),
    "pullback_function_rank_0": lambda: _anchored(
        [[], []]).anchor_pullback_d(_zero(1)),
    "matmul_left_entry": lambda: PolyMatrix(2, 1, 2, [[_x, _zero(1)]]).matmul(
        PolyMatrix(2, 2, 1, [[_x], [_x]])),
    "matmul_right_entry": lambda: PolyMatrix(2, 1, 2, [[_x, _zero(2)]]).matmul(
        PolyMatrix(2, 2, 1, [[_x], [_zero(1)]])),
    "pair_left": lambda: section_pair([_x, _zero(1)], [_x, _x]),
    "pair_right": lambda: section_pair([_x, _zero(2)], [_x, _zero(1)]),
}


@pytest.mark.parametrize("case", sorted(DIMENSION_MISMATCHES))
def test_dimension_mismatch_on_a_skipped_zero_still_raises(case):
    with pytest.raises(ValueError, match="base dimension mismatch"):
        DIMENSION_MISMATCHES[case]()


def test_field_longer_than_base_dim_is_index_error():
    for f in (_x, _zero(2)):
        with pytest.raises(IndexError):
            field_apply([_zero(2)] * 3, f)
        with pytest.raises(IndexError):
            ref_field_apply([_zero(2)] * 3, f)


# ---------------------------------------------------------------------------
# products the operators no longer form


def test_an_all_zero_frame_row_forms_no_product(monkeypatch):
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    one = Polynomial.const(2, 1)
    u, v = [x + y, _zero(2)], [x * y + one, y - one - one]
    field = [x + one, y]
    comps = [[[_zero(2)] * 2] * 2] * 2
    calls = []
    real_mul = Polynomial.__mul__

    def counting_mul(a, b):
        calls.append((a, b))
        return real_mul(a, b)

    monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
    want = [field_apply(field, c) for c in v]
    field_products = len(calls)
    assert field_products > 0
    assert covariant_apply(field, comps, u, v) == want
    assert len(calls) == 2 * field_products


def test_the_courant_check_takes_each_dee_once(monkeypatch):
    args = []
    real_dee = DegenerateCourant.dee

    def recording_dee(self, f):
        args.append(f)
        return real_dee(self, f)

    monkeypatch.setattr(DegenerateCourant, "dee", recording_dee)
    # evaluate the sampled tuples too, which a passing check settles
    monkeypatch.setattr(CheckReport, "proves", lambda self, *_: False)
    assert check_courant_axioms(standard_courant(2)).passed
    assert len(args) > standard_courant(2).rank
    assert len(args) == len(set(args))
