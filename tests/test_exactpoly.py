"""Exact polynomial arithmetic: ring axioms, calculus, linear algebra,
serialization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lie2check.exactpoly import (
    EXP_BOUND, FIELD_BITS, Polynomial, PolyMatrix, PolyTensor, _pack, _unpack,
    rank, rational,
)

from helpers import canonical_keys

BASE = 2

coeffs = st.builds(Fraction,
                   st.integers(min_value=-6, max_value=6),
                   st.integers(min_value=1, max_value=4))
exponents = st.tuples(st.integers(min_value=0, max_value=3),
                      st.integers(min_value=0, max_value=3))
polynomials = st.dictionaries(exponents, coeffs, max_size=4).map(
    lambda terms: Polynomial(BASE, terms))


@given(polynomials, polynomials, polynomials)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(f, g, h):
    assert (f + g) == (g + f)
    assert (f * g) == (g * f)
    assert ((f + g) + h) == (f + (g + h))
    assert ((f * g) * h) == (f * (g * h))
    assert (f * (g + h)) == (f * g + f * h)
    zero = Polynomial.zero(BASE)
    one = Polynomial.const(BASE, 1)
    assert (f + zero) == f
    assert (f * one) == f
    assert (f - f).is_zero()
    assert (f * zero).is_zero()


@given(polynomials, polynomials)
@settings(max_examples=60, deadline=None)
def test_derivative_is_a_derivation(f, g):
    for k in range(BASE):
        lhs = (f * g).diff(k)
        rhs = f.diff(k) * g + f * g.diff(k)
        assert lhs == rhs


@given(polynomials)
@settings(max_examples=60, deadline=None)
def test_mixed_partials_commute(f):
    assert f.diff(0).diff(1) == f.diff(1).diff(0)


@given(polynomials)
@settings(max_examples=60, deadline=None)
def test_json_round_trip(f):
    assert Polynomial.from_json(BASE, f.to_json()) == f


def test_polynomial_evaluation_oracle():
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    f = x * x + Polynomial.const(2, 3) * y
    assert f.diff(0) == Polynomial.const(2, 2) * x
    assert f.diff(1) == Polynomial.const(2, 3)
    assert f.degree() == 2
    assert f.render(["x", "y"]) == "3*y + x^2"


def test_rational_parsing():
    assert rational("3/4") == Fraction(3, 4)
    assert rational("-2") == Fraction(-2)
    # stored coefficients are written as "a/b", or as "a" when integral
    for value, text in ((Fraction(7, 2), "7/2"), (Fraction(5), "5")):
        assert Polynomial.const(1, value).to_json()[0]["coeff"] == text
    with pytest.raises(ValueError):
        rational("1/0")
    with pytest.raises(TypeError):
        rational(True)


def _parsed(parse, text):
    """("ok", value) or ("error",) for parse(text)."""
    try:
        return "ok", parse(text)
    except (ValueError, ZeroDivisionError):
        return ("error",)


# Strings near the integer fast path of ``rational``: underscores,
# spaces, signs, non-ASCII digits, exponents, zeros, a zero denominator
# and more digits than ``int`` reads by default.
NEAR_INTEGERS = ["1_0", " 1 ", "+1", "١", "1e3", "-0", "00", "1/0",
                 "", "-", "--1", "-+1", "²", "0010", "-00", "7",
                 "-12", "1 0", "1.0", "1" * 5000, "-" + "9" * 5000]


def test_integer_fast_path_agrees_with_fraction_near_integers():
    # the fast path and Fraction(str) accept and reject the same strings
    # and give equal values, on the running interpreter
    for text in NEAR_INTEGERS:
        assert _parsed(rational, text) == _parsed(Fraction, text), text


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.from_regex(r"\A-?[0-9]{1,30}\Z"),
                 st.text(alphabet="-+0123456789_ ./e١²", max_size=8)))
def test_integer_fast_path_agrees_with_fraction(text):
    assert _parsed(rational, text) == _parsed(Fraction, text)


@pytest.mark.parametrize("other", [1.5, "x", None, [1]])
def test_product_with_a_non_rational_is_type_error(other):
    f = Polynomial.const(1, 1)
    with pytest.raises(TypeError):
        f * other
    with pytest.raises(TypeError):
        other * f


class _Operand:
    """A non-polynomial operand that handles sums itself and must not be
    negated first."""

    def __neg__(self):
        raise AssertionError("negated before the type test")

    def __radd__(self, other):
        return "radd"

    def __rsub__(self, other):
        return "rsub"


@pytest.mark.parametrize("other", [1, 1.5, Fraction(1, 2), "x", None, [1]])
def test_sum_with_a_non_polynomial_is_type_error(other):
    f = Polynomial.const(1, 1)
    for op in (lambda: f + other, lambda: f - other,
               lambda: other + f, lambda: other - f):
        with pytest.raises(TypeError):
            op()


def test_sum_defers_to_the_other_operand():
    f = Polynomial.const(1, 1)
    assert f + _Operand() == "radd"
    assert f - _Operand() == "rsub"


def test_equality_with_bool_is_false_not_an_error():
    f = Polynomial.const(1, 1)
    assert (f == True) is False  # noqa: E712
    assert (f != True) is True  # noqa: E712
    assert f == 1 and Polynomial.zero(1) == 0


def test_from_json_rejects_bad_terms():
    with pytest.raises(ValueError):
        Polynomial.from_json(1, [{"coeff": "1"}])
    with pytest.raises(ValueError):
        Polynomial.from_json(
            1, [{"coeff": "1", "exps": [1]}, {"coeff": "2", "exps": [1]}])
    for exps in ([-1], [1.5], ["1"], [True]):
        with pytest.raises(ValueError):
            Polynomial.from_json(1, [{"coeff": "1", "exps": exps}])
    for data in ({}, "", None):
        with pytest.raises(ValueError):
            Polynomial.from_json(1, data)
    for exps in ({}, ""):   # as empty as the exponents over R^0, not lists
        with pytest.raises(ValueError):
            Polynomial.from_json(0, [{"coeff": "1", "exps": exps}])


def _constant_matrix(rows):
    """PolyMatrix over R^1 with the given integer constants."""
    return PolyMatrix(1, len(rows), len(rows[0]),
                      [[Polynomial.const(1, v) for v in row] for row in rows])


def test_matrix_inverse_oracle():
    m = _constant_matrix([[2, 1], [1, 1]])
    inv = m.inverse_constant()
    assert m.matmul(inv) == PolyMatrix.identity(1, 2)
    assert inv.matmul(m) == PolyMatrix.identity(1, 2)
    assert inv == _constant_matrix([[1, -1], [-1, 2]])


def test_matrix_determinant_oracle():
    m = _constant_matrix([[1, 2, 3], [0, 1, 4], [5, 6, 0]])
    assert m.determinant() == Polynomial.const(1, 1)


def test_singular_matrix_rejected():
    m = _constant_matrix([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        m.inverse_constant()


# -- differential tests of the linear-algebra layer -----------------------
# The reference is recursive cofactor expansion along the first row:
# factorial time, but obviously the determinant.

def _cofactor_det(m):
    n = m.rows
    if n == 0:
        return Polynomial.const(m.base_dim, 1)
    acc = Polynomial.zero(m.base_dim)
    for j in range(n):
        minor = PolyMatrix(m.base_dim, n - 1, n - 1,
                           [[m[i, k] for k in range(n) if k != j]
                            for i in range(1, n)])
        term = m[0, j] * _cofactor_det(minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def _cofactor_inverse(m, det):
    """adj(m) / det, each adjugate entry a cofactor expansion."""
    n = m.rows
    out = PolyMatrix(m.base_dim, n, n)
    for i in range(n):
        for j in range(n):
            minor = PolyMatrix(m.base_dim, n - 1, n - 1,
                               [[m[r, c] for c in range(n) if c != i]
                                for r in range(n) if r != j])
            cof = _cofactor_det(minor)
            out[i, j] = (cof if (i + j) % 2 == 0 else -cof).scale(
                Fraction(1) / det)
    return out


small_polynomials = st.one_of(
    st.just(Polynomial.zero(BASE)),
    st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                    st.integers(-2, 2), max_size=2).map(
        lambda terms: Polynomial(BASE, terms)))


@st.composite
def square_matrices(draw, max_n=6):
    """Sparse polynomial matrices, sometimes with a zero row or column."""
    n = draw(st.integers(0, max_n))
    m = PolyMatrix(BASE, n, n,
                   [[draw(small_polynomials) if draw(st.integers(0, 2)) else
                     Polynomial.zero(BASE) for _ in range(n)]
                    for _ in range(n)])
    if n and draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        for t in range(n):
            if draw(st.booleans()):
                m[k, t] = Polynomial.zero(BASE)
            else:
                m[t, k] = Polynomial.zero(BASE)
    return m


@given(square_matrices())
@settings(max_examples=60, deadline=None)
def test_determinant_and_inverse_match_cofactor_expansion(m):
    det = _cofactor_det(m)
    assert m.determinant() == det
    if det.is_constant() and det.constant_value() != 0:
        inv = m.inverse_constant()
        assert inv == _cofactor_inverse(m, det.constant_value())
        assert m.matmul(inv) == PolyMatrix.identity(BASE, m.rows)
    else:
        with pytest.raises(ValueError,
                           match="not invertible over the polynomial ring"):
            m.inverse_constant()


@st.composite
def unimodular_products(draw, max_n=6):
    """L U with L unit lower triangular and non-constant below the
    diagonal, U upper triangular with a nonzero constant diagonal: the
    determinant is constant, the entries are not."""
    n = draw(st.integers(1, max_n))
    lower = PolyMatrix.identity(BASE, n)
    upper = PolyMatrix(BASE, n, n)
    for i in range(n):
        upper[i, i] = Polynomial.const(BASE, draw(st.sampled_from(
            [1, -1, 2, Fraction(1, 3)])))
        for j in range(i):
            lower[i, j] = draw(small_polynomials)
        for j in range(i + 1, n):
            upper[i, j] = draw(small_polynomials)
    if n > 1:
        lower[n - 1, 0] = lower[n - 1, 0] + Polynomial.variable(BASE, 0)
    return lower.matmul(upper)


@given(unimodular_products())
@settings(max_examples=30, deadline=None)
def test_inverse_of_unimodular_products(m):
    det = m.determinant()
    assert det.is_constant() and det == _cofactor_det(m)
    inv = m.inverse_constant()
    assert inv == _cofactor_inverse(m, det.constant_value())
    assert m.matmul(inv) == PolyMatrix.identity(BASE, m.rows)
    assert inv.matmul(m) == PolyMatrix.identity(BASE, m.rows)


def test_empty_and_one_by_one_matrices():
    empty = PolyMatrix(BASE, 0, 0)
    assert empty.determinant() == Polynomial.const(BASE, 1)
    assert empty.inverse_constant() == empty
    x = Polynomial.variable(BASE, 1)
    assert PolyMatrix(BASE, 1, 1, [[x]]).determinant() == x
    half = PolyMatrix(BASE, 1, 1, [[Polynomial.const(BASE, 2)]])
    assert half.inverse_constant()[0, 0] == Polynomial.const(
        BASE, Fraction(1, 2))


def test_linear_algebra_errors_keep_their_messages():
    with pytest.raises(ValueError, match="determinant of a non-square matrix"):
        PolyMatrix(BASE, 2, 3).determinant()
    with pytest.raises(ValueError, match="determinant of a non-square matrix"):
        PolyMatrix(BASE, 2, 3).inverse_constant()
    x = Polynomial.variable(BASE, 0)
    one = Polynomial.const(BASE, 1)
    for rows in ([[one, x], [x, one]], [[one, one], [one, one]]):
        with pytest.raises(ValueError,
                           match="not invertible over the polynomial ring"):
            PolyMatrix(BASE, 2, 2, rows).inverse_constant()


rational_rows = st.integers(0, 5).flatmap(lambda cols: st.lists(
    st.lists(st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2)]),
             min_size=cols, max_size=cols), max_size=5).map(
                 lambda rows: (rows, cols)))


@given(rational_rows)
@settings(max_examples=60, deadline=None)
def test_rank_and_null_space_match_sympy(case):
    sympy = pytest.importorskip("sympy")
    rows, cols = case
    m = PolyMatrix(BASE, len(rows), cols,
                   [[Polynomial.const(BASE, v) for v in row] for row in rows])
    ref = sympy.Matrix(len(rows), cols, lambda i, j: sympy.Rational(
        Fraction(rows[i][j]).numerator, Fraction(rows[i][j]).denominator))
    assert rank(rows) == ref.rank()
    basis = m.null_space()
    want = ref.nullspace()
    assert basis.rows == len(want)
    for got, vec in zip(basis.data, want):
        assert [g.constant_value() for g in got] == list(vec)


def test_matrix_json_round_trip():
    m = PolyMatrix(2, 2, 3)
    m[0, 1] = Polynomial.variable(2, 0)
    m[1, 2] = Polynomial.const(2, Fraction(1, 3))
    back = PolyMatrix.from_json(2, 2, 3, m.to_json())
    assert back == m
    with pytest.raises(ValueError):
        PolyMatrix.from_json(2, 3, 3, m.to_json())


def test_tensor_antisymmetry():
    t = PolyTensor(1, [(3, 2, True), (2, 1, False)])
    one = Polynomial.const(1, 1)
    t.set((1, 0, 1), one)
    assert t.get(0, 1, 1) == -one
    assert t.get(1, 1, 0).is_zero()
    with pytest.raises(ValueError):
        t.set((2, 2, 0), one)


def test_tensor_json_round_trip():
    groups = [(3, 2, True), (2, 1, False)]
    t = PolyTensor(1, groups)
    t.set((0, 2, 1), Polynomial.variable(1, 0))
    back = PolyTensor.from_json(1, groups, t.to_json())
    assert back == t


def test_fill_walks_canonical_keys_in_order():
    pairs = [(0, 1), (0, 2), (1, 2)]
    t = PolyTensor(1, [(3, 2, True), (2, 1, False), (3, 2, True),
                       (2, 1, False)])
    seen = []

    def row(*key):
        seen.append(key)
        return [Polynomial.const(1, len(seen)), Polynomial.zero(1)]

    assert t.fill(row) is t
    assert seen == [(i, j, r, k, l) for i, j in pairs for r in range(2)
                    for k, l in pairs]
    assert list(t.entries) == [key + (0,) for key in seen]


def test_fill_stores_no_zero_entry():
    x, z = Polynomial.variable(1, 0), Polynomial.zero(1)
    t = PolyTensor(1, [(3, 2, True), (3, 1, False)]).fill(
        lambda i, j: [z, x, z] if (i, j) == (0, 2) else [z, z, z])
    assert t.entries == {(0, 2, 1): x}
    assert t.get(2, 0, 1) == -x


@pytest.mark.parametrize("length", [1, 3])
def test_fill_rejects_a_row_of_the_wrong_length(length):
    t = PolyTensor(1, [(3, 2, True), (2, 1, False)])
    with pytest.raises(ValueError, match="expected 2"):
        t.fill(lambda i, j: [Polynomial.const(1, 1)] * length)


def test_fill_needs_a_last_group_of_arity_1():
    with pytest.raises(ValueError, match="arity 1"):
        PolyTensor(1, [(3, 2, True)]).fill(lambda: [])


layouts = st.lists(
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.booleans()),
    min_size=0, max_size=3)


@given(layouts, st.integers(1, 3), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_fill_equals_set_on_every_canonical_key(head, last, seed):
    groups = head + [(last, 1, False)]

    def value(key):
        return Polynomial.const(1, hash((seed,) + key) % 5 - 2)

    filled = PolyTensor(1, groups).fill(
        lambda *key: [value(key + (n,)) for n in range(last)])
    reference = PolyTensor(1, groups)
    for key in canonical_keys(reference):
        reference.set(key, value(key))
    assert filled == reference


# -- differential test against the dict-of-Fraction kernel ---------------
# The reference below is the straightforward kernel: exponent tuples,
# every coefficient a Fraction, every result a fresh dict.  Polynomial
# packs exponents into int keys, shares operands, skips validation on its
# own results and stores integral coefficients as ints; none of that may
# change a value, a hash, a render or a JSON form.

def _ref_add(f, g):
    terms = dict(f)
    for exps, coeff in g.items():
        total = terms.get(exps, Fraction(0)) + coeff
        if total == 0:
            terms.pop(exps, None)
        else:
            terms[exps] = total
    return terms


def _ref_neg(f):
    return {e: -c for e, c in f.items()}


def _ref_mul(f, g):
    terms = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            exps = tuple(a + b for a, b in zip(e1, e2))
            total = terms.get(exps, Fraction(0)) + c1 * c2
            if total == 0:
                terms.pop(exps, None)
            else:
                terms[exps] = total
    return terms


def _ref_scale(f, value):
    value = Fraction(value)
    if value == 0:
        return {}
    return {e: c * value for e, c in f.items()}


def _ref_diff(f, index):
    terms = {}
    for exps, coeff in f.items():
        if exps[index]:
            new = list(exps)
            new[index] -= 1
            terms[tuple(new)] = coeff * exps[index]
    return terms


def _assert_same(result, ref):
    assert all(isinstance(c, Fraction) for c in ref.values())
    assert result.base_dim == BASE
    assert result.monomials() == ref
    built = Polynomial(BASE, ref)
    assert result == built
    assert hash(result) == hash(built)
    assert result.render() == built.render()
    assert result.to_json() == built.to_json()
    assert all(c != 0 and isinstance(c, (int, Fraction))
               for c in result.terms.values())


def _snapshot(poly):
    return dict(poly.terms), poly.render(), poly.to_json(), hash(poly)


# Raw term dicts: empty ones (zero operands), integral and non-integral
# coefficients, ints and Fractions, zeros that __init__ drops.
raw_coeffs = st.one_of(coeffs, st.integers(min_value=-3, max_value=3))
raw_terms = st.one_of(st.just({}),
                      st.dictionaries(exponents, raw_coeffs, max_size=4))
# Operands as the checkers meet them: besides general ones, mostly single
# terms, the constant 1 and constants +-c, which take the kernel's fast
# paths.
raw_operands = st.one_of(
    raw_terms,
    st.dictionaries(exponents, raw_coeffs, min_size=1, max_size=1),
    st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]).map(
        lambda c: {(0, 0): c}),
    st.just({(0, 0): 1}),
)


@st.composite
def operand_pairs(draw):
    """Two raw term dicts and, for each, whether to build it as a product
    with Fraction coefficients; g may cancel some or all of f's terms."""
    f = draw(raw_operands)
    g = dict(draw(raw_operands))
    live = sorted(e for e, c in f.items() if c != 0)
    if live:
        for exps in draw(st.sets(st.sampled_from(live))):
            g[exps] = -f[exps]
    return (f, draw(st.booleans())), (g, draw(st.booleans()))


def _both(raw, as_product=False):
    """The Polynomial of a raw term dict and its reference.  As a product,
    (1/2) * (2 raw), every coefficient is a Fraction, integral ones too:
    the constant 1 becomes a unit with coefficient Fraction(1)."""
    ref = {tuple(e): Fraction(c) for e, c in raw.items() if c != 0}
    if not as_product:
        return Polynomial(BASE, raw), ref
    doubled = Polynomial(BASE, {e: 2 * c for e, c in raw.items()})
    poly = Polynomial.const(BASE, Fraction(1, 2)) * doubled
    assert all(type(c) is Fraction for c in poly.terms.values())
    return poly, ref


def test_a_built_unit_stores_fraction_one():
    one = Polynomial.const(BASE, Fraction(1, 2)) * Polynomial.const(BASE, 2)
    assert one.terms == {0: 1} and type(one.terms[0]) is Fraction
    assert _both({(0, 0): 1}, as_product=True)[0].terms == one.terms


scalars = st.one_of(st.integers(min_value=-3, max_value=3), coeffs)


@given(operand_pairs(), scalars, st.integers(min_value=0, max_value=BASE - 1))
@settings(max_examples=300, deadline=None)
def test_kernel_matches_fraction_reference(pair, scalar, index):
    (f, rf), (g, rg) = (_both(*operand) for operand in pair)
    _assert_same(f, rf)
    _assert_same(g, rg)
    before = _snapshot(f), _snapshot(g)
    _assert_same(f + g, _ref_add(rf, rg))
    _assert_same(f - g, _ref_add(rf, _ref_neg(rg)))
    _assert_same(-f, _ref_neg(rf))
    _assert_same(f * g, _ref_mul(rf, rg))
    _assert_same(f.scale(scalar), _ref_scale(rf, scalar))
    _assert_same(f * scalar, _ref_scale(rf, scalar))
    _assert_same(scalar * f, _ref_scale(rf, scalar))
    _assert_same(f.diff(index), _ref_diff(rf, index))
    _assert_same(g * f, _ref_mul(rg, rf))
    _assert_same(f * f, _ref_mul(rf, rf))
    _assert_same((f + g) * g - f, _ref_add(_ref_mul(_ref_add(rf, rg), rg),
                                         _ref_neg(rf)))
    assert (_snapshot(f), _snapshot(g)) == before
    assert _snapshot(Polynomial.zero(BASE)) == _snapshot(Polynomial(BASE))


@given(operand_pairs(), st.integers(min_value=0, max_value=BASE - 1))
@settings(max_examples=60, deadline=None)
def test_kernel_matches_sympy(pair, index):
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(f"x1:{BASE + 1}")

    def expr(poly):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.prod(x ** e for x, e in zip(xs, exps))
                    for exps, c in poly.monomials().items()),
                   sympy.Integer(0))

    f, g = (_both(*operand)[0] for operand in pair)
    assert sympy.expand(expr(f * g) - expr(f) * expr(g)) == 0
    assert sympy.expand(expr(f.diff(index)) - sympy.diff(expr(f), xs[index])) == 0


def test_integral_coefficients_are_stored_as_ints():
    f = Polynomial(BASE, {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 2)})
    assert type(f.monomials()[(1, 0)]) is int
    assert type(f.monomials()[(0, 1)]) is Fraction
    assert type(f.scale(Fraction(6, 3)).monomials()[(1, 0)]) is int
    assert type(Polynomial.const(BASE, "3").constant_value()) is int
    assert Polynomial.from_json(BASE, f.to_json()) == f


# -- packed monomial keys -------------------------------------------------

GUARD = 1 << (FIELD_BITS - 1)


@st.composite
def exponent_vectors(draw, high=EXP_BOUND - 1, size=None):
    """(base_dim, exponent tuple) with entries in [0, high], edges likely."""
    p = draw(st.integers(min_value=0, max_value=4)) if size is None else size
    entry = st.one_of(st.integers(min_value=0, max_value=high),
                      st.sampled_from([0, 1, high - 1, high]))
    return p, draw(st.tuples(*[entry] * p))


@given(exponent_vectors(), coeffs.filter(bool))
@settings(max_examples=200, deadline=None)
def test_pack_unpack_round_trip(vector, coeff):
    p, exps = vector
    assert _unpack(p, _pack(p, exps)) == exps
    assert Polynomial(p, {exps: coeff}).monomials() == {exps: coeff}
    assert Polynomial.from_json(p, [{"coeff": str(coeff), "exps": list(exps)}]
                                ).monomials() == {exps: coeff}


@pytest.mark.parametrize("exps", [(EXP_BOUND,), (-1,), (0, EXP_BOUND),
                                  (2 ** 40, 0)])
def test_exponent_outside_the_bound_is_rejected(exps):
    with pytest.raises(ValueError):
        Polynomial(len(exps), {exps: 1})
    with pytest.raises(ValueError):
        Polynomial.from_json(len(exps), [{"coeff": "1", "exps": list(exps)}])


@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda p: st.tuples(st.just(p), st.lists(
        exponent_vectors(size=p).map(lambda v: v[1]), max_size=12))))
@settings(max_examples=200, deadline=None)
def test_packed_keys_sort_like_exponent_tuples(case):
    p, vectors = case
    assert [_unpack(p, k) for k in sorted(_pack(p, e) for e in vectors)] \
        == sorted(vectors)


def _power(p, exps):
    """The monomial x^exps, for exponents below the guard, built by
    square-and-multiply from inputs with exponents 0 and 1."""
    f = Polynomial.const(p, 1)
    for bit in reversed(range(FIELD_BITS - 1)):
        f = f * f * Polynomial(p, {tuple((e >> bit) & 1 for e in exps): 1})
    return f


@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda p: st.tuples(exponent_vectors(GUARD - 1, p),
                        exponent_vectors(GUARD - 1, p))))
@settings(max_examples=100, deadline=None)
def test_a_product_past_the_guard_raises(case):
    (p, a), (_, b) = case
    f, g = _power(p, a), _power(p, b)
    assert f.monomials() == {a: 1} and g.monomials() == {b: 1}
    total = tuple(x + y for x, y in zip(a, b))
    if max(total) >= GUARD:
        with pytest.raises(OverflowError):
            f * g
    else:
        assert (f * g).monomials() == {total: 1}


@pytest.mark.parametrize("p, a, b", [
    (1, (GUARD // 2,), (GUARD // 2,)),
    (2, (0, GUARD - 1), (0, 1)),
    (2, (GUARD - 2, 5), (3, 0)),
])
def test_a_sum_times_a_monomial_past_the_guard_raises(p, a, b):
    # only the shifted x^a term crosses the guard; the shifted 1 does not
    f = _power(p, a) + Polynomial.const(p, 1)
    g = _power(p, b)
    assert len(f.terms) == 2 and len(g.terms) == 1
    with pytest.raises(OverflowError):
        f * g
    with pytest.raises(OverflowError):
        g * f


@given(raw_terms)
@settings(max_examples=200, deadline=None)
def test_equal_polynomials_built_apart_hash_alike(raw):
    direct = Polynomial(BASE, raw)
    half = Polynomial.const(BASE, Fraction(1, 2))
    # products keep Fraction coefficients even when they are integral
    doubled = Polynomial(BASE, {e: 2 * c for e, c in raw.items()})
    built = half * doubled
    assert built == direct
    # direct stores integral coefficients as ints, built as Fractions
    assert all(type(c) is Fraction for c in built.terms.values())
    assert not hasattr(built, "_hash")
    first = hash(built)
    assert first == hash(direct)
    # cached hashes against fresh ones
    assert hash(built) == first == hash(half * doubled)
    assert hash(direct) == hash(Polynomial.from_json(BASE, direct.to_json()))
