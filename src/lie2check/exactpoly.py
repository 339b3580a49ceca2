"""Exact arithmetic kernel: rationals, multivariate polynomials, tensors.

Every structure function in this package is a polynomial over the
rationals in the base coordinates x_1..x_p.  Zero-testing is structural:
a polynomial is zero exactly when it stores no terms.

Zero-skip contract: most frame components of the operators are zero, so
``dot`` (and through it ``PolyMatrix.apply`` and ``matmul``) and the
operator loops in ``bundle`` do not pass zero operands to the kernel.
Arithmetic is exact and renders sort their terms, so a skipped zero
addend changes no result.  The dimension checks still hold on skipped
operands: a base dimension mismatch raises ValueError and a coordinate
index out of range IndexError, exactly as if the operand had gone
through the kernel.

Fast paths: most products have a factor that is zero, the constant 1
or one monomial, and skip the double loop: by 0 or 1 they return an
operand, by a constant they scale, by a monomial they shift each key.
``Polynomial.zero`` is one shared instance per base dimension.  Any
result may be an operand or the shared zero, so no code writes into a
``terms`` mapping once built.  A returned operand may store an integral
coefficient as a Fraction where the loop would store an int, or the
other way round; ``str``, ``hash`` and ``==`` agree across the two.

Packed monomials: ``Polynomial.terms`` keys each monomial by one int,
its exponent vector (e_1, ..., e_p) in fields of ``FIELD_BITS`` = 32
bits with e_1 in the most significant field.  The product of two
monomials is the sum of their keys, and sorting keys sorts exponent
tuples lexicographically.  Exponents that enter through
``Polynomial.__init__`` or ``from_json`` must be ints with
0 <= e < ``EXP_BOUND`` = 2**16; anything else is a ValueError.  The top
bit of each field is a guard: products may grow an exponent up to
2**31 - 1, and a product that stores an exponent of 2**31 or more
raises OverflowError instead of carrying into the next field.  The
input bound leaves products a 2**15-fold margin below the guard.
``monomials()`` unpacks the keys to tuples; renders and JSON sort the
unpacked tuples.

Linear algebra: ``PolyMatrix.charpoly`` (Berkowitz) gives the
determinant and, by Cayley-Hamilton, the inverse, with ring operations
only.  Rank, null space and left inverse of constant matrices rest on
the one field elimination, ``rref``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from operator import or_

FIELD_BITS = 32
EXP_BOUND = 1 << 16
_FIELD_MASK = (1 << FIELD_BITS) - 1
_GUARD = 1 << (FIELD_BITS - 1)


def rational(value) -> Fraction:
    """Coerce ints, strings like "a/b", and Fractions to an exact rational.

    Raises ValueError for a string that is not a finite rational (a zero
    denominator included) and TypeError for any other type, bool included.
    A string of ASCII digits with an optional leading "-", the common
    stored coefficient, is read by ``int``, which agrees with
    ``Fraction(str)`` on exactly those strings and skips its regex.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"not an exact rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        digits = value[1:] if value[:1] == "-" else value
        if digits.isascii() and digits.isdigit():
            return Fraction(int(value))
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {value!r}") from None
    raise TypeError(f"not an exact rational: {value!r}")


def format_rational(value: int | Fraction) -> str:
    return str(value)


def _coefficient(value):
    """``value`` as a stored coefficient: an int when it is integral.

    ``str``, ``hash`` and ``==`` agree between an int and the equal
    Fraction, so renders, JSON and set order do not depend on the choice.
    """
    value = rational(value)
    return value.numerator if value.denominator == 1 else value


def _pack(base_dim: int, exps) -> int:
    """The packed key of an exponent sequence; validates every entry."""
    if len(exps) != base_dim:
        raise ValueError("exponent tuple has wrong length")
    key = 0
    for e in exps:
        if type(e) is not int or not 0 <= e < EXP_BOUND:
            raise ValueError(f"exponents must be integers in "
                             f"[0, {EXP_BOUND}): {exps!r}")
        key = (key << FIELD_BITS) | e
    return key


def _unpack(base_dim: int, key: int) -> tuple:
    return tuple((key >> (FIELD_BITS * k)) & _FIELD_MASK
                 for k in reversed(range(base_dim)))


@cache
def _guard_mask(base_dim: int) -> int:
    return sum(_GUARD << (FIELD_BITS * k) for k in range(base_dim))


def _make(base_dim: int, terms: dict) -> "Polynomial":
    """Polynomial over terms that are already valid: packed keys of
    ``base_dim`` fields and nonzero int or Fraction coefficients.  Skips
    the validation of ``Polynomial.__init__`` and leaves the hash unset."""
    poly = object.__new__(Polynomial)
    poly.base_dim = base_dim
    poly.terms = terms
    return poly


@cache
def _zero(base_dim: int) -> "Polynomial":
    return _make(base_dim, {})


class Polynomial:
    """Multivariate polynomial over the rationals with packed monomial keys.

    Terms map a packed exponent key (see the module docstring) to a
    nonzero coefficient, an ``int`` or a ``Fraction``; ``__init__`` takes
    exponent tuples of length ``base_dim`` and, like ``scale``, stores
    integral values as ints.  base_dim 0 is legal and leaves room for
    constants only.  Instances are immutable, so an operation may return
    one of its operands (``f + 0`` and ``f * 1`` are ``f``) instead of a
    copy, and the hash is computed once, on first use.
    """

    __slots__ = ("base_dim", "terms", "_hash")

    def __init__(self, base_dim: int, terms=None):
        self.base_dim = base_dim
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                key = _pack(base_dim, exps)
                coeff = _coefficient(coeff)
                if coeff != 0:
                    clean[key] = coeff
        self.terms = clean

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, base_dim: int) -> "Polynomial":
        """The zero polynomial over R^base_dim, one shared instance each."""
        return _zero(base_dim)

    @classmethod
    def const(cls, base_dim: int, value) -> "Polynomial":
        value = _coefficient(value)
        if value == 0:
            return _zero(base_dim)
        return _make(base_dim, {0: value})

    @classmethod
    def variable(cls, base_dim: int, index: int) -> "Polynomial":
        if not 0 <= index < base_dim:
            raise IndexError("coordinate index out of range")
        return _make(base_dim,
                     {1 << (FIELD_BITS * (base_dim - 1 - index)): 1})

    # -- predicates ---------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return self.terms.keys() <= {0}

    def constant_value(self) -> int | Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get(0, 0)

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(map(sum, self.monomials()))

    def monomials(self) -> dict:
        """The terms keyed by exponent tuple instead of packed key."""
        return {_unpack(self.base_dim, key): coeff
                for key, coeff in self.terms.items()}

    # -- ring operations ----------------------------------------------
    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.base_dim != other.base_dim:
            raise ValueError("base dimension mismatch")
        if not other.terms:
            return self
        if not self.terms:
            return other
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            total = terms.get(exps, 0) + coeff
            if total == 0:
                del terms[exps]
            else:
                terms[exps] = total
        return _make(self.base_dim, terms)

    def __neg__(self) -> "Polynomial":
        return _make(self.base_dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.base_dim != other.base_dim:
            raise ValueError("base dimension mismatch")
        if not other.terms:
            return self
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            total = terms.get(exps, 0) - coeff
            if total == 0:
                del terms[exps]
            else:
                terms[exps] = total
        return _make(self.base_dim, terms)

    def __mul__(self, other) -> "Polynomial":
        # Polynomial first: Fraction's metaclass is ABCMeta, so an
        # isinstance test against it is slow.
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            return NotImplemented
        if self.base_dim != other.base_dim:
            raise ValueError("base dimension mismatch")
        if not self.terms:
            return self
        if not other.terms:
            return other
        if len(other.terms) == 1 or len(self.terms) == 1:
            # A monomial factor shifts every key of the other factor by
            # its own key; distinct keys stay distinct, so nothing cancels.
            poly, mono = (self, other) if len(other.terms) == 1 \
                else (other, self)
            [(shift, c)] = mono.terms.items()
            if not shift:
                if c == 1:
                    return poly
                return _make(self.base_dim,
                             {e: v * c for e, v in poly.terms.items()})
            terms = {e + shift: v * c for e, v in poly.terms.items()}
        else:
            terms = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    key = e1 + e2
                    total = terms.get(key, 0) + c1 * c2
                    if total == 0:
                        del terms[key]
                    else:
                        terms[key] = total
        # Operand fields are below the guard, so a sum carries into no
        # other field; a stored field that reached the guard overflowed.
        if reduce(or_, terms, 0) & _guard_mask(self.base_dim):
            raise OverflowError(
                f"exponent overflow: a product reached 2**{FIELD_BITS - 1}")
        return _make(self.base_dim, terms)

    def __rmul__(self, other) -> "Polynomial":
        return self.__mul__(other)

    def scale(self, value) -> "Polynomial":
        value = _coefficient(value)
        if value == 0:
            return _zero(self.base_dim)
        return _make(self.base_dim,
                     {e: c * value for e, c in self.terms.items()})

    def diff(self, index: int) -> "Polynomial":
        if not 0 <= index < self.base_dim:
            raise IndexError("coordinate index out of range")
        shift = FIELD_BITS * (self.base_dim - 1 - index)
        unit = 1 << shift
        terms: dict = {}
        for key, coeff in self.terms.items():
            e = (key >> shift) & _FIELD_MASK
            if e:
                terms[key - unit] = coeff * e
        return _make(self.base_dim, terms)

    # -- comparison / rendering ---------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, int) and not isinstance(other, bool):
            other = Polynomial.const(self.base_dim, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.base_dim == other.base_dim and self.terms == other.terms

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.base_dim, frozenset(self.terms.items())))
            return self._hash

    def __repr__(self):
        return f"Polynomial({self.render()})"

    def render(self, names=None) -> str:
        if not self.terms:
            return "0"
        if names is None:
            names = [f"x{i + 1}" for i in range(self.base_dim)]
        monomials = self.monomials()
        pieces = []
        for exps in sorted(monomials, key=lambda e: (sum(e), e)):
            coeff = monomials[exps]
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            if body and coeff == 1:
                pieces.append(body)
            elif body and coeff == -1:
                pieces.append(f"-{body}")
            elif body:
                pieces.append(f"{coeff}*{body}")
            else:
                pieces.append(str(coeff))
        out = pieces[0]
        for piece in pieces[1:]:
            out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
        return out

    # -- serialization -------------------------------------------------
    def to_json(self):
        items = sorted(self.monomials().items())
        return [{"coeff": format_rational(c), "exps": list(e)} for e, c in items]

    @classmethod
    def from_json(cls, base_dim: int, data) -> "Polynomial":
        if not isinstance(data, list):
            raise ValueError("polynomial must be a list of terms, got "
                             f"{type(data).__name__}")
        terms = {}
        for item in data:
            if set(item) != {"coeff", "exps"}:
                raise ValueError("polynomial term must have exactly coeff and exps")
            if not isinstance(item["exps"], list):
                raise ValueError("exps must be a list of exponents")
            exps = tuple(item["exps"])
            coeff = rational(item["coeff"])
            if exps in terms:
                raise ValueError("duplicate exponent tuple")
            terms[exps] = coeff
        return cls(base_dim, terms)


def random_polynomial(rng, base_dim: int, max_degree: int = 2) -> Polynomial:
    """Small random polynomial with integer coefficients in [-3, 3]."""
    exps_pool = [()] if base_dim == 0 else None
    if exps_pool is None:
        exps_pool = []

        def walk(prefix, budget):
            if len(prefix) == base_dim:
                exps_pool.append(tuple(prefix))
                return
            for e in range(budget + 1):
                walk(prefix + [e], budget - e)

        walk([], max_degree)
    terms = {}
    for exps in exps_pool:
        coeff = rng.randint(-3, 3)
        if coeff:
            terms[exps] = Fraction(coeff)
    return Polynomial(base_dim, terms)


def _perm_sign_and_sort(indices):
    """Sort index list, returning (sign, sorted tuple); sign 0 on repeats."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return 0, tuple(idx)
    return sign, tuple(idx)


class PolyTensor:
    """Tensor of polynomials with per-index-group antisymmetry.

    ``groups`` is a sequence of (dim, arity, antisym) triples; the full
    index tuple concatenates one block per group.  Antisymmetric blocks
    are stored only on strictly increasing tuples; permuted reads return
    the signed entry and repeated indices read zero.
    """

    __slots__ = ("base_dim", "groups", "entries")

    def __init__(self, base_dim: int, groups):
        self.base_dim = base_dim
        self.groups = tuple((int(d), int(a), bool(s)) for d, a, s in groups)
        self.entries: dict = {}

    def _canonical(self, idx):
        idx = tuple(idx)
        expected = sum(a for _, a, _ in self.groups)
        if len(idx) != expected:
            raise ValueError("index tuple has wrong length")
        sign = 1
        key = []
        pos = 0
        for dim, arity, antisym in self.groups:
            block = idx[pos:pos + arity]
            pos += arity
            for i in block:
                if not 0 <= i < dim:
                    raise IndexError("tensor index out of range")
            if antisym:
                s, block = _perm_sign_and_sort(block)
                if s == 0:
                    return 0, None
                sign *= s
            key.extend(block)
        return sign, tuple(key)

    def get(self, *idx) -> Polynomial:
        sign, key = self._canonical(idx)
        if sign == 0 or key not in self.entries:
            return Polynomial.zero(self.base_dim)
        entry = self.entries[key]
        return entry if sign == 1 else -entry

    def set(self, idx, value: Polynomial):
        sign, key = self._canonical(idx)
        if sign == 0:
            if not value.is_zero():
                raise ValueError("repeated antisymmetric index must be zero")
            return
        if value.is_zero():
            self.entries.pop(key, None)
        else:
            self.entries[key] = value if sign == 1 else -value

    def add_to(self, idx, value: Polynomial):
        self.set(idx, self.get(*idx) + value)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, PolyTensor):
            return NotImplemented
        return (self.base_dim == other.base_dim and self.groups == other.groups
                and self.entries == other.entries)

    def copy(self) -> "PolyTensor":
        out = PolyTensor(self.base_dim, self.groups)
        out.entries = dict(self.entries)
        return out

    def to_json(self):
        items = sorted(self.entries.items())
        return [{"idx": list(k), "val": v.to_json()} for k, v in items]

    @classmethod
    def from_json(cls, base_dim: int, groups, data) -> "PolyTensor":
        if not isinstance(data, list):
            raise ValueError("tensor must be a list of entries, got "
                             f"{type(data).__name__}")
        out = cls(base_dim, groups)
        for item in data:
            if set(item) != {"idx", "val"}:
                raise ValueError("tensor entry must have exactly idx and val")
            idx = tuple(item["idx"])
            if not all(type(i) is int for i in idx):
                raise ValueError(
                    f"tensor indices must be integers: {item['idx']!r}")
            out.set(idx, Polynomial.from_json(base_dim, item["val"]))
        return out


class PolyMatrix:
    """Dense matrix of polynomials (rows x cols)."""

    __slots__ = ("base_dim", "rows", "cols", "data")

    def __init__(self, base_dim: int, rows: int, cols: int, data=None):
        self.base_dim = base_dim
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[_zero(base_dim)] * cols for _ in range(rows)]
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise ValueError("matrix shape mismatch")
            self.data = [list(r) for r in data]

    @classmethod
    def identity(cls, base_dim: int, n: int) -> "PolyMatrix":
        out = cls(base_dim, n, n)
        for i in range(n):
            out.data[i][i] = Polynomial.const(base_dim, 1)
        return out

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def __setitem__(self, key, value: Polynomial):
        i, j = key
        self.data[i][j] = value

    def apply(self, vec):
        """Matrix times a coefficient vector of polynomials.

        Only products of a nonzero entry and a nonzero vector component
        reach the kernel; every entry's base dimension is still checked.
        """
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return [dot(row, vec, self.base_dim) for row in self.data]

    def matmul(self, other: "PolyMatrix") -> "PolyMatrix":
        """Matrix product, with the zero skip and checks of ``apply``."""
        if self.cols != other.rows:
            raise ValueError("matrix shape mismatch")
        p = self.base_dim
        cols = [[row[k] for row in other.data] for k in range(other.cols)]
        return PolyMatrix(p, self.rows, other.cols,
                          [[dot(row, col, p) for col in cols]
                           for row in self.data])

    def transpose(self) -> "PolyMatrix":
        out = PolyMatrix(self.base_dim, self.cols, self.rows)
        for i in range(self.rows):
            for j in range(self.cols):
                out.data[j][i] = self.data[i][j]
        return out

    def add(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shape mismatch")
        out = PolyMatrix(self.base_dim, self.rows, self.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                out.data[i][j] = self.data[i][j] + other.data[i][j]
        return out

    def scale(self, value) -> "PolyMatrix":
        out = PolyMatrix(self.base_dim, self.rows, self.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                out.data[i][j] = self.data[i][j].scale(value)
        return out

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.data for e in row)

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            all(self.data[i][j] == other.data[i][j]
                for i in range(self.rows) for j in range(self.cols))

    def charpoly(self) -> list:
        """Coefficients [1, c_1, ..., c_n] of det(t I - A), by Berkowitz's
        division-free algorithm (IPL 18, 1984) in O(n^4) ring operations.

        Step k borders the leading k x k block A_k by the column C above
        and the row R left of a = A[k][k].  The coefficients for A_{k+1}
        are the Toeplitz product of (1, -a, -R C, -R A_k C, ...,
        -R A_k^(k-1) C) with those for A_k.  Zero operands and products
        with the leading 1 do not reach the kernel.
        """
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        p = self.base_dim
        if any(e.base_dim != p for row in self.data for e in row):
            raise ValueError("base dimension mismatch")
        zero = Polynomial.zero(p)
        coeffs = [Polynomial.const(p, 1)]
        for k, row in enumerate(self.data):
            block = self.data[:k]
            vec = [r[k] for r in block]
            toeplitz = [-row[k]]
            for step in range(k):
                toeplitz.append(-dot(row, vec, p))
                if step < k - 1:
                    vec = [dot(r, vec, p) for r in block]
            new = coeffs + [zero]
            for j, t in enumerate(toeplitz, 1):
                if t.terms:
                    new[j] = new[j] + t
                    for i in range(j + 1, k + 2):
                        if coeffs[i - j].terms:
                            new[i] = new[i] + t * coeffs[i - j]
            coeffs = new
        return coeffs

    def determinant(self) -> Polynomial:
        """(-1)^n c_n of ``charpoly``; a 0 x 0 matrix has determinant 1."""
        c_n = self.charpoly()[-1]
        return -c_n if self.rows % 2 else c_n

    def inverse_constant(self) -> "PolyMatrix":
        """Exact inverse; requires a nonzero constant determinant.

        By Cayley-Hamilton, A (A^(n-1) + c_1 A^(n-2) + ... + c_(n-1) I)
        = -c_n I, so the inverse is that polynomial in A over -c_n.
        """
        coeffs = self.charpoly()
        c_n = coeffs[-1]
        if not c_n.is_constant() or c_n.constant_value() == 0:
            raise ValueError("matrix is not invertible over the polynomial ring")
        acc = PolyMatrix.identity(self.base_dim, self.rows)
        for c in coeffs[1:-1]:
            acc = self.matmul(acc)
            for i in range(self.rows):
                acc.data[i][i] = acc.data[i][i] + c
        return acc.scale(Fraction(-1) / c_n.constant_value())

    def left_inverse(self) -> "PolyMatrix":
        """(A^T A)^(-1) A^T; needs A^T A to have a nonzero constant
        determinant, as for a constant A of full column rank."""
        at = self.transpose()
        return at.matmul(self).inverse_constant().matmul(at)

    def constant_rows(self) -> list:
        """The entries as rational rows; ValueError unless all are constant."""
        if not all(e.is_constant() for row in self.data for e in row):
            raise ValueError("matrix entries must be constant")
        return [[e.constant_value() for e in row] for row in self.data]

    def null_space(self) -> "PolyMatrix":
        """Rows: a basis of the right null space of a constant matrix, one
        vector per free column of its reduced row echelon form."""
        reduced, pivots = rref(self.constant_rows())
        p = self.base_dim
        basis = []
        for c in range(self.cols):
            if c in pivots:
                continue
            vec = [Polynomial.zero(p)] * self.cols
            vec[c] = Polynomial.const(p, 1)
            for r, pc in enumerate(pivots):
                vec[pc] = Polynomial.const(p, -reduced[r][c])
            basis.append(vec)
        return PolyMatrix(p, len(basis), self.cols, basis)

    def to_json(self):
        return [[e.to_json() for e in row] for row in self.data]

    @classmethod
    def from_json(cls, base_dim: int, rows: int, cols: int, data) -> "PolyMatrix":
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("matrix shape mismatch")
        out = cls(base_dim, rows, cols)
        for i in range(rows):
            for j in range(cols):
                out.data[i][j] = Polynomial.from_json(base_dim, data[i][j])
        return out


def dot(u, v, base_dim: int) -> Polynomial:
    """Sum of u[j] * v[j] over j < min(len(u), len(v)).  Products with a
    zero factor skip the kernel; every factor's base dimension is still
    checked against ``base_dim``."""
    acc = _zero(base_dim)
    for a, b in zip(u, v):
        if a.base_dim != base_dim or b.base_dim != base_dim:
            raise ValueError("base dimension mismatch")
        if a.terms and b.terms:
            acc = acc + a * b
    return acc


# ---------------------------------------------------------------------------
# exact linear algebra over the rationals: the one field elimination


def rref(rows):
    """Reduced row echelon form of rational rows: (nonzero rows, pivot
    columns).  Pivots are taken left to right, each from the first row
    at or below the current one with a nonzero entry in that column."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rank(rows) -> int:
    """Rank of a list of rational rows."""
    return len(rref(rows)[1])
