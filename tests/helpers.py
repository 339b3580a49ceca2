"""Helpers shared by the test modules."""

from itertools import combinations

from hypothesis import strategies as st

from lie2check.exactpoly import Polynomial, PolyMatrix, PolyTensor


def canonical_keys(tensor):
    """All canonical index tuples of a ``PolyTensor``: strictly increasing
    in antisymmetric blocks, every combination elsewhere."""
    blocks = []
    for dim, arity, antisym in tensor.groups:
        if antisym:
            blocks.append(list(combinations(range(dim), arity)))
        else:
            block = [()]
            for _ in range(arity):
                block = [b + (i,) for b in block for i in range(dim)]
            blocks.append(block)
    keys = [()]
    for block in blocks:
        keys = [k + b for k in keys for b in block]
    return keys


class Draw:
    """Random polynomials over R^p; ``zeros`` in three are zero."""

    def __init__(self, draw, p, zeros=1):
        self.draw, self.p, self.zeros = draw, p, zeros

    def poly(self):
        if self.draw(st.integers(0, 2)) > 2 - self.zeros:
            return Polynomial.zero(self.p)
        exps = st.tuples(*[st.integers(0, 2)] * self.p)
        coeffs = st.sampled_from([-3, -2, -1, 1, 2, 3])
        return Polynomial(self.p, self.draw(
            st.dictionaries(exps, coeffs, min_size=1, max_size=3)))

    def section(self, n):
        return [self.poly() for _ in range(n)]

    def matrix(self, rows, cols):
        return PolyMatrix(self.p, rows, cols,
                          [self.section(cols) for _ in range(rows)])

    def comps(self, d1, d2, d3):
        return [[self.section(d3) for _ in range(d2)] for _ in range(d1)]

    def two_form(self, rank, n_in, n_out):
        tensor = PolyTensor(self.p, [(rank, 2, True), (n_in, 1, False),
                                     (n_out, 1, False)])
        for key in canonical_keys(tensor):
            tensor.set(key, self.poly())
        return tensor
