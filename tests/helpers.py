"""Helpers shared by the test modules."""

from itertools import combinations, combinations_with_replacement

from hypothesis import strategies as st

from lie2check import __version__
from lie2check.courant import standard_courant, tangent_double_pair
from lie2check.examples import semidirect_flat
from lie2check.exactpoly import Polynomial, PolyMatrix, PolyTensor
from lie2check.lie2 import (
    GradedFunction, change_splitting, split_from_dorfman,
)
from lie2check.serialize import REPORT_FORMAT


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


def graded_function(d, rq, rb, parity=None, min_size=0, taus_first=False):
    """Up to three random terms of a ``GradedFunction`` with at most two
    b factors, repeats allowed; with a parity, only terms whose tau count
    has it.  Terms with fewer taus come first, or with more if
    ``taus_first``: shrinking then keeps the signs of the graded Leibniz
    rule in play, and generator images do not annihilate the function."""
    order = range(rq, -1, -1) if taus_first else range(rq + 1)
    keys = [(taus, bs) for k in order
            if parity is None or k % 2 == parity
            for taus in combinations(range(rq), k)
            for nb in range(3)
            for bs in combinations_with_replacement(range(rb), nb)]
    chosen = d.draw(st.lists(st.sampled_from(keys), min_size=min_size,
                             max_size=3)) if keys else []
    return GradedFunction(d.p, rq, rb, {key: d.poly() for key in chosen})


def entry_dict(entry):
    """A check entry as a plain dict."""
    return {
        "label": entry.label,
        "passed": entry.passed,
        "witness": entry.witness,
        "residual": entry.residual,
    }


def report_dict(report):
    """A ``CheckReport`` as a plain dict, for comparing and hashing."""
    return {
        "title": report.title,
        "seed": report.seed,
        "passed": report.passed,
        "checks": [entry_dict(e) for e in report.entries],
    }


def report_document(report, mode, digest, seed):
    """The document a JSON report of ``lie2check check`` holds: the
    writer's output is ``json.dumps`` of it with sorted keys and indent 2,
    plus a newline."""
    return {
        "format": REPORT_FORMAT,
        "tool_version": __version__,
        "mode": mode,
        "input_digest": digest,
        "seed": seed,
        "checks": [{"ref": report.title, **entry_dict(e)}
                   for e in report.entries],
        "passed": report.passed,
    }


def curved_tangent_double():
    """Tangent double of standard_courant(2) with the metric connection
    that acts on TM by [[0, x2], [0, 0]] along x1 and on T*M by minus the
    transpose; its curvB is nonzero."""
    z, x2 = Polynomial.zero(2), Polynomial.variable(2, 1)
    g0 = [[z, x2, z, z], [z, z, z, z], [z, z, z, z], [z, z, -x2, z]]
    g1 = [[z] * 4 for _ in range(4)]
    return tangent_double_pair(standard_courant(2), [g0, g1])


def splitting_morphism(sign):
    """The arguments of ``check_lie2_morphism`` for semidirect_flat
    against its change of splitting by phi = x (q1 ^ q2) b1, with mu_Q and
    mu_B the identities and mu12 = sign * phi; sign -1 is a morphism."""
    dorf = semidirect_flat()
    x = Polynomial.variable(1, 0)
    phi, mu12 = (PolyTensor(1, [(2, 2, True), (1, 1, False)])
                 for _ in range(2))
    phi.set((0, 1, 0), x)
    mu12.set((0, 1, 0), x.scale(sign))
    return (split_from_dorfman(dorf),
            split_from_dorfman(change_splitting(dorf, phi)),
            PolyMatrix.identity(1, 2), PolyMatrix.identity(1, 1), mu12)
