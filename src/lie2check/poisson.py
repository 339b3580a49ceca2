"""Self-dual 2-representations and the degree -2 graded Poisson bracket.

A self-dual 2-representation of a Lie algebroid B acts on a symmetric
complex partial_q : Q* -> Q; its graded Poisson manifold carries degree-1
coordinates tau (the Q* frame functions) and degree-2 coordinates b (the
B frame functions).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

from .exactpoly import Polynomial, PolyMatrix, PolyTensor
from .report import CheckReport, sweep, witness
from .bundle import (
    LieAlgebroidData, LinearConnection, TwoRepData, check_two_rep,
    curvature_matrix, unit_section,
)
from .lie2 import GradedFunction


@dataclass
class SelfDual2Rep:
    """Self-dual 2-representation of a Lie algebroid B on partial_q: Q* -> Q.

    curvB holds R_B(b_i, b_j) as a Hom(Q, Q*) block with antisymmetric
    values: indices (i, j, s, t) give the t-th Q*-component of
    R_B(b_i, b_j) applied to the s-th Q-frame.
    """

    algebroid: LieAlgebroidData
    rank_q: int
    partial_q: PolyMatrix
    nablaQ: LinearConnection
    curvB: PolyTensor

    @classmethod
    def curv_tensor(cls, base_dim, rank_b, rank_q) -> PolyTensor:
        return PolyTensor(base_dim,
                          [(rank_b, 2, True), (rank_q, 1, False), (rank_q, 1, False)])

    @property
    def rank_b(self):
        return self.algebroid.bundle.rank

    @property
    def base_dim(self):
        return self.algebroid.bundle.base_dim

    def nablaQstar(self) -> LinearConnection:
        return self.nablaQ.dual()

    def as_two_rep(self) -> TwoRepData:
        """View as a 2-term representation of B with E_0 = Q*, E_1 = Q."""
        return TwoRepData(
            algebroid=self.algebroid,
            rank_b=self.rank_q,
            rank_c=self.rank_q,
            partial=self.partial_q,
            connB=self.nablaQ,
            connC=self.nablaQstar(),
            curv=self.curvB,
        )

    def curv_matrix(self, b1, b2) -> PolyMatrix:
        """R_B(b1, b2) as a Hom(Q, Q*) polynomial matrix (tensorial)."""
        return curvature_matrix(self.curvB, b1, b2)

    def partial_symmetry_failures(self):
        """Witnesses (tau_i, tau_j), i < j, of the frame components where
        partial_q differs from its transpose; empty iff partial_q is
        symmetric."""
        return [witness(names) for names, (i, j) in sweep(
            ("tau", range(self.rank_q), 2, combinations))
            if not (self.partial_q[i, j] - self.partial_q[j, i]).is_zero()]

    def curv_antisymmetry_failures(self):
        """Witnesses (b_i, b_j, q_s, q_t) of the frame components where
        R_B(b_i, b_j) has a symmetric part; empty iff every value of R_B
        is antisymmetric."""
        return [witness(names) for names, (i, j, s, t) in sweep(
            ("b", range(self.rank_b), 2, combinations),
            ("q", range(self.rank_q), 2, combinations_with_replacement))
            if not (self.curvB.get(i, j, s, t)
                    + self.curvB.get(i, j, t, s)).is_zero()]


def check_selfdual2rep(rep: SelfDual2Rep, seed: int = 0,
                       title: str = "self-dual 2-representation") -> CheckReport:
    """Symmetry of partial_q and antisymmetry of R_B on frame components,
    then the 2-representation checks of ``as_two_rep``.

    Its sampled entries all come from ``check_two_rep``, which settles
    them by its own argument; it assumes no label checked here.
    """
    report = CheckReport(title, seed)
    for label, failing in (
            ("partial_symmetric", rep.partial_symmetry_failures()),
            ("curv_antisymmetric", rep.curv_antisymmetry_failures())):
        report.add(label, not failing,
                   witness=failing[-1] if failing else "frame components")

    report.merge(check_two_rep(rep.as_two_rep(), seed))
    return report


# ---------------------------------------------------------------------------
# graded Poisson bracket


class PoissonStructure:
    """Degree -2 Poisson bracket generated by a self-dual 2-representation."""

    def __init__(self, rep: SelfDual2Rep):
        self.rep = rep
        self.p = rep.base_dim
        self.rq = rep.rank_q
        self.rb = rep.rank_b
        self._gamma_star = rep.nablaQstar().gamma
        self._anchor = rep.algebroid.bundle.anchor
        self._table = self._generator_table()

    def _gf(self, terms):
        return GradedFunction(self.p, self.rq, self.rb, terms)

    def _zero(self):
        return GradedFunction.zero(self.p, self.rq, self.rb)

    def _from_poly(self, poly):
        return GradedFunction.from_poly(self.rq, self.rb, poly)

    def _wedge_function(self, hom: PolyMatrix) -> GradedFunction:
        """Quadratic function of an antisymmetric Hom(Q, Q*) value.

        hom[t][s] is the tau_t-component of the image of the s-th frame;
        the associated function is sum_{s<t} hom[t][s] tau_s tau_t.
        """
        out = self._zero()
        for s in range(self.rq):
            for t in range(s + 1, self.rq):
                coeff = hom.data[t][s]
                if not coeff.is_zero():
                    out = out + self._gf({((s, t), ()): coeff})
        return out

    def _generator_table(self):
        table = {}
        one = Polynomial.const(self.p, 1)
        for i in range(self.rq):
            for j in range(self.rq):
                table[("tau", i), ("tau", j)] = \
                    self._from_poly(self.rep.partial_q[j, i])
        for l in range(self.rb):
            for j in range(self.rq):
                value = self._gf({((k,), ()): self._gamma_star[l][j][k]
                                  for k in range(self.rq)})
                table[("b", l), ("tau", j)] = value
                table[("tau", j), ("b", l)] = -value
        frames_b = [unit_section(self.p, self.rb, l) for l in range(self.rb)]
        for l in range(self.rb):
            for m in range(self.rb):
                bracket = self.rep.algebroid.bracket.apply(frames_b[l], frames_b[m])
                value = self._gf({((), (r,)): bracket[r] for r in range(self.rb)})
                value = value - self._wedge_function(
                    self.rep.curv_matrix(frames_b[l], frames_b[m]))
                table[("b", l), ("b", m)] = value
        return table

    def _base_bracket(self, a, b) -> GradedFunction:
        """Bracket of two single factors; polynomials enter via partials."""
        kind_a, val_a = a
        kind_b, val_b = b
        if kind_a == "poly" and kind_b == "poly":
            return self._zero()
        if kind_a == "poly":
            # {f, g} = sum_i d_i f {x_i, g}
            out = self._zero()
            for i in range(self.p):
                df = val_a.diff(i)
                if df.is_zero():
                    continue
                out = out + self._base_bracket(("x", i), b) * df
            return out
        if kind_b == "poly":
            out = self._zero()
            for i in range(self.p):
                dg = val_b.diff(i)
                if dg.is_zero():
                    continue
                out = out + self._base_bracket(a, ("x", i)) * dg
            return out
        if kind_a == "x" or kind_b == "x":
            if kind_a == "x" and kind_b == "b":
                # {x_i, b_l} = -rho_B(b_l)(x_i)
                return self._from_poly(-self._anchor[val_a, val_b])
            if kind_a == "b" and kind_b == "x":
                return self._from_poly(self._anchor[val_b, val_a])
            return self._zero()
        return self._table[(kind_a, val_a), (kind_b, val_b)]

    @staticmethod
    def _factors(key, poly):
        taus, bs = key
        out = []
        if not poly.is_constant() or poly.constant_value() != 1:
            out.append(("poly", poly))
        out.extend(("tau", i) for i in taus)
        out.extend(("b", i) for i in bs)
        return out

    @staticmethod
    def _degree(factor):
        return {"poly": 0, "x": 0, "tau": 1, "b": 2}[factor[0]]

    def _factor_gf(self, factor) -> GradedFunction:
        kind, val = factor
        if kind == "poly":
            return self._from_poly(val)
        if kind == "x":
            return self._from_poly(Polynomial.variable(self.p, val))
        if kind == "tau":
            return GradedFunction.tau(self.p, self.rq, self.rb, val)
        return GradedFunction.bgen(self.p, self.rq, self.rb, val)

    def _factors_gf(self, factors) -> GradedFunction:
        out = GradedFunction.from_poly(self.rq, self.rb,
                                       Polynomial.const(self.p, 1))
        for f in factors:
            out = out * self._factor_gf(f)
        return out

    def _bracket_factors(self, left, right) -> GradedFunction:
        if not left or not right:
            return self._zero()
        if len(left) > 1:
            # {a w, v} = a {w, v} + (-1)^{|w||v|} {a, v} w
            a, rest = left[0], left[1:]
            deg_w = sum(self._degree(f) for f in rest)
            deg_v = sum(self._degree(f) for f in right)
            term1 = self._factor_gf(a) * self._bracket_factors(rest, right)
            term2 = self._bracket_factors([a], right) * self._factors_gf(rest)
            if (deg_w * deg_v) % 2 == 1:
                term2 = -term2
            return term1 + term2
        if len(right) > 1:
            # {a, c w'} = {a, c} w' + (-1)^{|a||c|} c {a, w'}
            c, rest = right[0], right[1:]
            deg_a = self._degree(left[0])
            deg_c = self._degree(c)
            term1 = self._bracket_factors(left, [c]) * self._factors_gf(rest)
            term2 = self._factor_gf(c) * self._bracket_factors(left, rest)
            if (deg_a * deg_c) % 2 == 1:
                term2 = -term2
            return term1 + term2
        return self._base_bracket(left[0], right[0])

    def bracket(self, u: GradedFunction, v: GradedFunction) -> GradedFunction:
        out = self._zero()
        for key1, poly1 in u.terms.items():
            for key2, poly2 in v.terms.items():
                out = out + self._bracket_factors(self._factors(key1, poly1),
                                                  self._factors(key2, poly2))
        return out

    def generators(self):
        gens = [(f"x{i + 1}", self._factor_gf(("x", i)), 0) for i in range(self.p)]
        gens += [(f"tau{i + 1}", self._factor_gf(("tau", i)), 1)
                 for i in range(self.rq)]
        gens += [(f"b{i + 1}", self._factor_gf(("b", i)), 2) for i in range(self.rb)]
        return gens


def check_graded_jacobi(rep: SelfDual2Rep, seed: int = 0,
                        title: str = "graded Jacobi identity") -> CheckReport:
    report = CheckReport(title, seed)
    ps = PoissonStructure(rep)
    gens = ps.generators()
    labels = [name for name, _, _ in gens]

    def skew(gen1, gen2):
        (_, g1, d1), (_, g2, d2) = gen1, gen2
        res = ps.bracket(g1, g2)
        flip = ps.bracket(g2, g1)
        return res + flip if (d1 * d2) % 2 == 0 else res - flip

    def jacobi(gen1, gen2, gen3):
        (_, g1, d1), (_, g2, d2), (_, g3, _) = gen1, gen2, gen3
        res = ps.bracket(g1, ps.bracket(g2, g3)) \
            - ps.bracket(ps.bracket(g1, g2), g3)
        nested = ps.bracket(g2, ps.bracket(g1, g3))
        return res - nested if (d1 * d2) % 2 == 0 else res + nested

    for names, args in sweep((labels, gens, 2, combinations_with_replacement)):
        report.check("skew", names, skew, *args)
    for names, args in sweep((labels, gens, 3, combinations_with_replacement)):
        report.check("jacobi", names, jacobi, *args)

    agreement = check_selfdual2rep(rep, seed).passed == report.passed
    report.add("selfdual_agreement", agreement,
               witness="Jacobi verdict matches the axiom checker")
    return report


def is_symplectic(rep: SelfDual2Rep, title: str = "symplectic") -> CheckReport:
    report = CheckReport(title)
    p = rep.base_dim
    rb = rep.rank_b
    report.add("rank_matches_base", rb == p,
               witness=f"rank(B) = {rb}, base dimension = {p}")
    if rb == p:
        det = rep.algebroid.bundle.anchor.determinant()
        ok = det.is_constant() and det.constant_value() != 0
        report.add("anchor_invertible", ok, residual="" if ok else det.render())
    else:
        report.add("anchor_invertible", False, witness="anchor is not square")
    det_q = rep.partial_q.determinant()
    ok = det_q.is_constant() and det_q.constant_value() != 0
    report.add("pairing_invertible", ok, residual="" if ok else det_q.render())
    return report
