"""Self-dual 2-representations and the degree -2 graded Poisson bracket.

A self-dual 2-representation of a Lie algebroid B acts on a symmetric
complex partial_q : Q* -> Q; its graded Poisson manifold carries degree-1
coordinates tau (the Q* frame functions) and degree-2 coordinates b (the
B frame functions).

The bracket is a biderivation fixed by its values on the generators, so
{g, .} is a derivation of degree |g| - 2.  ``PoissonStructure`` keeps the
generator table and evaluates every bracket through the one graded
Leibniz rule, ``lie2.GradedDerivation.apply``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

from .exactpoly import PolyMatrix, PolyTensor
from .report import CheckReport, sweep, witness
from .bundle import (
    LieAlgebroidData, LinearConnection, TwoRepData, check_two_rep,
    curvature_matrix, unit_sections,
)
from .lie2 import GradedDerivation, GradedFunction, generators


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


def check_selfdual2rep(rep: SelfDual2Rep, seed: int = 0) -> CheckReport:
    """Symmetry of partial_q and antisymmetry of R_B on frame components,
    then the 2-representation checks of ``as_two_rep``.

    Its sampled entries all come from ``check_two_rep``, which settles
    them by its own argument; it assumes no label checked here.
    """
    report = CheckReport("self-dual 2-representation", seed)
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
    """Degree -2 Poisson bracket generated by a self-dual 2-representation.

    The bracket is the biderivation fixed by its generator table:
    ``table[a][c]`` = {g_a, g_c} over the generators x, then tau, then b
    (the order of ``lie2.generators``).  {g_a, v} = ``left[a].apply(v)``,
    where ``left[a]`` is the derivation of degree d_a - 2 whose images are
    row a.  {u, g_c} = ``with_generator(u, |u|, c)``, which applies the
    derivation ``right[c]`` of degree d_c - 2 whose images are
    (-1)^{d_h d_c} {g_h, g_c}.  The table is not assumed skew, so a broken
    structure keeps its own {u, g} and {g, u}.
    """

    def __init__(self, rep: SelfDual2Rep):
        self.p, self.rq, self.rb = rep.base_dim, rep.rank_q, rep.rank_b
        gens = generators(self.p, self.rq, self.rb)
        self.names = [name for name, _ in gens]
        self.degrees = [degree for _, degree in gens]
        self.table = self._generator_table(rep)
        self.left = [self._derivation(d - 2, row)
                     for d, row in zip(self.degrees, self.table)]
        self.right = [self._derivation(dc - 2, [
            -row[c] if dh * dc % 2 else row[c]
            for dh, row in zip(self.degrees, self.table)])
            for c, dc in enumerate(self.degrees)]

    def _gf(self, terms):
        return GradedFunction(self.p, self.rq, self.rb, terms)

    def _derivation(self, degree, images) -> GradedDerivation:
        """The derivation with the given images of x, tau, b in order."""
        p, rq = self.p, self.rq
        return GradedDerivation(p, rq, self.rb, degree, images[:p],
                                images[p:p + rq], images[p + rq:])

    def _generator_table(self, rep: SelfDual2Rep):
        p, rq, rb = self.p, self.rq, self.rb
        tau, b = range(p, p + rq), range(p + rq, p + rq + rb)
        table = [[self._gf({}) for _ in self.degrees] for _ in self.degrees]
        anchor, gamma_star = rep.algebroid.bundle.anchor, rep.nablaQstar().gamma
        frames_b = unit_sections(p, rb)
        for l in range(rb):
            for i in range(p):
                # {b_l, x_i} = rho_B(b_l)(x_i)
                table[b[l]][i] = self._gf({((), ()): anchor[i, l]})
            for j in range(rq):
                table[b[l]][tau[j]] = self._gf(
                    {((k,), ()): gamma_star[l][j][k] for k in range(rq)})
            for m in range(rb):
                # [b_l, b_m] minus the wedge function of R_B(b_l, b_m):
                # hom[t][s], the tau_t-component of the image of the s-th
                # frame, is the coefficient of tau_s tau_t for s < t
                bracket = rep.algebroid.bracket.apply(frames_b[l], frames_b[m])
                hom = rep.curv_matrix(frames_b[l], frames_b[m]).data
                value = {((), (r,)): bracket[r] for r in range(rb)}
                value.update({((s, t), ()): -hom[t][s]
                              for s, t in combinations(range(rq), 2)})
                table[b[l]][b[m]] = self._gf(value)
            for h in range(p + rq):
                # {x_i, b_l} and {tau_j, b_l}
                table[h][b[l]] = -table[b[l]][h]
        for i in range(rq):
            for j in range(rq):
                table[tau[i]][tau[j]] = \
                    self._gf({((), ()): rep.partial_q[j, i]})
        return table

    def with_generator(self, u: GradedFunction, degree: int, c: int
                       ) -> GradedFunction:
        """{u, g_c} for u homogeneous of the given degree."""
        value = self.right[c].apply(u)
        return -value if degree * self.degrees[c] % 2 else value


def check_graded_jacobi(rep: SelfDual2Rep, seed: int = 0) -> CheckReport:
    report = CheckReport("graded Jacobi identity", seed)
    ps = PoissonStructure(rep)
    table, deg = ps.table, ps.degrees
    gens = range(len(deg))

    def skew(a, b):
        res, flip = table[a][b], table[b][a]
        return res + flip if (deg[a] * deg[b]) % 2 == 0 else res - flip

    def jacobi(a, b, c):
        res = ps.left[a].apply(table[b][c]) \
            - ps.with_generator(table[a][b], deg[a] + deg[b] - 2, c)
        nested = ps.left[b].apply(table[a][c])
        return res - nested if (deg[a] * deg[b]) % 2 == 0 else res + nested

    for names, args in sweep((ps.names, gens, 2,
                              combinations_with_replacement)):
        report.check("skew", names, skew, *args)
    for names, args in sweep((ps.names, gens, 3,
                              combinations_with_replacement)):
        report.check("jacobi", names, jacobi, *args)

    agreement = check_selfdual2rep(rep, seed).passed == report.passed
    report.add("selfdual_agreement", agreement,
               witness="Jacobi verdict matches the axiom checker")
    return report


def is_symplectic(rep: SelfDual2Rep, seed: int = 0) -> CheckReport:
    report = CheckReport("symplectic", seed)
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
