"""(Degenerate) Courant algebroids over polynomial bases, constructions of
Dorfman 2-representations from them, the core Courant algebroid of a
matched pair, Dirac-structure checkers, and the Manin-pair quotient."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations_with_replacement, product

from .exactpoly import (
    Polynomial, PolyMatrix, PolyTensor, dot, rank,
)
from .report import CheckReport, sweep, witness
from .bundle import (
    AnchoredBundle, DullBracket, LieAlgebroidData, LinearConnection,
    connection_curvature, covariant_apply, field_apply, field_bracket, memo,
    section_add, section_neg, section_pair, section_smul, section_sub,
    unit_section, unit_sections, zero_section, DorfmanConnection,
)
from .lie2 import Dorfman2Rep
from .poisson import SelfDual2Rep
from .matched import LAPairData


# ---------------------------------------------------------------------------
# degenerate Courant algebroids


@dataclass
class DegenerateCourant:
    """Courant algebroid with a possibly degenerate pairing.

    bracket_comps[i][j] lists the components of the bracket of the i-th
    and j-th frames.  The bracket of arbitrary polynomial sections is
    extended by the Leibniz rule in the second slot and by
    [[f e1, e2]] = f [[e1, e2]] - rho(e2)(f) e1 + <e1, e2> Df
    in the first.  dmat columns give D applied to the coordinates:
    D f = sum_k (sum_m dmat[k][m] d_m f) e_k.
    """

    base_dim: int
    rank: int
    rho: PolyMatrix
    pairing: PolyMatrix
    bracket_comps: list
    dmat: PolyMatrix

    def __post_init__(self):
        p = self.base_dim
        if (self.rho.rows, self.rho.cols) != (p, self.rank):
            raise ValueError("anchor shape mismatch")
        if (self.pairing.rows, self.pairing.cols) != (self.rank, self.rank):
            raise ValueError("pairing shape mismatch")
        if (self.dmat.rows, self.dmat.cols) != (self.rank, p):
            raise ValueError("D-map shape mismatch")

    def rho_field(self, e):
        return self.rho.apply(e)

    def pair(self, e1, e2) -> Polynomial:
        """<e1, e2> = sum_i e1_i sum_j G_ij e2_j, with the zero skip and
        base dimension checks of ``dot``."""
        return dot(e1, self.pairing.apply(e2), self.base_dim)

    def dee(self, f: Polynomial):
        """D f: dmat applied to the gradient, each derivative taken once."""
        if f.base_dim != self.base_dim:
            raise ValueError("base dimension mismatch")
        return self.dmat.apply([f.diff(m) for m in range(self.base_dim)])

    def bracket(self, dee, e1, e2):
        """The frame bracket extended by Leibniz in the second slot, plus
        -rho(e2)(e1_i) e_i + <e_i, e2> D(e1_i) for the first, with D the
        callable dee (``self.dee`` or its memo).  The last term is added
        only where <e_i, e2> and the D component are both nonzero."""
        out = covariant_apply(self.rho_field(e1), self.bracket_comps, e1, e2)
        back = self.rho_field(e2)
        lowered = self.pairing.apply(e2)
        for i, f in enumerate(e1):
            if f.is_zero():
                continue
            out[i] = out[i] - field_apply(back, f)
            df = dee(f)
            if lowered[i].terms:
                for k, dk in enumerate(df):
                    if dk.terms:
                        out[k] = out[k] + lowered[i] * dk
        return out


def check_courant_axioms(ca: DegenerateCourant, seed: int = 0) -> CheckReport:
    """Axioms CA1-CA5, D-compatibility and rho D = 0 on frames, the
    coordinate functions and seeded random sections and functions.

    Settles (see ``report``).  The bracket obeys both Leibniz rules by
    construction and D is a derivation, so CA5 holds identically: each
    CA5 tuple is recorded as passed without evaluation
    (``tests/test_courant.py`` states the lemma).  CA4 is tensorial once
    rho_D_zero holds; CA3 once G_symmetric holds (it is then symmetric);
    D_compat is tensorial in e and a derivation in f, so the coordinates
    x_m suffice; CA2 is tensorial once G_symmetric and D_compat hold.
    With all of those, multiplying one slot of CA1 by f multiplies it by
    f up to terms <e, e'> K(e'', f), where K(e, f) = [[e, Df]] -
    D(rho(e) f) is tensorial in e and a derivation in f.  So CA1 also
    needs the pairing to be zero or K to vanish on frames and
    coordinates (K on frames).  K = 0 follows from CA2 when the pairing
    is nondegenerate; for a degenerate pairing it can fail while every
    frame entry passes, and then CA1's sampled tuples are evaluated.  So
    the frame tuples and coordinates and these premises prove a label's
    sampled tuples:
        D_compat <- (none)
        CA2      <- G_symmetric, D_compat
        CA3      <- G_symmetric
        CA4      <- rho_D_zero
        CA1      <- every label above, rho_D_zero, K on frames
    """
    report = CheckReport("Courant algebroid", seed)
    p, n = ca.base_dim, ca.rank
    pair, dee, rho_field = memo(ca.pair), memo(ca.dee), memo(ca.rho_field)
    bracket = memo(partial(ca.bracket, dee))

    sym = ca.pairing.add(ca.pairing.transpose().scale(-1))
    report.add("G_symmetric", sym.is_zero())

    frames = unit_sections(p, n)
    coords = [Polynomial.variable(p, m) for m in range(p)]
    secs = frames + report.draw(p, n, 2)
    funcs = coords + report.draw_functions(p, 1)

    def ca1(e1, e2, e3):
        return section_sub(
            bracket(e1, bracket(e2, e3)),
            section_add(bracket(bracket(e1, e2), e3),
                        bracket(e2, bracket(e1, e3))))

    def ca2(e1, e2, e3):
        return field_apply(rho_field(e1), pair(e2, e3)) \
            - pair(bracket(e1, e2), e3) \
            - pair(e2, bracket(e1, e3))

    def ca3(e1, e2):
        return section_sub(section_add(bracket(e1, e2), bracket(e2, e1)),
                           dee(pair(e1, e2)))

    def ca4(e1, e2):
        return section_sub(rho_field(bracket(e1, e2)),
                           field_bracket(rho_field(e1), rho_field(e2)))

    def d_compat(f, e):
        return pair(dee(f), e) - field_apply(rho_field(e), f)

    def k_on_frames():
        return ca.pairing.is_zero() or all(
            bracket(e, dee(x)) == dee(ca.rho[m, i])
            for i, e in enumerate(frames) for m, x in enumerate(coords))

    for names, es in sweep(("e", secs, 3, product)):
        report.check("CA1", names, ca1, *es)
        report.check("CA2", names, ca2, *es)

    for names, es in sweep(("e", secs, 2, combinations_with_replacement)):
        report.check("CA3", names, ca3, *es)
    for (n1, n2), (e1, e2) in sweep(("e", secs, 2, product)):
        report.check("CA4", (n1, n2), ca4, e1, e2)
        for (nf,), _ in sweep(("f", funcs)):
            report.add("CA5", True, witness((n1, nf, n2)))

    for names, args in sweep(("f", funcs), ("e", secs)):
        report.check("D_compat", names, d_compat, *args)
    report.add("rho_D_zero", ca.rho.matmul(ca.dmat).is_zero(),
               witness="rho composed with D")
    premises = {"D_compat": (), "CA2": ("G_symmetric", "D_compat"),
                "CA3": ("G_symmetric",), "CA4": ("rho_D_zero",)}
    premises["CA1"] = (*premises, "G_symmetric", "rho_D_zero", k_on_frames)
    return report.settle(premises)


# ---------------------------------------------------------------------------
# example classes


def quadratic_lie_algebra(p: int, comps, pairing: PolyMatrix
                          ) -> DegenerateCourant:
    """Courant algebroid over R^p with zero anchor and D: a Lie algebra
    bundle with an invariant pairing (invariance is the caller's CA2
    check)."""
    n = pairing.rows
    return DegenerateCourant(p, n, PolyMatrix(p, p, n), pairing, comps,
                             PolyMatrix(p, n, p))


def standard_courant(p: int) -> DegenerateCourant:
    """TM + T*M over R^p with the Dorfman bracket; frames are the
    coordinate fields followed by the coordinate differentials."""
    n = 2 * p
    frames = unit_sections(p, n)
    rho = PolyMatrix(p, p, n, frames[:p])
    pairing = PolyMatrix(p, n, n, frames[p:] + frames[:p])
    dmat = PolyMatrix(p, n, p, [zero_section(p, p)] * p
                      + unit_sections(p, p))
    comps = [[zero_section(p, n) for _ in range(n)] for _ in range(n)]
    return DegenerateCourant(p, n, rho, pairing, comps, dmat)


# ---------------------------------------------------------------------------
# Dorfman 2-representations from Courant algebroids and 2-representations


def adjoint_dorfman2rep(ca: DegenerateCourant, gamma) -> Dorfman2Rep:
    """Basic Dorfman 2-representation of a Courant algebroid with
    nondegenerate pairing and a metric TM-connection gamma[m][i][j]."""
    return _adjoint_and_inverse(ca, gamma)[0]


def _adjoint_and_inverse(ca: DegenerateCourant, gamma):
    """``adjoint_dorfman2rep`` and the inverse of the pairing it used."""
    p, n = ca.base_dim, ca.rank
    g_cols = ca.pairing.transpose().data
    for m in range(p):
        for i in range(n):
            for k in range(n):
                res = dot(gamma[m][i], g_cols[k], p) \
                    + dot(gamma[m][k], ca.pairing.data[i], p) \
                    - ca.pairing[i, k].diff(m)
                if not res.is_zero():
                    raise ValueError(
                        "connection is not metric: witness "
                        f"(d{m + 1}, e{i + 1}, e{k + 1})")
    try:
        ginv = ca.pairing.inverse_constant()
    except ValueError as exc:
        raise ValueError(f"pairing is not invertible: {exc}") from exc

    bundle = AnchoredBundle(p, n, ca.rho)
    partial_b = ca.rho.matmul(ginv)
    tm = AnchoredBundle(p, p, PolyMatrix.identity(p, p))
    nabla = LinearConnection(tm, n, gamma).apply

    frames = unit_sections(p, n)

    def delta_prime(e, s):
        """Delta'_e s = [[e, s]] + nabla_{rho(s)} e."""
        return section_add(ca.bracket(ca.dee, e, s),
                           nabla(ca.rho_field(s), e))

    def lower(s):
        """Transport E -> E* via the pairing."""
        return ca.pairing.apply(s)

    ginv_cols = ginv.transpose().data
    delta = DorfmanConnection(bundle, [
        [lower(delta_prime(e, col)) for col in ginv_cols] for e in frames])
    nabla_bas = LinearConnection(bundle, p, [
        [[dot(gamma[m][i], ca.rho.data[mp], p) - ca.rho[mp, i].diff(m)
          for mp in range(p)] for m in range(p)] for i in range(n)])

    coord_fields = unit_sections(p, p)

    def bracket_delta(e1, e2):
        alpha = [ca.pair(nabla(coord_fields[m], e1), e2)
                 for m in range(p)]
        pulled = ca.rho.transpose().apply(alpha)
        return section_sub(ca.bracket(ca.dee, e1, e2), ginv.apply(pulled))

    def nabla_bas_field(e, x):
        return section_add(field_bracket(ca.rho_field(e), x),
                           ca.rho_field(nabla(x, e)))

    def curv_row(i, j, m):
        e1, e2, x = frames[i], frames[j], coord_fields[m]
        val = section_neg(nabla(x, bracket_delta(e1, e2)))
        val = section_add(val, bracket_delta(nabla(x, e1), e2))
        val = section_add(val, bracket_delta(e1, nabla(x, e2)))
        val = section_add(val, nabla(nabla_bas_field(e2, x), e1))
        val = section_sub(val, nabla(nabla_bas_field(e1, x), e2))
        alpha = [ca.pair(connection_curvature(
            nabla, field_bracket, x, coord_fields[mp], e1), e2)
            for mp in range(p)]
        return lower(section_sub(
            val, ginv.apply(ca.rho.transpose().apply(alpha))))

    curv = Dorfman2Rep.curv_tensor(p, n, p).fill(curv_row)
    return Dorfman2Rep(bundle, p, partial_b, delta, nabla_bas, curv), ginv


def standard_dorfman2rep(dull: DullBracket) -> Dorfman2Rep:
    """Standard Dorfman 2-representation from a skew dull bracket on
    TM + E* anchored by the tangent projection; E has rank
    rank - base dim."""
    bundle = dull.bundle
    p = bundle.base_dim
    rq = bundle.rank
    rank_e = rq - p
    if rank_e < 0:
        raise ValueError("bundle rank is below the base dimension")
    frames = unit_sections(p, rq)
    expected = PolyMatrix(p, p, rq, frames[:p])
    if not bundle.anchor.add(expected.scale(-1)).is_zero():
        raise ValueError("anchor is not the tangent projection")
    if not dull.is_skew():
        raise ValueError("bracket is not skew-symmetric")
    for i in range(rq):
        for j in range(rq):
            for k in range(p):
                if not dull.comps[i][j][k].is_zero():
                    raise ValueError(
                        "tangent part of the bracket is not the Lie bracket: "
                        f"witness (v{i + 1}, v{j + 1})")

    partial_b = PolyMatrix(p, rank_e, rq, frames[p:])
    delta = DorfmanConnection.from_dull_bracket(dull)
    gamma = [[[delta.comps[i][p + j][p + k] for k in range(rank_e)]
              for j in range(rank_e)] for i in range(rq)]
    nabla = LinearConnection(bundle, rank_e, gamma)

    curv = Dorfman2Rep.curv_tensor(p, rq, rank_e).fill(
        lambda i, j, r: connection_curvature(
            delta.apply, dull.apply, frames[i], frames[j],
            unit_section(p, rq, p + r)))
    return Dorfman2Rep(bundle, rank_e, partial_b, delta, nabla, curv)


def semidirect_dorfman2rep(rep) -> Dorfman2Rep:
    """Dorfman 2-representation on Q = A + C* defined by a 2-term
    representation of A on partial: C -> B."""
    algA = rep.algebroid
    p = algA.bundle.base_dim
    ra = algA.bundle.rank
    rb, rc = rep.rank_b, rep.rank_c
    rq = ra + rc

    zero = Polynomial.zero(p)
    anchor = PolyMatrix(p, p, rq, [row + [zero] * rc
                                   for row in algA.bundle.anchor.data])
    bundle = AnchoredBundle(p, rq, anchor)
    partial_b = PolyMatrix(p, rb, rq, [[zero] * ra + row
                                       for row in rep.partial.data])

    gammaAC, bracketA = rep.connC.gamma, algA.bracket.comps

    def delta_row(i, j):
        """Delta_{q_i} of the j-th frame of Q* = A* + C.  Along a_i it is
        minus the transposed bracket of A on A* and the A-connection on
        C; along the i-th C*-frame it sends C into A* by minus the
        transposed connection; every other block is zero."""
        if i < ra and j < ra:
            return [-bracketA[i][k][j] for k in range(ra)] + [zero] * rc
        if i < ra:
            return [zero] * ra + gammaAC[i][j - ra]
        if j < ra:
            return [zero] * rq
        return [-gammaAC[k][j - ra][i - ra] for k in range(ra)] + [zero] * rc

    delta = DorfmanConnection(bundle, [[delta_row(i, j) for j in range(rq)]
                                       for i in range(rq)])
    nabla = LinearConnection(bundle, rb, rep.connB.gamma + [
        [[zero] * rb for _ in range(rb)] for _ in range(rc)])

    def curv_row(i, j, r):
        """R(q_i, q_j) b_r on the frames of Q* = A* + C: on a_i, a_j it
        is R_A(a_i, a_j) b_r in C; on a_i and the C*-frame c_n, its
        a_k-component is the c_n-component of R_A(a_i, a_k) b_r."""
        if j < ra:
            return [zero] * ra + [rep.curv.get(i, j, r, m)
                                  for m in range(rc)]
        if i < ra:
            return [rep.curv.get(i, k, r, j - ra)
                    for k in range(ra)] + [zero] * rc
        return [zero] * rq

    curv = Dorfman2Rep.curv_tensor(p, rq, rb).fill(curv_row)
    return Dorfman2Rep(bundle, rb, partial_b, delta, nabla, curv)


# ---------------------------------------------------------------------------
# core Courant algebroid of a matched pair


def core_courant(pair: LAPairData) -> DegenerateCourant:
    """Degenerate Courant algebroid inherited by the core Q* of a matched
    pair: anchor rho_Q partial_Q, pairing <tau1, partial_Q tau2>, bracket
    Delta_{partial_Q tau1} tau2 - nabla_{partial_B tau2} tau1, D = rho_Q* d."""
    S, D = pair.selfdual, pair.dorfman
    p = D.bundle.base_dim
    n = D.rank_q

    rho = D.bundle.anchor.matmul(S.partial_q)
    pairing = S.partial_q
    dmat = D.bundle.anchor.transpose()

    bracket = _core_bracket(pair)
    taus = unit_sections(p, n)
    comps = [[bracket(tau_i, tau_j) for tau_j in taus] for tau_i in taus]
    return DegenerateCourant(p, n, rho, pairing, comps, dmat)


def _core_bracket(pair: LAPairData):
    """The bracket Delta_{partial_Q tau1} tau2 - nabla*_{partial_B tau2}
    tau1 of two sections of the core Q*."""
    S, D = pair.selfdual, pair.dorfman
    nQstar = S.nablaQstar()
    return lambda t1, t2: section_sub(
        D.delta.apply(S.partial_q.apply(t1), t2),
        nQstar.apply(D.partial_b.apply(t2), t1))


def check_core_courant(pair: LAPairData, seed: int = 0) -> CheckReport:
    """The Courant axioms of the core (``check_courant_axioms``), then
    partial_B as a bracket morphism and [[D f, tau]] = 0, on frames, the
    coordinate functions and seeded random sections and functions.

    Settles (see ``report``).  exact_central is tensorial in tau once
    rho_D_zero holds, and a derivation in f once D_compat holds, so the
    coordinates x_m suffice.  partialB_bracket is tensorial in its second
    slot once partialB_anchor holds, and in its first once also
    <tau1, tau2> partial_B D f = 0, that is partial_B D = 0, which holds
    when the Dorfman half satisfies anchor_chain.  So the frame tuples
    and coordinates and these premises prove a label's sampled tuples:
        exact_central    <- rho_D_zero, D_compat
        partialB_bracket <- partialB_anchor, partial_B D = 0
    """
    ca = core_courant(pair)
    report = CheckReport("core Courant algebroid", seed)
    report.merge(check_courant_axioms(ca, seed))

    S, D = pair.selfdual, pair.dorfman
    p, n = ca.base_dim, ca.rank
    taus = unit_sections(p, n) + report.draw(p, n, 1)
    algB = S.algebroid
    dee, partial_b = memo(ca.dee), memo(D.partial_b.apply)
    bracket = memo(partial(ca.bracket, dee))

    def partialB_bracket(t1, t2):
        return section_sub(partial_b(bracket(t1, t2)),
                           algB.bracket.apply(partial_b(t1), partial_b(t2)))

    def exact_central(f, tau):
        return bracket(dee(f), tau)

    for names, args in sweep(("tau", taus, 2, product)):
        report.check("partialB_bracket", names, partialB_bracket, *args)
    res = algB.bundle.anchor.matmul(D.partial_b).add(ca.rho.scale(-1))
    report.add("partialB_anchor", res.is_zero(),
               witness="rho_B partial_B = rho_{Q*}")

    funcs = [Polynomial.variable(p, m) for m in range(p)] + \
        report.draw_functions(p, 1)
    for names, args in sweep(("f", funcs), ("tau", taus)):
        report.check("exact_central", names, exact_central, *args)
    return report.settle({
        "exact_central": ("rho_D_zero", "D_compat"),
        "partialB_bracket": ("partialB_anchor",
                             D.partial_b.matmul(ca.dmat).is_zero)})


def tangent_double_pair(ca: DegenerateCourant, gamma) -> LAPairData:
    """Matched pair encoding the tangent double of a Courant algebroid with
    nondegenerate pairing, split by a metric TM-connection gamma[m][i][j]."""
    dorfman, ginv = _adjoint_and_inverse(ca, gamma)
    p, n = ca.base_dim, ca.rank

    tm = AnchoredBundle(p, p, PolyMatrix.identity(p, p))
    algB = LieAlgebroidData(tm, DullBracket(tm, [
        [zero_section(p, p) for _ in range(p)] for _ in range(p)]))

    nablaQ = LinearConnection(tm, n, gamma)

    coord_fields = unit_sections(p, p)

    frames = unit_sections(p, n)
    curvB = SelfDual2Rep.curv_tensor(p, p, n).fill(
        lambda l, m, s: ca.pairing.apply(connection_curvature(
            nablaQ.apply, field_bracket, coord_fields[l], coord_fields[m],
            frames[s])))
    selfdual = SelfDual2Rep(algB, n, ginv, nablaQ, curvB)
    return LAPairData(selfdual, dorfman)


# ---------------------------------------------------------------------------
# Dirac structures


@dataclass
class DiracData:
    """Constant subbundles U of Q (columns of u_incl) and B' of B
    (columns of bprime_incl); the core part is fixed to the annihilator
    of U in Q*."""

    u_incl: PolyMatrix
    bprime_incl: PolyMatrix

    def __post_init__(self):
        u = self.u_incl.constant_rows()
        bp = self.bprime_incl.constant_rows()
        if rank(u) != self.u_incl.cols:
            raise ValueError("U inclusion matrix is not of full column rank")
        if rank(bp) != self.bprime_incl.cols:
            raise ValueError("B' inclusion matrix is not of full column rank")

    def check_fits(self, dorfman: Dorfman2Rep):
        """ValueError unless U has rank Q rows and B' rank B rows over
        the structure's base."""
        p = dorfman.bundle.base_dim
        for name, mat, rank in (("U", self.u_incl, dorfman.rank_q),
                                ("Bprime", self.bprime_incl, dorfman.rank_b)):
            if (mat.rows, mat.base_dim) != (rank, p):
                raise ValueError(f"dirac {name} needs {rank} rows over "
                                 f"base dimension {p}")

    def u_annihilator_basis(self) -> PolyMatrix:
        """Rows: a basis of the annihilator of U inside Q*; a section lies
        in U exactly when it pairs to zero with every row."""
        return self.u_incl.transpose().null_space()

    def bp_membership_rows(self) -> PolyMatrix:
        return self.bprime_incl.transpose().null_space()


def check_dirac(dorfman: Dorfman2Rep, selfdual, data: DiracData,
                mode: str = "vb_dirac", seed: int = 0) -> CheckReport:
    """Check the Dirac conditions for (U, B') in the given mode:
    vb_dirac, la_subalgebroid, or la_dirac (the union of both), on the
    columns of U and B' and on one sampled combination of each.

    Each tuple is recorded on operator values computed in its loop, so
    none is deferred and every one is evaluated; it settles with an
    empty premise table, which proves no label."""
    if mode not in ("vb_dirac", "la_subalgebroid", "la_dirac"):
        raise ValueError(f"unknown mode: {mode}")
    if mode in ("la_subalgebroid", "la_dirac") and selfdual is None:
        raise ValueError(f"mode {mode} requires the self-dual structure")
    data.check_fits(dorfman)
    p = dorfman.bundle.base_dim

    report = CheckReport(f"Dirac conditions ({mode})", seed)

    def sections_of(mat):
        """The columns of ``mat`` and, if it has any, their sum with
        drawn coefficients of degree at most 1."""
        cols = [[mat[i, a] for i in range(mat.rows)] for a in range(mat.cols)]
        if not cols:
            return cols
        mix = zero_section(p, mat.rows)
        for f, col in zip(report.draw_functions(p, len(cols), 1), cols):
            mix = section_add(mix, section_smul(f, col))
        return cols + [mix]

    bp_rows = data.bp_membership_rows()
    ann = data.u_annihilator_basis()
    ut_rows = data.u_incl.transpose()
    u_secs = sections_of(data.u_incl)
    bp_secs = sections_of(data.bprime_incl)

    if mode in ("vb_dirac", "la_dirac"):
        prefix = "vb:" if mode == "la_dirac" else ""
        bracket = dorfman.dual_bracket()
        for names, (tau,) in sweep(("core", ann.data)):
            report.check(prefix + "1_partial_into_Bprime", names,
                         bp_rows.apply, dorfman.partial_b.apply(tau))
        for names, (u, b) in sweep(("u", u_secs), ("b", bp_secs)):
            report.check(prefix + "2_nabla_preserves_Bprime", names,
                         bp_rows.apply, dorfman.nablaB.apply(u, b))
        for pair, (u1, u2) in sweep(("u", u_secs, 2, product)):
            report.check(prefix + "3_bracket_closes_in_U", pair,
                         ann.apply, bracket.apply(u1, u2))
            for names, (b,) in sweep(("b", bp_secs)):
                report.check(prefix + "4_curvature_into_annihilator",
                             pair + names, ut_rows.apply,
                             dorfman.curv_matrix(u1, u2).apply(b))
    if mode in ("la_subalgebroid", "la_dirac"):
        prefix = "la:" if mode == "la_dirac" else ""
        for names, (tau,) in sweep(("core", ann.data)):
            report.check(prefix + "1_partial_into_U", names,
                         ann.apply, selfdual.partial_q.apply(tau))
        for names, (b, u) in sweep(("b", bp_secs), ("u", u_secs)):
            report.check(prefix + "2_nabla_preserves_U", names,
                         ann.apply, selfdual.nablaQ.apply(b, u))
        for pair, (b1, b2) in sweep(("b", bp_secs, 2, product)):
            report.check(prefix + "3_bracket_closes_in_Bprime", pair,
                         bp_rows.apply,
                         selfdual.algebroid.bracket.apply(b1, b2))
            for names, (u,) in sweep(("u", u_secs)):
                report.check(prefix + "4_curvature_into_annihilator",
                             pair + names, ut_rows.apply,
                             selfdual.curv_matrix(b1, b2).apply(u))
    return report.settle({})


def induced_lie_algebroid_on_U(dorfman: Dorfman2Rep, data: DiracData
                               ) -> LieAlgebroidData:
    """Lie algebroid structure inherited by U from a VB-Dirac structure
    with full support."""
    data.check_fits(dorfman)
    d = data.u_incl.cols
    left = data.u_incl.left_inverse()
    u_rows = data.u_annihilator_basis()
    bracket = dorfman.dual_bracket()

    def frame_bracket(u1, u2):
        """The U-frame coordinates of [u1, u2]."""
        val = bracket.apply(u1, u2)
        if any(not r.is_zero() for r in u_rows.apply(val)):
            raise ValueError("bracket of U-frames does not close in U")
        return left.apply(val)

    anchor = dorfman.bundle.anchor.matmul(data.u_incl)
    bundle = AnchoredBundle(dorfman.bundle.base_dim, d, anchor)
    u_cols = data.u_incl.transpose().data
    return LieAlgebroidData(bundle, DullBracket(bundle, [
        [frame_bracket(u1, u2) for u2 in u_cols] for u1 in u_cols]))


# ---------------------------------------------------------------------------
# Manin pair


def manin_pair(pair: LAPairData, data: DiracData) -> DegenerateCourant:
    """Courant algebroid on (U + Q*) / graph(-partial_Q on the annihilator
    of U), realized on the basis U-frames + a coordinate complement of the
    annihilator in Q*: its first rank // 2 frames span U."""
    S, D = pair.selfdual, pair.dorfman
    data.check_fits(D)
    p = D.bundle.base_dim
    rq = D.rank_q
    if data.bprime_incl.cols != D.rank_b:
        raise ValueError("Manin pair requires full support B' = B")
    d = data.u_incl.cols

    ann = data.u_annihilator_basis()           # rq - d rows
    # deterministic coordinate complement of the annihilator in Q*: the
    # unit rows that stay independent of the annihilator and each other
    complement, span = [], ann.constant_rows()
    for k in range(rq):
        trial = span + [[int(i == k) for i in range(rq)]]
        if rank(trial) == len(trial):
            complement.append(k)
            span = trial

    # change of basis on Q*: columns are the complement vectors then the
    # annihilator basis; its inverse decomposes tau = c + upsilon
    units = unit_sections(p, rq)
    basis_inv = PolyMatrix(p, rq, rq, [units[k] for k in complement]
                           + ann.data).transpose().inverse_constant()
    ann_t = ann.transpose()
    u_left = data.u_incl.left_inverse()

    def reduce(u_sec, tau_sec):
        """Canonical representative of (u, tau) in the chosen basis;
        returns the 2d components."""
        coeffs = basis_inv.apply(tau_sec)
        c_part, w_part = coeffs[:d], coeffs[d:]
        u_new = section_add(u_sec, S.partial_q.apply(ann_t.apply(w_part)))
        if any(not r.is_zero() for r in ann.apply(u_new)):
            raise ValueError("quotient representative does not lie in U")
        return u_left.apply(u_new) + c_part

    def anchor_value(u, tau):
        return section_add(D.bundle.anchor.apply(u),
                           S.algebroid.bundle.anchor.apply(
                               D.partial_b.apply(tau)))

    def pairing_value(u1, t1, u2, t2):
        return section_pair(u1, t2) + section_pair(u2, t1) \
            + section_pair(t1, S.partial_q.apply(t2))

    nQ = S.nablaQ
    bracketU = D.dual_bracket()
    core_bracket = _core_bracket(pair)

    def full_bracket(u1, t1, u2, t2):
        u_out = bracketU.apply(u1, u2)
        u_out = section_add(u_out, nQ.apply(D.partial_b.apply(t1), u2))
        u_out = section_sub(u_out, nQ.apply(D.partial_b.apply(t2), u1))
        t_out = core_bracket(t1, t2)
        t_out = section_add(t_out, D.delta.apply(u1, t2))
        t_out = section_sub(t_out, D.delta.apply(u2, t1))
        t_out = section_add(t_out, D.bundle.anchor_pullback_d(
            section_pair(t1, u2)))
        return reduce(u_out, t_out)

    # basis sections of the quotient: the U-frames, then the complement
    zero = zero_section(p, rq)
    basis = [(u, zero) for u in data.u_incl.transpose().data] \
        + [(zero, units[k]) for k in complement]
    n = 2 * d
    rho = PolyMatrix(p, n, p, [anchor_value(*b) for b in basis]).transpose()
    pairing = PolyMatrix(p, n, n, [[pairing_value(*b1, *b2) for b2 in basis]
                                   for b1 in basis])
    comps = [[full_bracket(*b1, *b2) for b2 in basis] for b1 in basis]
    dmat = PolyMatrix(p, p, n, [
        reduce(zero, D.bundle.anchor_pullback_d(Polynomial.variable(p, m)))
        for m in range(p)]).transpose()
    return DegenerateCourant(p, n, rho, pairing, comps, dmat)


def check_manin_pair(ca: DegenerateCourant, seed: int = 0) -> CheckReport:
    """The Courant axioms of ``manin_pair``'s output, then nondegeneracy
    and that U, its first rank // 2 frames, is isotropic and closed under
    the bracket."""
    report = CheckReport("Manin pair", seed)
    report.merge(check_courant_axioms(ca, seed))
    det = ca.pairing.determinant()
    report.add("pairing_nondegenerate",
               det.is_constant() and det.constant_value() != 0,
               residual="" if det.is_constant() else det.render())
    d = ca.rank // 2
    iso = all(ca.pairing[i, j].is_zero() for i in range(d) for j in range(d))
    report.add("U_isotropic", iso)
    closed = all(ca.bracket_comps[i][j][k].is_zero()
                 for i in range(d) for j in range(d)
                 for k in range(d, ca.rank))
    report.add("U_bracket_closed", closed)
    return report


# ---------------------------------------------------------------------------
# splitting change on the self-dual side


def selfdual_change_splitting(rep: SelfDual2Rep, phi: PolyTensor,
                              sign: int = 1) -> SelfDual2Rep:
    """Shift a self-dual 2-representation by the 2-form phi on Q with
    values in B* (indices (i, j, r)), matching the splitting change of the
    Dorfman side: Phi(b) in Hom(Q, Q*) with
    <Phi(b) q1, q2> = sign * <phi(q1, q2), b>."""
    p = rep.base_dim
    rq, rb = rep.rank_q, rep.rank_b

    phi_mats = [PolyMatrix(p, rq, rq, [[phi.get(s, t, l).scale(sign)
                                        for s in range(rq)]
                                       for t in range(rq)])
                for l in range(rb)]
    dq_phi = [rep.partial_q.matmul(m) for m in phi_mats]

    gamma = [[[rep.nablaQ.gamma[l][s][k] + dq_phi[l][k, s]
               for k in range(rq)] for s in range(rq)] for l in range(rb)]
    nablaQ2 = LinearConnection(rep.algebroid.bundle, rq, gamma)

    frames_b = unit_sections(p, rb)
    nQ = rep.nablaQ
    nQstar = rep.nablaQstar()

    def phi_apply(l, sec):
        return phi_mats[l].apply(sec)

    def curv_row(l, m, s):
        b1, b2 = frames_b[l], frames_b[m]
        q = unit_section(p, rq, s)
        val = [rep.curvB.get(l, m, s, t) for t in range(rq)]
        # covariant differential of Phi
        val = section_add(val, nQstar.apply(b1, phi_apply(m, q)))
        val = section_sub(val, phi_apply(m, nQ.apply(b1, q)))
        val = section_sub(val, nQstar.apply(b2, phi_apply(l, q)))
        val = section_add(val, phi_apply(l, nQ.apply(b2, q)))
        for r, coeff in enumerate(rep.algebroid.bracket.comps[l][m]):
            if not coeff.is_zero():
                val = section_sub(val, section_smul(coeff, phi_apply(r, q)))
        # quadratic correction
        val = section_add(val, phi_mats[l].apply(
            rep.partial_q.apply(phi_apply(m, q))))
        return section_sub(val, phi_mats[m].apply(
            rep.partial_q.apply(phi_apply(l, q))))

    curv2 = SelfDual2Rep.curv_tensor(p, rb, rq).fill(curv_row)
    return SelfDual2Rep(rep.algebroid, rq, rep.partial_q, nablaQ2, curv2)
