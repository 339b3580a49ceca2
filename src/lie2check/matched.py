"""Matched pairs of 2-representations and of a Lie 2-algebroid with a
self-dual 2-representation, plus the bicrossproduct construction."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations, combinations_with_replacement

from .exactpoly import PolyMatrix, PolyTensor
from .report import CheckReport, sweep
from .bundle import (
    AnchoredBundle, DullBracket, LieAlgebroidData, LinearConnection,
    TwoRepData, check_two_rep, curvature_matrix, field_apply, field_bracket,
    koszul, memo, section_add, section_neg, section_pair, section_sub,
    unit_sections, zero_section,
)
from .lie2 import Dorfman2Rep, SplitLie2Data, build_homological_field
from .poisson import PoissonStructure, SelfDual2Rep


# ---------------------------------------------------------------------------
# matched pairs of 2-term representations


@dataclass
class MatchedPair2Reps:
    """Two Lie algebroids A and B acting on each other up to homotopy,
    through the complexes partial_a : C -> A and partial_b : C -> B.

    curvAB holds R_AB(a_i, a_j) as a Hom(B, C) block; curvBA holds
    R_BA(b_i, b_j) as a Hom(A, C) block.
    """

    algA: LieAlgebroidData
    algB: LieAlgebroidData
    rank_c: int
    partialA: PolyMatrix
    partialB: PolyMatrix
    nablaAB: LinearConnection
    nablaAC: LinearConnection
    nablaBA: LinearConnection
    nablaBC: LinearConnection
    curvAB: PolyTensor
    curvBA: PolyTensor

    @classmethod
    def curv_tensor(cls, base_dim, rank_x, rank_y, rank_c) -> PolyTensor:
        """R_XY(x_i, x_j) as a Hom(Y, C) block: the curvature layout of
        the 2-representation of X on Y -> C."""
        return TwoRepData.curv_tensor(base_dim, rank_x, rank_y, rank_c)

    @property
    def rank_a(self):
        return self.algA.bundle.rank

    @property
    def rank_b(self):
        return self.algB.bundle.rank

    @property
    def base_dim(self):
        return self.algA.bundle.base_dim

    def two_rep_of_A(self) -> TwoRepData:
        return TwoRepData(self.algA, self.rank_b, self.rank_c, self.partialB,
                          self.nablaAB, self.nablaAC, self.curvAB)

    def two_rep_of_B(self) -> TwoRepData:
        return TwoRepData(self.algB, self.rank_a, self.rank_c, self.partialA,
                          self.nablaBA, self.nablaBC, self.curvBA)


def _derivation_defect(d, curv, conn, back, bracket, x1, x2, y):
    """d R(x1, x2) y - rhs, where
        rhs = -nabla_y [x1, x2] + [nabla_y x1, x2] + [x1, nabla_y x2]
              + nabla_{back(x2, y)} x1 - nabla_{back(x1, y)} x2
    measures how far nabla_y fails to be a derivation of the bracket on
    X; conn(y, x) = nabla_y x, back is the connection the other way and
    curv(x1, x2) is the Hom(Y, C) matrix of R, all the checker's
    callables.  Conditions (5) and (6) of a matched pair of
    2-representations and (M3) and (M4) of a matched Lie 2-algebroid
    pair state that it vanishes, (M4) up to one more term."""
    rhs = section_neg(conn(y, bracket(x1, x2)))
    rhs = section_add(rhs, bracket(conn(y, x1), x2))
    rhs = section_add(rhs, bracket(x1, conn(y, x2)))
    rhs = section_add(rhs, conn(back(x2, y), x1))
    rhs = section_sub(rhs, conn(back(x1, y), x2))
    return section_sub(d(curv(x1, x2).apply(y)), rhs)


def _curvature_differential(curv, conn_c, conn, bracket, x1, x2, y1, y2):
    """(d_nabla R)(x1, x2) at (y1, y2), for the curvature R(y1, y2) in
    Hom(X, C), a C-valued 1-form on X: nabla acts along X on C (conn_c),
    on Y (conn) and on X through the bracket; the callables are the
    checker's."""
    def along(x, secs):
        (xx,) = secs
        term = conn_c(x, curv(y1, y2).apply(xx))
        term = section_sub(term, curv(conn(x, y1), y2).apply(xx))
        return section_sub(term, curv(y1, conn(x, y2)).apply(xx))

    return koszul(lambda secs: curv(y1, y2).apply(secs[0]), along, bracket,
                  [x1, x2])


def check_matched_two_reps(pair: MatchedPair2Reps,
                           seed: int = 0) -> CheckReport:
    """Both 2-representations (``check_two_rep``), then conditions (1)-(7)
    and the anchor identities on frames and seeded random sections.

    Settles (see ``report``).  Brackets and connections are Leibniz
    extensions and the partials and curvatures are tensors.  Then
    anchor_mixed is tensorial; conditions 1-3 are tensorial once
    anchor_chain holds (1 is symmetric); condition 4 is tensorial once
    anchor_mixed holds; conditions 5 and 6 are tensorial once
    anchor_mixed holds and the bracket of A (of B) is skew, which makes
    them alternating; condition 7 is tensorial and, with both brackets
    skew, alternating in each pair.  Skewness is 2rep_A:algebroid:skew
    and 2rep_B:algebroid:skew.  So the frame tuples, pairs taken
    increasing, and these premises prove a label's sampled tuples:
        anchor_mixed  <- (none)
        condition_1-3 <- anchor_chain
        condition_4   <- anchor_mixed
        condition_5   <- anchor_mixed, 2rep_A:algebroid:skew
        condition_6   <- anchor_mixed, 2rep_B:algebroid:skew
        condition_7   <- 2rep_A:algebroid:skew, 2rep_B:algebroid:skew
    """
    report = CheckReport("matched pair of 2-representations", seed)
    report.merge(check_two_rep(pair.two_rep_of_A(), seed), prefix="2rep_A:")
    report.merge(check_two_rep(pair.two_rep_of_B(), seed), prefix="2rep_B:")

    p = pair.base_dim
    ra, rb, rc = pair.rank_a, pair.rank_b, pair.rank_c
    a_secs = unit_sections(p, ra) + report.draw(p, ra, 1)
    b_secs = unit_sections(p, rb) + report.draw(p, rb, 1)
    c_secs = unit_sections(p, rc) + report.draw(p, rc, 1)

    dA = memo(pair.partialA.apply)
    dB = memo(pair.partialB.apply)
    nAB, nAC = memo(pair.nablaAB.apply), memo(pair.nablaAC.apply)
    nBA, nBC = memo(pair.nablaBA.apply), memo(pair.nablaBC.apply)
    brA = memo(pair.algA.bracket.apply)
    brB = memo(pair.algB.bracket.apply)
    curvAB = memo(partial(curvature_matrix, pair.curvAB))
    curvBA = memo(partial(curvature_matrix, pair.curvBA))

    # (1) symmetric part of the C-bracket candidate vanishes
    def condition_1(c1, c2):
        res = section_sub(nAC(dA(c1), c2), nBC(dB(c2), c1))
        return section_add(res, section_sub(nAC(dA(c2), c1),
                                            nBC(dB(c1), c2)))

    # (2) [a, partial_A c] = partial_A(nabla_a c) - nabla_{partial_B c} a
    def condition_2(a, c):
        return section_sub(brA(a, dA(c)),
                           section_sub(dA(nAC(a, c)), nBA(dB(c), a)))

    # (3) [b, partial_B c] = partial_B(nabla_b c) - nabla_{partial_A c} b
    def condition_3(b, c):
        return section_sub(brB(b, dB(c)),
                           section_sub(dB(nBC(b, c)), nAB(dA(c), b)))

    # (4) mixed flatness up to both curvatures
    def condition_4(a, b, c):
        lhs = section_sub(nBC(b, nAC(a, c)), nAC(a, nBC(b, c)))
        lhs = section_sub(lhs, nAC(nBA(b, a), c))
        lhs = section_add(lhs, nBC(nAB(a, b), c))
        rhs = section_sub(curvBA(b, dB(c)).apply(a),
                          curvAB(a, dA(c)).apply(b))
        return section_sub(lhs, rhs)

    # (5) partial_A of R_AB measures the failure of nabla_b as a
    # derivation, and (6) its mirror
    condition_5 = partial(_derivation_defect, dA, curvAB, nBA, nAB, brA)
    condition_6 = partial(_derivation_defect, dB, curvBA, nAB, nBA, brB)

    # (7) the two covariant differentials of the curvatures agree
    def condition_7(a1, a2, b1, b2):
        return section_sub(
            _curvature_differential(curvBA, nAC, nAB, brA, a1, a2, b1, b2),
            _curvature_differential(curvAB, nBC, nBA, brB, b1, b2, a1, a2))

    # derived identities
    def anchor_mixed(a, b):
        lhs = field_bracket(pair.algA.bundle.anchor_field(a),
                            pair.algB.bundle.anchor_field(b))
        rhs = section_sub(pair.algB.bundle.anchor_field(nAB(a, b)),
                          pair.algA.bundle.anchor_field(nBA(b, a)))
        return section_sub(lhs, rhs)

    for names, args in sweep(("c", c_secs, 2, combinations_with_replacement)):
        report.check("condition_1", names, condition_1, *args)
    for names, args in sweep(("a", a_secs), ("c", c_secs)):
        report.check("condition_2", names, condition_2, *args)
    for names, args in sweep(("b", b_secs), ("c", c_secs)):
        report.check("condition_3", names, condition_3, *args)
    for names, args in sweep(("a", a_secs), ("b", b_secs), ("c", c_secs)):
        report.check("condition_4", names, condition_4, *args)
    for names, args in sweep(("a", a_secs, 2, combinations), ("b", b_secs)):
        report.check("condition_5", names, condition_5, *args)
    for names, args in sweep(("b", b_secs, 2, combinations), ("a", a_secs)):
        report.check("condition_6", names, condition_6, *args)
    for names, args in sweep(("a", a_secs, 2, combinations),
                             ("b", b_secs, 2, combinations)):
        report.check("condition_7", names, condition_7, *args)

    res = pair.algA.bundle.anchor.matmul(pair.partialA).add(
        pair.algB.bundle.anchor.matmul(pair.partialB).scale(-1))
    report.add("anchor_chain", res.is_zero(),
               witness="rho_A partial_A = rho_B partial_B")
    for names, args in sweep(("a", a_secs), ("b", b_secs)):
        report.check("anchor_mixed", names, anchor_mixed, *args)
    chained = ("anchor_chain",)
    skew_a, skew_b = "2rep_A:algebroid:skew", "2rep_B:algebroid:skew"
    return report.settle({
        "anchor_mixed": (), "condition_1": chained, "condition_2": chained,
        "condition_3": chained, "condition_4": ("anchor_mixed",),
        "condition_5": ("anchor_mixed", skew_a),
        "condition_6": ("anchor_mixed", skew_b),
        "condition_7": (skew_a, skew_b)})


# ---------------------------------------------------------------------------
# bicrossproduct


def bicrossproduct(pair: MatchedPair2Reps) -> SplitLie2Data:
    """Split Lie 2-algebroid on (A + B)[1] + C*[2] from a matched pair."""
    p = pair.base_dim
    ra, rb, rc = pair.rank_a, pair.rank_b, pair.rank_c
    rq = ra + rb

    anchor = PolyMatrix(p, p, rq, [a + b for a, b in zip(
        pair.algA.bundle.anchor.data, pair.algB.bundle.anchor.data)])
    Q = AnchoredBundle(p, rq, anchor)
    # l1 = (-partial_A) + partial_B : C -> A + B
    l1 = PolyMatrix(p, rq, rc, [[-e for e in row]
                                for row in pair.partialA.data]
                    + pair.partialB.data)

    frames_a, frames_b = unit_sections(p, ra), unit_sections(p, rb)

    def cross(a, b):
        """[a, b] = nabla_a b - nabla_b a and [b, a] = -[a, b], with each
        connection applied once."""
        grad_b, grad_a = pair.nablaAB.apply(a, b), pair.nablaBA.apply(b, a)
        return section_neg(grad_a) + grad_b, grad_a + section_neg(grad_b)

    crosses = [[cross(a, b) for b in frames_b] for a in frames_a]
    compsA, compsB = pair.algA.bracket.comps, pair.algB.bracket.comps
    zero_a, zero_b = zero_section(p, ra), zero_section(p, rb)
    bracket = DullBracket(Q, [
        [compsA[i][j] + zero_b for j in range(ra)]
        + [crosses[i][j][0] for j in range(rb)] for i in range(ra)] + [
        [crosses[j][i][1] for j in range(ra)]
        + [zero_a + compsB[i][j] for j in range(rb)] for i in range(rb)])

    # connection of Q on C*: dual of nabla^{AC} + nabla^{BC}
    nabla = LinearConnection(Q, rc, pair.nablaAC.dual().gamma +
                             pair.nablaBC.dual().gamma)

    def part_a(idx):
        return frames_a[idx] if idx < ra else zero_section(p, ra)

    def part_b(idx):
        return frames_b[idx - ra] if idx >= ra else zero_section(p, rb)

    curvAB = partial(curvature_matrix, pair.curvAB)
    curvBA = partial(curvature_matrix, pair.curvBA)

    def l3_row(i, j, k):
        """l3(q_i, q_j, q_k) from both curvature tensors, values in C."""
        a1, a2, a3 = part_a(i), part_a(j), part_a(k)
        b1, b2, b3 = part_b(i), part_b(j), part_b(k)
        val = curvAB(a1, a2).apply(b3)
        val = section_add(val, curvAB(a2, a3).apply(b1))
        val = section_add(val, curvAB(a3, a1).apply(b2))
        val = section_sub(val, curvBA(b1, b2).apply(a3))
        val = section_sub(val, curvBA(b2, b3).apply(a1))
        return section_sub(val, curvBA(b3, b1).apply(a2))

    return SplitLie2Data(Q, rc, l1, bracket, nabla,
                         SplitLie2Data.l3_tensor(p, rq, rc).fill(l3_row))


def decompose_bicrossproduct(split: SplitLie2Data, rank_a: int
                             ) -> MatchedPair2Reps:
    """Recover the matched pair from a bicrossproduct-shaped split Lie
    2-algebroid whose underlying bundle splits as A + B after the first
    rank_a frames.  Raises ValueError naming the violated precondition."""
    p = split.bundle.base_dim
    rq, rc = split.rank_q, split.rank_b
    ra = rank_a
    rb = rq - ra
    comps = split.bracket.comps

    if any(not comps[i][j][k].is_zero() for i in range(ra)
           for j in range(ra) for k in range(ra, rq)):
        raise ValueError("pure A-frame brackets do not close in A")
    if any(not comps[i][j][k].is_zero() for i in range(ra, rq)
           for j in range(ra, rq) for k in range(ra)):
        raise ValueError("pure B-frame brackets do not close in B")
    # stored keys (i, j, k, m) are canonical (i < j < k) and nonzero
    if any(k < ra for _, _, k, _ in split.l3.entries):
        raise ValueError("l3 does not vanish on pure A-frame triples")
    if any(i >= ra for i, _, _, _ in split.l3.entries):
        raise ValueError("l3 does not vanish on pure B-frame triples")

    anchor = split.bundle.anchor.data
    bundleA = AnchoredBundle(p, ra, PolyMatrix(p, p, ra,
                                               [row[:ra] for row in anchor]))
    bundleB = AnchoredBundle(p, rb, PolyMatrix(p, p, rb,
                                               [row[ra:] for row in anchor]))

    compsA = [[[comps[i][j][k] for k in range(ra)] for j in range(ra)]
              for i in range(ra)]
    compsB = [[[comps[ra + i][ra + j][ra + k] for k in range(rb)]
               for j in range(rb)] for i in range(rb)]
    algA = LieAlgebroidData(bundleA, DullBracket(bundleA, compsA))
    algB = LieAlgebroidData(bundleB, DullBracket(bundleB, compsB))

    partialA = PolyMatrix(p, ra, rc, [[-e for e in row]
                                      for row in split.l1.data[:ra]])
    partialB = PolyMatrix(p, rb, rc, split.l1.data[ra:])

    gammaAB = [[[comps[i][ra + j][ra + k] for k in range(rb)]
                for j in range(rb)] for i in range(ra)]
    gammaBA = [[[comps[ra + j][i][k] for k in range(ra)] for i in range(ra)]
               for j in range(rb)]
    nablaAB = LinearConnection(bundleA, rb, gammaAB)
    nablaBA = LinearConnection(bundleB, ra, gammaBA)

    # split.nablaB is the Q-connection on C*; its dual acts on C
    gammaC = split.nablaB.dual().gamma
    nablaAC = LinearConnection(bundleA, rc, gammaC[:ra])
    nablaBC = LinearConnection(bundleB, rc, gammaC[ra:])

    curvAB = MatchedPair2Reps.curv_tensor(p, ra, rb, rc).fill(
        lambda i, j, r: [split.l3.get(i, j, ra + r, m) for m in range(rc)])
    curvBA = MatchedPair2Reps.curv_tensor(p, rb, ra, rc).fill(
        lambda i, j, r: [-split.l3.get(ra + i, ra + j, r, m)
                         for m in range(rc)])

    return MatchedPair2Reps(algA, algB, rc, partialA, partialB,
                            nablaAB, nablaAC, nablaBA, nablaBC,
                            curvAB, curvBA)


# ---------------------------------------------------------------------------
# matched pair of a Lie 2-algebroid with a self-dual 2-representation


@dataclass
class LAPairData:
    """A Dorfman 2-representation of Q on partial_b : Q* -> B matched with
    a self-dual 2-representation of B on partial_q : Q* -> Q.

    Component structures are assumed individually valid; this pairing
    data feeds the matched-pair conditions (M1)-(M5).
    """

    selfdual: SelfDual2Rep
    dorfman: Dorfman2Rep

    def __post_init__(self):
        if self.selfdual.rank_q != self.dorfman.rank_q:
            raise ValueError("Q-rank mismatch between the two structures")
        if self.selfdual.rank_b != self.dorfman.rank_b:
            raise ValueError("B-rank mismatch between the two structures")
        if self.selfdual.base_dim != self.dorfman.bundle.base_dim:
            raise ValueError("base dimension mismatch")


def check_la_matched_pair(pair: LAPairData, seed: int = 0) -> CheckReport:
    """Conditions (M1)-(M5), their equivalent forms and the anchor
    identities on frames and seeded random sections.

    Settles (see ``report``).  The brackets, connections and Delta are
    Leibniz extensions, and partial_Q, partial_B and the curvatures are
    tensors.  Then anchor_mixed is tensorial; M2 is tensorial once
    anchor_chain holds, and M1 and almost_C once also partial_Q is
    symmetric (almost_C is then symmetric); LC10 is tensorial once
    anchor_mixed holds; M3 is tensorial once anchor_mixed holds and
    alternating once B's bracket is skew; M4 is tensorial once
    anchor_mixed holds and alternating once Q's bracket is skew and R_B
    antisymmetric; M5 and M5_expanded are tensorial once R_B is
    antisymmetric, and alternating in the B-pair once B's bracket is skew
    and in the Q-slots once Q's bracket is skew (M5 also needs D5).  The
    shape conditions of the two halves are not checked in this report, so
    they are predicates: skew of the self-dual half (B skew), D2 and D5
    of the Dorfman half (Q skew, D5), and partial_symmetric and
    curv_antisymmetric of the self-dual half (partial_Q symmetric, R_B
    antisymmetric).  So the frame tuples, pairs and triples taken
    increasing, and these premises prove a label's sampled tuples:
        anchor_mixed <- (none)
        M2           <- anchor_chain
        M1, almost_C <- anchor_chain, partial_Q symmetric
        LC10         <- anchor_mixed
        M3           <- anchor_mixed, B skew
        M4           <- anchor_mixed, Q skew, R_B antisymmetric
        M5           <- R_B antisymmetric, B skew, Q skew, D5
        M5_expanded  <- R_B antisymmetric, B skew, Q skew
    M5_agreement compares the settled verdicts.  Without partial_Q
    symmetric, M1 and almost_C can fail on sampled tuples while every
    frame entry passes and both brackets are skew
    (``tests/test_settle.py``).
    """
    report = CheckReport("matched Lie 2-algebroid pair", seed)
    S, D = pair.selfdual, pair.dorfman
    p = D.bundle.base_dim
    rq, rb = D.rank_q, D.rank_b
    bracket_q = D.dual_bracket()

    q_frames, b_frames = unit_sections(p, rq), unit_sections(p, rb)
    q_secs = q_frames + report.draw(p, rq, 1)
    tau_secs = unit_sections(p, rq) + report.draw(p, rq, 1)
    b_secs = b_frames + report.draw(p, rb, 1)

    dQ = memo(S.partial_q.apply)
    dB = memo(D.partial_b.apply)
    dBstar = memo(D.partial_b.transpose().apply)    # partial_B^*
    delta = memo(D.delta.apply)
    nB = memo(D.nablaB.apply)                 # Q-connection on B
    nQ = memo(S.nablaQ.apply)                 # B-connection on Q
    nQstar = memo(S.nablaQstar().apply)       # B-connection on Q*
    brQ = memo(bracket_q.apply)
    brB = memo(S.algebroid.bracket.apply)
    RQ = memo(D.curv_matrix)                  # Hom(B, Q*)
    RB = memo(S.curv_matrix)                  # Hom(Q, Q*)

    # (M1)
    def m1(q, tau):
        res = dQ(delta(q, tau))
        res = section_sub(res, nQ(dB(tau), q))
        res = section_sub(res, brQ(q, dQ(tau)))
        contraction = [section_pair(tau, nQ(b_frames[r], q))
                       for r in range(rb)]
        return section_sub(res, dBstar(contraction))

    # (M2)
    def m2(b, tau):
        res = dB(nQstar(b, tau))
        res = section_sub(res, brB(b, dB(tau)))
        return section_sub(res, nB(dQ(tau), b))

    # (M3), and (M4) with the partial_B^* of an R_B contraction
    m3 = partial(_derivation_defect, dB, RB, nB, nQ, brB)

    def m4(q1, q2, b):
        contraction = [section_pair(RB(b_frames[r], b).apply(q1), q2)
                       for r in range(rb)]
        return section_sub(_derivation_defect(dQ, RQ, nQ, nB, brQ, q1, q2, b),
                           dBstar(contraction))

    # (M5): the two covariant differentials agree as scalars on
    # (b1, b2; q1, q2, q3)
    def omega_r(qa, qb, qc, b):
        return section_pair(RQ(qa, qb).apply(b), qc)

    def omega_b(qa, qb, b1, b2):
        return section_pair(RB(b1, b2).apply(qa), qb)

    def m5(b1, b2, *qs):
        # d_B of the 1-form b -> omega_R(qs)(b) on B, with the
        # covariant derivative moving the Q-slots along b
        def cov_b(b, secs):
            out = field_apply(S.algebroid.bundle.anchor_field(b),
                              omega_r(*qs, secs[0]))
            for m in range(3):
                shifted = list(qs)
                shifted[m] = nQ(b, qs[m])
                out = out - omega_r(*shifted, secs[0])
            return [out]

        # d_Q of the 2-form (qa, qb) -> omega_B(qa, qb, b1, b2), with the
        # covariant derivative moving b1 and b2 along q
        def cov_q(q, secs):
            out = field_apply(D.bundle.anchor_field(q), omega_b(*secs, b1, b2))
            out = out - omega_b(*secs, nB(q, b1), b2)
            out = out - omega_b(*secs, b1, nB(q, b2))
            return [out]

        (lhs,) = koszul(lambda secs: [omega_r(*qs, secs[0])], cov_b, brB,
                        [b1, b2])
        (rhs,) = koszul(lambda secs: [omega_b(*secs, b1, b2)], cov_q, brQ,
                        list(qs))
        return lhs - rhs

    # (M5) in the expanded componentwise form
    def m5_expanded(b1, b2, q1, q2):
        lhs = nQstar(b2, RQ(q1, q2).apply(b1))
        lhs = section_sub(lhs, nQstar(b1, RQ(q1, q2).apply(b2)))
        lhs = section_add(lhs, RQ(q1, q2).apply(brB(b1, b2)))
        lhs = section_add(lhs, RQ(nQ(b1, q1), q2).apply(b2))
        lhs = section_add(lhs, RQ(q1, nQ(b1, q2)).apply(b2))
        lhs = section_sub(lhs, RQ(nQ(b2, q1), q2).apply(b1))
        lhs = section_sub(lhs, RQ(q1, nQ(b2, q2)).apply(b1))
        lhs = section_add(lhs, delta(q1, RB(b1, b2).apply(q2)))
        lhs = section_sub(lhs, delta(q2, RB(b1, b2).apply(q1)))
        lhs = section_sub(lhs, RB(b1, b2).apply(brQ(q1, q2)))
        lhs = section_sub(lhs, RB(nB(q1, b1), b2).apply(q2))
        lhs = section_sub(lhs, RB(b1, nB(q1, b2)).apply(q2))
        lhs = section_add(lhs, RB(nB(q2, b1), b2).apply(q1))
        lhs = section_add(lhs, RB(b1, nB(q2, b2)).apply(q1))
        rhs = [section_pair(
            section_add(RB(b1, nB(q_frames[k], b2)).apply(q1),
                        RB(nB(q_frames[k], b1), b2).apply(q1)), q2)
            for k in range(rq)]
        rhs = section_sub(rhs, D.bundle.anchor_pullback_d(
            section_pair(RB(b1, b2).apply(q1), q2)))
        return section_sub(lhs, rhs)

    # equivalent forms, which must agree with the primary entries
    def almost_c(s1, s2):
        res = section_sub(delta(dQ(s1), s2), nQstar(dB(s2), s1))
        res = section_add(res, section_sub(delta(dQ(s2), s1),
                                           nQstar(dB(s1), s2)))
        return section_sub(res, D.bundle.anchor_pullback_d(
            section_pair(s1, dQ(s2))))

    def lc10(q, tau, b):
        lhs = section_sub(RQ(q, dQ(tau)).apply(b),
                          RB(b, dB(tau)).apply(q))
        rhs = section_sub(delta(q, nQstar(b, tau)),
                          nQstar(b, delta(q, tau)))
        rhs = section_add(rhs, delta(nQ(b, q), tau))
        rhs = section_sub(rhs, nQstar(nB(q, b), tau))
        corr = [section_pair(nQ(nB(q_frames[k], b), q), tau)
                for k in range(rq)]
        return section_sub(lhs, section_sub(rhs, corr))

    # derived anchor identity
    def anchor_mixed(q, b):
        lhs = field_bracket(D.bundle.anchor_field(q),
                            S.algebroid.bundle.anchor_field(b))
        rhs = section_sub(S.algebroid.bundle.anchor_field(nB(q, b)),
                          D.bundle.anchor_field(nQ(b, q)))
        return section_sub(lhs, rhs)

    for names, args in sweep(("q", q_secs), ("tau", tau_secs)):
        report.check("M1", names, m1, *args)
    for names, args in sweep(("b", b_secs), ("tau", tau_secs)):
        report.check("M2", names, m2, *args)
    for names, args in sweep(("b", b_secs, 2, combinations), ("q", q_secs)):
        report.check("M3", names, m3, *args)
    for names, args in sweep(("q", q_secs, 2, combinations), ("b", b_secs)):
        report.check("M4", names, m4, *args)
    for names, args in sweep(("b", b_secs, 2, combinations),
                             ("q", q_secs, 3, combinations)):
        report.check("M5", names, m5, *args)
    for names, args in sweep(("b", b_secs, 2, combinations),
                             ("q", q_secs, 2, combinations)):
        report.check("M5_expanded", names[2:] + names[:2], m5_expanded,
                     *args)
    agreement = len(report.entries)
    report.add("M5_agreement", True,
               witness="expanded form verdict matches the differential form")
    for names, args in sweep(("tau", tau_secs, 2,
                              combinations_with_replacement)):
        report.check("almost_C", names, almost_c, *args)
    for names, args in sweep(("q", q_secs), ("tau", tau_secs),
                             ("b", b_secs)):
        report.check("LC10", names, lc10, *args)

    res = D.bundle.anchor.matmul(S.partial_q).add(
        S.algebroid.bundle.anchor.matmul(D.partial_b).scale(-1))
    report.add("anchor_chain", res.is_zero(),
               witness="rho_Q partial_Q = rho_B partial_B")
    for names, args in sweep(("q", q_secs), ("b", b_secs)):
        report.check("anchor_mixed", names, anchor_mixed, *args)

    def symmetric():
        return not S.partial_symmetry_failures()

    def antisymmetric():
        return not S.curv_antisymmetry_failures()

    def d5():
        return not D.curv_alternation_failures()

    def holds(label):
        return all(e.passed for e in report.entries if e.label == label)

    b_skew, q_skew = S.algebroid.bracket.is_skew, bracket_q.is_skew
    alternating = (antisymmetric, b_skew, q_skew)
    shaped = ("anchor_chain", symmetric)
    report.settle({
        "anchor_mixed": (), "M2": ("anchor_chain",), "M1": shaped,
        "almost_C": shaped, "LC10": ("anchor_mixed",),
        "M3": ("anchor_mixed", b_skew),
        "M4": ("anchor_mixed", q_skew, antisymmetric),
        "M5": alternating + (d5,), "M5_expanded": alternating})
    # the two verdicts are final only once the deferred tuples settle
    report.entries[agreement].passed = holds("M5") == holds("M5_expanded")
    return report


def check_q_preserves_poisson(pair: LAPairData, seed: int = 0) -> CheckReport:
    report = CheckReport("Q preserves the Poisson bracket", seed)
    ps = PoissonStructure(pair.selfdual)
    field = build_homological_field(pair.dorfman)
    table, deg, q_img = ps.table, ps.degrees, field.images()

    def derivation(a, b):
        res = field.apply(table[a][b])
        res = res - ps.with_generator(q_img[a], deg[a] + 1, b)
        cross = ps.left[a].apply(q_img[b])
        return res + cross if deg[a] % 2 == 1 else res - cross

    for names, args in sweep((ps.names, range(len(deg)), 2,
                              combinations_with_replacement)):
        report.check("derivation", names, derivation, *args)

    agreement = check_la_matched_pair(pair, seed).passed == report.passed
    report.add("matched_agreement", agreement,
               witness="derivation verdict matches the matched-pair checker")
    return report
