"""Split Lie 2-algebroids, Dorfman 2-representations, and the homological
vector field on the associated graded manifold.

Graded coordinates: base coordinates x_1..x_p (degree 0), odd fiber
coordinates tau_1..tau_rq (degree 1, anticommuting), even coordinates
b_1..b_rb (degree 2, commuting).
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

from .exactpoly import Polynomial, PolyMatrix, PolyTensor, dot
from .report import CheckReport, sweep, witness
from .bundle import (
    AnchoredBundle, DorfmanConnection, DullBracket, LinearConnection,
    VectorValuedForm, connection_curvature, curvature_matrix, field_bracket,
    form_cartan_differential, memo, random_section, section_add,
    section_pair, section_sub, unit_section,
)


# ---------------------------------------------------------------------------
# graded functions and derivations


def _merge_odd(t1, t2):
    """Concatenate two strictly increasing odd-index tuples with Koszul sign."""
    if set(t1) & set(t2):
        return 0, ()
    merged = sorted(t1 + t2)
    # sign = parity of inversions between the two blocks
    inv = sum(1 for a in t1 for b in t2 if a > b)
    return (-1) ** inv, tuple(merged)


class GradedFunction:
    """Polynomial function on the graded manifold, stored monomial-wise.

    Terms map (tau-index tuple, b-index tuple) to a base polynomial; the
    tau tuple is strictly increasing and the b tuple is sorted.
    """

    __slots__ = ("base_dim", "rank_q", "rank_b", "terms")

    def __init__(self, base_dim: int, rank_q: int, rank_b: int, terms=None):
        self.base_dim = base_dim
        self.rank_q = rank_q
        self.rank_b = rank_b
        clean = {}
        if terms:
            for (taus, bs), poly in terms.items():
                if poly.is_zero():
                    continue
                taus = tuple(taus)
                bs = tuple(sorted(bs))
                if list(taus) != sorted(set(taus)):
                    raise ValueError("tau indices must be strictly increasing")
                clean[(taus, bs)] = poly
        self.terms = clean

    # -- constructors --------------------------------------------------
    @classmethod
    def zero(cls, base_dim, rank_q, rank_b):
        return cls(base_dim, rank_q, rank_b)

    @classmethod
    def from_poly(cls, rank_q, rank_b, poly: Polynomial):
        return cls(poly.base_dim, rank_q, rank_b, {((), ()): poly})

    @classmethod
    def tau(cls, base_dim, rank_q, rank_b, index):
        one = Polynomial.const(base_dim, 1)
        return cls(base_dim, rank_q, rank_b, {((index,), ()): one})

    @classmethod
    def bgen(cls, base_dim, rank_q, rank_b, index):
        one = Polynomial.const(base_dim, 1)
        return cls(base_dim, rank_q, rank_b, {((), (index,)): one})

    # -- structure -----------------------------------------------------
    def is_zero(self):
        return not self.terms

    def _compat(self, other):
        if (self.base_dim, self.rank_q, self.rank_b) != \
                (other.base_dim, other.rank_q, other.rank_b):
            raise ValueError("graded function shape mismatch")

    def __add__(self, other):
        self._compat(other)
        terms = dict(self.terms)
        for key, poly in other.terms.items():
            total = terms.get(key)
            total = poly if total is None else total + poly
            if total.is_zero():
                terms.pop(key, None)
            else:
                terms[key] = total
        return GradedFunction(self.base_dim, self.rank_q, self.rank_b, terms)

    def __neg__(self):
        return GradedFunction(self.base_dim, self.rank_q, self.rank_b,
                              {k: -p for k, p in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            other = GradedFunction.from_poly(self.rank_q, self.rank_b, other)
        self._compat(other)
        terms = {}
        for (t1, b1), p1 in self.terms.items():
            for (t2, b2), p2 in other.terms.items():
                sign, taus = _merge_odd(t1, t2)
                if sign == 0:
                    continue
                key = (taus, tuple(sorted(b1 + b2)))
                poly = (p1 * p2).scale(sign)
                total = terms.get(key)
                total = poly if total is None else total + poly
                if total.is_zero():
                    terms.pop(key, None)
                else:
                    terms[key] = total
        return GradedFunction(self.base_dim, self.rank_q, self.rank_b, terms)

    def scale(self, value):
        return GradedFunction(self.base_dim, self.rank_q, self.rank_b,
                              {k: p.scale(value) for k, p in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, GradedFunction):
            return NotImplemented
        return (self.base_dim, self.rank_q, self.rank_b) == \
            (other.base_dim, other.rank_q, other.rank_b) and \
            self.terms == other.terms

    def render(self):
        if not self.terms:
            return "0"
        pieces = []
        for (taus, bs) in sorted(self.terms, key=lambda k: (len(k[0]) + 2 * len(k[1]), k)):
            poly = self.terms[(taus, bs)]
            gens = "".join(f"t{i + 1}" for i in taus) + "".join(f"b{i + 1}" for i in bs)
            body = poly.render()
            if gens:
                body = f"({body})*{gens}" if (len(poly.terms) > 1 or body not in ("1", "-1")) \
                    else (gens if body == "1" else f"-{gens}")
            pieces.append(body)
        return " + ".join(pieces)

    def __repr__(self):
        return f"GradedFunction({self.render()})"


class GradedDerivation:
    """Derivation of the graded function algebra, given on generators and
    extended by the graded Leibniz rule."""

    def __init__(self, base_dim, rank_q, rank_b, degree,
                 x_img=None, tau_img=None, b_img=None):
        self.base_dim = base_dim
        self.rank_q = rank_q
        self.rank_b = rank_b
        self.degree = degree
        zero = lambda: GradedFunction.zero(base_dim, rank_q, rank_b)
        self.x_img = list(x_img) if x_img else [zero() for _ in range(base_dim)]
        self.tau_img = list(tau_img) if tau_img else [zero() for _ in range(rank_q)]
        self.b_img = list(b_img) if b_img else [zero() for _ in range(rank_b)]

    def apply(self, gf: GradedFunction) -> GradedFunction:
        out = GradedFunction.zero(self.base_dim, self.rank_q, self.rank_b)
        odd = self.degree % 2 == 1
        for (taus, bs), poly in gf.terms.items():
            # derivative of the base-polynomial factor (even, leftmost)
            monomial = GradedFunction(self.base_dim, self.rank_q, self.rank_b,
                                      {(taus, bs): Polynomial.const(self.base_dim, 1)})
            for i in range(self.base_dim):
                dpoly = poly.diff(i)
                if dpoly.is_zero() or self.x_img[i].is_zero():
                    continue
                out = out + (self.x_img[i] * monomial) * dpoly
            # derivative across the generator factors
            factors = [("tau", i) for i in taus] + [("b", i) for i in bs]
            for pos, (kind, idx) in enumerate(factors):
                img = self.tau_img[idx] if kind == "tau" else self.b_img[idx]
                if img.is_zero():
                    continue
                prefix_odd = sum(1 for k, _ in factors[:pos] if k == "tau")
                sign = -1 if (odd and prefix_odd % 2 == 1) else 1
                prefix = GradedFunction(
                    self.base_dim, self.rank_q, self.rank_b,
                    {(tuple(i for k, i in factors[:pos] if k == "tau"),
                      tuple(i for k, i in factors[:pos] if k == "b")):
                     Polynomial.const(self.base_dim, 1)})
                suffix = GradedFunction(
                    self.base_dim, self.rank_q, self.rank_b,
                    {(tuple(i for k, i in factors[pos + 1:] if k == "tau"),
                      tuple(i for k, i in factors[pos + 1:] if k == "b")):
                     Polynomial.const(self.base_dim, 1)})
                term = (prefix * img * suffix) * poly
                out = out + (term.scale(sign) if sign == -1 else term)
        return out

    def generator_images(self):
        base = self.base_dim
        items = []
        for i in range(base):
            items.append((f"x{i + 1}", self.x_img[i]))
        for i in range(self.rank_q):
            items.append((f"tau{i + 1}", self.tau_img[i]))
        for i in range(self.rank_b):
            items.append((f"b{i + 1}", self.b_img[i]))
        return items


def graded_commutator(phi: GradedDerivation, psi: GradedDerivation) -> GradedDerivation:
    """[phi, psi] = phi psi - (-1)^{|phi||psi|} psi phi, on generators."""
    sign = -1 if (phi.degree % 2 == 1 and psi.degree % 2 == 1) else 1
    base, rq, rb = phi.base_dim, phi.rank_q, phi.rank_b

    def comm(phi_img, psi_img):
        term = phi.apply(psi_img) - psi.apply(phi_img).scale(sign)
        return term

    x_img = [comm(phi.x_img[i], psi.x_img[i]) for i in range(base)]
    tau_img = [comm(phi.tau_img[i], psi.tau_img[i]) for i in range(rq)]
    b_img = [comm(phi.b_img[i], psi.b_img[i]) for i in range(rb)]
    return GradedDerivation(base, rq, rb, phi.degree + psi.degree,
                            x_img, tau_img, b_img)


# ---------------------------------------------------------------------------
# Dorfman 2-representations and split Lie 2-algebroids


@dataclass
class Dorfman2Rep:
    """Dorfman 2-representation of (Q, rho) on partial_b : Q* -> B.

    curv holds R(q_i, q_j) as a Hom(B, Q*) block: indices (i, j, r, k)
    give the k-th Q*-component of R(q_i, q_j) applied to the r-th B-frame.
    """

    bundle: AnchoredBundle
    rank_b: int
    partial_b: PolyMatrix
    delta: DorfmanConnection
    nablaB: LinearConnection
    curv: PolyTensor

    @classmethod
    def curv_tensor(cls, base_dim, rank_q, rank_b) -> PolyTensor:
        return PolyTensor(base_dim,
                          [(rank_q, 2, True), (rank_b, 1, False), (rank_q, 1, False)])

    @classmethod
    def phi_tensor(cls, base_dim, rank_q, rank_b) -> PolyTensor:
        """The layout of a change of splitting phi (see change_splitting)."""
        return PolyTensor(base_dim, [(rank_q, 2, True), (rank_b, 1, False)])

    @property
    def rank_q(self):
        return self.bundle.rank

    def partial_b_apply(self, tau):
        return self.partial_b.apply(tau)

    def partial_b_star_apply(self, beta):
        """partial_b^* : B^* -> Q, the transpose on frames."""
        return self.partial_b.transpose().apply(beta)

    def dual_bracket(self) -> DullBracket:
        return self.delta.dual_dull_bracket()

    def curv_matrix(self, q1, q2) -> PolyMatrix:
        """R(q1, q2) as a Hom(B, Q*) polynomial matrix (tensorial)."""
        return curvature_matrix(self.curv, q1, q2)

    def curv_alternation_failures(self):
        """Witnesses (q_i, q_j, b_r, q_k) of the frame components where
        R(q_i, q_j)^* q_k is not alternating in its last two Q-slots;
        empty iff axiom (D5) holds."""
        rq = self.rank_q
        return [witness(names) for names, (i, j, r, k) in sweep(
            ("q", range(rq), 2, combinations), ("b", range(self.rank_b)),
            ("q", range(rq)))
            if not (self.curv.get(i, j, r, k)
                    + self.curv.get(i, k, r, j)).is_zero()]

    def omega_form(self) -> VectorValuedForm:
        """omega_R(q1,q2,q3) = R(q1,q2)^* q3 as a B*-valued 3-form.

        Built from the i<j<k entries; total antisymmetry is what axiom
        (D5) asserts and is checked separately.
        """
        form = VectorValuedForm.empty(self.bundle, 3, self.rank_b)
        rq = self.rank_q
        for i in range(rq):
            for j in range(i + 1, rq):
                for k in range(j + 1, rq):
                    for r in range(self.rank_b):
                        entry = self.curv.get(i, j, r, k)
                        if not entry.is_zero():
                            form.tensor.set((i, j, k, r), entry)
        return form


@dataclass
class SplitLie2Data:
    """Split Lie 2-algebroid on Q oplus B^*: (l1, skew bracket, nabla, l3).

    l1 : B^* -> Q is a (rank_q x rank_b) matrix on frames; l3 is a
    B*-valued 3-form on Q with indices (i, j, k, r).
    """

    bundle: AnchoredBundle
    rank_b: int
    l1: PolyMatrix
    bracket: DullBracket
    nablaB: LinearConnection
    l3: PolyTensor

    @classmethod
    def l3_tensor(cls, base_dim, rank_q, rank_b) -> PolyTensor:
        return PolyTensor(base_dim, [(rank_q, 3, True), (rank_b, 1, False)])

    @property
    def rank_q(self):
        return self.bundle.rank


def dorfman_from_split(split: SplitLie2Data) -> Dorfman2Rep:
    """partial_b^* = -l1; Dorfman connection dual to the bracket; omega_R = l3."""
    p = split.bundle.base_dim
    rq, rb = split.rank_q, split.rank_b
    partial_b = split.l1.transpose().scale(-1)
    curv = Dorfman2Rep.curv_tensor(p, rq, rb)
    for i in range(rq):
        for j in range(i + 1, rq):
            for k in range(rq):
                for r in range(rb):
                    entry = split.l3.get(i, j, k, r)
                    if not entry.is_zero():
                        curv.set((i, j, r, k), entry)
    return Dorfman2Rep(
        bundle=split.bundle,
        rank_b=rb,
        partial_b=partial_b,
        delta=DorfmanConnection.from_dull_bracket(split.bracket),
        nablaB=split.nablaB,
        curv=curv,
    )


def split_from_dorfman(rep: Dorfman2Rep) -> SplitLie2Data:
    p = rep.bundle.base_dim
    rq, rb = rep.rank_q, rep.rank_b
    l3 = SplitLie2Data.l3_tensor(p, rq, rb)
    for i in range(rq):
        for j in range(i + 1, rq):
            for k in range(j + 1, rq):
                for r in range(rb):
                    entry = rep.curv.get(i, j, r, k)
                    if not entry.is_zero():
                        l3.set((i, j, k, r), entry)
    return SplitLie2Data(
        bundle=rep.bundle,
        rank_b=rb,
        l1=rep.partial_b.transpose().scale(-1),
        bracket=rep.dual_bracket(),
        nablaB=rep.nablaB,
        l3=l3,
    )


# ---------------------------------------------------------------------------
# axiom checker


def check_dorfman2rep(rep: Dorfman2Rep, seed: int = 0,
                      title: str = "Dorfman 2-representation") -> CheckReport:
    """Axioms (D1)-(D6) and the anchor conditions on frames and seeded
    random sections.

    Settles (see ``report``).  The dual bracket, Delta and nabla are the
    Leibniz extensions of their frame values, and R and partial_b are
    tensors.  Then anchor_bracket is tensorial, and alternating once D2
    holds; D1 and D3 are tensorial once anchor_chain holds (D3 is
    symmetric); the curvatures in D4 are tensorial once anchor_bracket
    and D2 hold, and alternating once D2 holds; the Koszul differential
    in D6 is tensorial and alternating once D2 holds.  So those labels
    and the frame tuples prove every sampled tuple.
    """
    rng = _random.Random(seed)
    report = CheckReport(title, seed)
    bundle = rep.bundle
    p = bundle.base_dim
    rq, rb = rep.rank_q, rep.rank_b
    bracket = rep.dual_bracket()
    nabla_dual = memo(rep.nablaB.dual().apply)
    br, delta = memo(bracket.apply), memo(rep.delta.apply)
    nablaB, curv = memo(rep.nablaB.apply), memo(rep.curv_matrix)
    partial_b = memo(rep.partial_b_apply)

    def draw(rank, count):
        return report.sample([random_section(rng, p, rank)
                              for _ in range(count)])

    q_secs = bundle.frames() + draw(rq, 2)
    tau_secs = [unit_section(p, rq, j) for j in range(rq)] + draw(rq, 2)
    beta_secs = [unit_section(p, rb, r) for r in range(rb)] + draw(rb, 1)
    b_secs = [unit_section(p, rb, r) for r in range(rb)] + draw(rb, 1)

    def anchor_bracket(q1, q2):
        return section_sub(
            bundle.anchor_field(br(q1, q2)),
            field_bracket(bundle.anchor_field(q1), bundle.anchor_field(q2)))

    def d1(q, tau):
        return section_sub(partial_b(delta(q, tau)),
                           nablaB(q, partial_b(tau)))

    def d3(xi1, xi2):
        return section_add(
            nabla_dual(rep.partial_b_star_apply(xi1), xi2),
            nabla_dual(rep.partial_b_star_apply(xi2), xi1))

    def d4_nabla(q1, q2, b):
        return section_sub(partial_b(curv(q1, q2).apply(b)),
                           connection_curvature(nablaB, br, q1, q2, b))

    def d4_delta(q1, q2, tau):
        return section_sub(curv(q1, q2).apply(partial_b(tau)),
                           connection_curvature(delta, br, q1, q2, tau))

    def d6(*args):
        return form_cartan_differential(omega, nabla_dual, br, args)

    # anchor conditions
    chain = bundle.anchor.matmul(rep.partial_b.transpose())
    report.add("anchor_chain", chain.is_zero(),
               witness="rho_Q composed with partial_b^*")
    for names, args in sweep(("q", q_secs, 2, combinations)):
        report.check("anchor_bracket", names, anchor_bracket, *args)

    # (D1) partial_b is Delta-to-nabla equivariant
    for names, args in sweep(("q", q_secs), ("tau", tau_secs)):
        report.check("D1", names, d1, *args)

    # (D2) dual bracket is skew
    report.add("D2", bracket.is_skew(), witness="frame components")

    # (D3) nabla^* vanishes symmetrically along partial_b^*
    for names, args in sweep(("beta", beta_secs, 2,
                              combinations_with_replacement)):
        report.check("D3", names, d3, *args)

    # (D4) both curvatures factor through R
    for pair, (q1, q2) in sweep(("q", q_secs, 2, combinations)):
        for names, (b,) in sweep(("b", b_secs)):
            report.check("D4_nabla", pair + names, d4_nabla, q1, q2, b)
        for names, (tau,) in sweep(("tau", tau_secs)):
            report.check("D4_delta", pair + names, d4_delta, q1, q2, tau)

    # (D5) R^* q3 is alternating in its three Q-slots
    failing = rep.curv_alternation_failures()
    report.add("D5", not failing,
               witness=failing[-1] if failing else "frame components")

    # (D6) omega_R is closed for the dual connection
    omega = rep.omega_form()
    for names, args in sweep(("q", bundle.frames(), 4, combinations)):
        report.check("D6", names, d6, *args)
    if rq >= 4:
        report.check("D6", ("random sections",), d6, *draw(rq, 4))
    if rq < 4:
        report.add("D6", True, witness="vacuous: rank below 4")
    return report.settle()


# ---------------------------------------------------------------------------
# homological vector field


def build_homological_field(rep: Dorfman2Rep) -> GradedDerivation:
    p = rep.bundle.base_dim
    rq, rb = rep.rank_q, rep.rank_b
    bracket_comps = rep.dual_bracket().comps
    gf = lambda terms: GradedFunction(p, rq, rb, terms)
    one = Polynomial.const(p, 1)

    x_img = []
    for k in range(p):
        terms = {}
        for i in range(rq):
            coeff = rep.bundle.anchor[k, i]
            if not coeff.is_zero():
                terms[((i,), ())] = coeff
        x_img.append(gf(terms))

    tau_img = []
    for k in range(rq):
        out = GradedFunction.zero(p, rq, rb)
        terms = {}
        for i in range(rq):
            for j in range(i + 1, rq):
                coeff = bracket_comps[i][j][k]
                if not coeff.is_zero():
                    terms[((i, j), ())] = terms.get(((i, j), ()), Polynomial.zero(p)) - coeff
        for r in range(rb):
            coeff = rep.partial_b[r, k]
            if not coeff.is_zero():
                terms[((), (r,))] = coeff
        tau_img.append(gf(terms))

    b_img = []
    for l in range(rb):
        terms = {}
        for i in range(rq):
            for j in range(i + 1, rq):
                for k in range(j + 1, rq):
                    coeff = rep.curv.get(i, j, l, k)
                    if not coeff.is_zero():
                        terms[((i, j, k), ())] = \
                            terms.get(((i, j, k), ()), Polynomial.zero(p)) - coeff
        # <nabla^*_{q_i} beta_j, b_l> = -gamma[i][l][j]
        for i in range(rq):
            for j in range(rb):
                coeff = rep.nablaB.gamma[i][l][j]
                if not coeff.is_zero():
                    terms[((i,), (j,))] = \
                        terms.get(((i,), (j,)), Polynomial.zero(p)) + coeff
        b_img.append(gf(terms))

    return GradedDerivation(p, rq, rb, 1, x_img, tau_img, b_img)


_HOMOLOGICAL_XREF = {
    "x": "anchor_chain or anchor_bracket",
    "tau": "D1 or the Jacobiator identity (D4_delta)",
    "b": "D3, D4_nabla, or D6",
}


def check_homological(rep: Dorfman2Rep, seed: int = 0,
                      title: str = "homological vector field") -> CheckReport:
    """Check [Q, Q] = 0 on all generators, cross-referencing axiom labels.

    Q^2 = [Q, Q] / 2 is a derivation, so [Q, Q] = 0 on generators proves
    Q^2 = 0 on every function.  The entry for a random degree-3 function
    is therefore recorded as passed, without drawing or evaluating it,
    when every generator entry passed, and left out otherwise.
    """
    report = CheckReport(title, seed)
    field = build_homological_field(rep)
    half_sq = graded_commutator(field, field)
    p, rq, rb = field.base_dim, field.rank_q, field.rank_b

    def record(kind, name, gfval):
        label = f"Q_squared[{name}]"
        if gfval.is_zero():
            report.add(label, True)
        else:
            report.add(label, False, witness=f"violates {_HOMOLOGICAL_XREF[kind]}",
                       residual=gfval.render())

    for i in range(p):
        record("x", f"x{i + 1}", half_sq.x_img[i])
    for i in range(rq):
        record("tau", f"tau{i + 1}", half_sq.tau_img[i])
    for i in range(rb):
        record("b", f"b{i + 1}", half_sq.b_img[i])

    if report.passed:
        report.add("Q_squared[random degree-3 function]", True)
    return report


# ---------------------------------------------------------------------------
# change of splitting and morphisms


def change_splitting(rep: Dorfman2Rep, phi: PolyTensor) -> Dorfman2Rep:
    """New Dorfman 2-representation after a change of Lagrangian splitting.

    phi has index groups (rank_q, 2, antisym), (rank_b, 1): entry
    (i, k, r) is the b_r-component of phi(q_i, q_k) in B^*.
    """
    p = rep.bundle.base_dim
    rq, rb = rep.rank_q, rep.rank_b

    pb_cols = [[rep.partial_b[r, j] for r in range(rb)] for j in range(rq)]
    new_delta = [[[rep.delta.comps[i][j][k] + dot(
        [phi.get(i, k, r) for r in range(rb)], pb_cols[j], p)
        for k in range(rq)] for j in range(rq)] for i in range(rq)]
    new_gamma = [[[rep.nablaB.gamma[i][j][k] + dot(
        rep.partial_b.data[k], [phi.get(i, m, j) for m in range(rq)], p)
        for k in range(rb)] for j in range(rb)] for i in range(rq)]
    new_nabla = LinearConnection(rep.bundle, rb, new_gamma)

    # omega^2 = omega^1 + d_{nabla^{2,*}} phi, Cartan differential with the
    # original dual bracket
    phi_form = VectorValuedForm(rep.bundle, 2, rb, phi)
    old_bracket = rep.dual_bracket().apply
    nabla2_dual = new_nabla.dual().apply
    frames = rep.bundle.frames()
    new_curv = Dorfman2Rep.curv_tensor(p, rq, rb)
    for i in range(rq):
        for j in range(i + 1, rq):
            for k in range(rq):
                args = [frames[i], frames[j], frames[k]]
                shift = form_cartan_differential(phi_form, nabla2_dual,
                                                 old_bracket, args)
                for r in range(rb):
                    new_curv.set((i, j, r, k), rep.curv.get(i, j, r, k) + shift[r])

    return Dorfman2Rep(
        bundle=rep.bundle,
        rank_b=rb,
        partial_b=rep.partial_b,
        delta=DorfmanConnection(rep.bundle, new_delta),
        nablaB=new_nabla,
        curv=new_curv,
    )


def check_lie2_morphism(split1: SplitLie2Data, split2: SplitLie2Data,
                        mu_q: PolyMatrix, mu_b: PolyMatrix, mu12: PolyTensor,
                        seed: int = 0) -> CheckReport:
    """Morphism of split Lie 2-algebroids over the identity on the base.

    mu_q : Q1 -> Q2 (rank_q2 x rank_q1), mu_b : B1 -> B2
    (rank_b2 x rank_b1); mu12 is a B2*-valued 2-form on Q1 with index
    groups (rank_q1, 2, antisym), (rank_b2, 1).
    """
    rng = _random.Random(seed)
    report = CheckReport("Lie 2-algebroid morphism", seed)
    p = split1.bundle.base_dim
    rq1, rb1 = split1.rank_q, split1.rank_b
    rq2, rb2 = split2.rank_q, split2.rank_b

    # (1) anchors intertwine
    res = split2.bundle.anchor.matmul(mu_q).add(split1.bundle.anchor.scale(-1))
    report.add("anchor", res.is_zero(), witness="rho_2 mu_Q = rho_1")

    # (2) mu_Q l1^1 = l1^2 mu_B
    res = mu_q.matmul(split1.l1).add(split2.l1.matmul(mu_b).scale(-1))
    report.add("chain_map", res.is_zero(), witness="mu_Q l1 = l1 mu_B")

    mu12_form = VectorValuedForm(split1.bundle, 2, rb2, mu12)
    q1_secs = split1.bundle.frames() + [random_section(rng, p, rq1)]
    mu_b_t = mu_b.transpose()
    partial1 = split1.l1.transpose().scale(-1)
    b2_frames = [unit_section(p, rb2, r) for r in range(rb2)]
    omega1 = VectorValuedForm(split1.bundle, 3, rb1, split1.l3)
    omega2 = VectorValuedForm(split2.bundle, 3, rb2, split2.l3)
    nabla2_dual = split2.nablaB.dual().apply

    # (3) brackets match up to l1 of mu12
    def bracket(q, qp):
        lhs = mu_q.apply(split1.bracket.apply(q, qp))
        rhs = split2.bracket.apply(mu_q.apply(q), mu_q.apply(qp))
        corr = split2.l1.apply(mu12_form.eval_sections([q, qp]))
        return section_sub(lhs, section_add(rhs, corr))

    # (4) connections match up to partial_1 of the mu12 contraction
    def connection(q, b2):
        lhs = mu_b_t.apply(split2.nablaB.apply(mu_q.apply(q), b2))
        rhs = split1.nablaB.apply(q, mu_b_t.apply(b2))
        # <mu12(q, .), b2> in Gamma(Q1*)
        contraction = [section_pair(mu12_form.eval_sections(
            [q, unit_section(p, rq1, k)]), b2) for k in range(rq1)]
        return section_add(section_sub(lhs, rhs), partial1.apply(contraction))

    # (5) mu_Q^* omega_{R2} - mu_B omega_{R1} = -d_{mu_Q^* nabla2} mu12,
    # with nabla2^* pulled back along mu_Q as a connection on B2^*
    def curvature(*args):
        lhs = omega2.eval_sections([mu_q.apply(a) for a in args])
        rhs = mu_b.apply(omega1.eval_sections(args))
        dmu = form_cartan_differential(
            mu12_form, lambda q, beta: nabla2_dual(mu_q.apply(q), beta),
            split1.bracket.apply, args)
        return section_add(section_sub(lhs, rhs), dmu)

    for names, args in sweep(("q", q1_secs, 2, combinations)):
        report.check("bracket", names, bracket, *args)
    for names, args in sweep(("q", q1_secs), ("b", b2_frames)):
        report.check("connection", names, connection, *args)
    for names, args in sweep(("q", q1_secs, 3, combinations)):
        report.check("curvature", names, curvature, *args)
    return report
