"""Anchored bundles, connections, dull brackets, Lie algebroids, 2-term reps.

Sections of a rank-r bundle are coefficient vectors: lists of r
polynomials over the base coordinates.  All operators are stored by
their frame components and extended to arbitrary polynomial sections by
the Leibniz rules, so an operator applies to frames and to any
polynomial section alike.  The checkers record each identity on frames
and on seeded random sections; those that settle (see ``report``)
evaluate the random sections only for the labels that the frame entries
do not prove.

The Leibniz extension is made in one place, ``covariant_apply``.  An
operator D with frame values D_{e_i} f_j = sum_k comps[i][j][k] f_k,
anchored along u by the vector field X_u, acts on sections by
    (D_u v)_k = X_u(v_k) + sum_{i,j} u_i v_j comps[i][j][k].
Most frame rows comps[i][j] are zero, so the product u_i v_j is formed
only for a row with a nonzero entry.  Connections are exactly this;
Dorfman connections, dull brackets and Courant brackets add their own
correction terms to it.  Hom-valued 2-forms (the curvature tensors) are
evaluated in one place too, ``curvature_matrix``.

Checkers wrap the operators they apply with ``memo``.  Where one
operator is built from another (D inside the Courant bracket, the
connections inside ``hom_derivative``, the connection and bracket inside
``form_cartan_differential``), it takes that operator as a callable, so
the checker passes its memoized one.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from itertools import combinations

from .exactpoly import (Polynomial, PolyMatrix, PolyTensor, dot,
                        random_polynomial)
from .report import CheckReport, sweep


def memo(fn):
    """``fn`` with a table of its results, for one checker call.

    Keys are argument values, never ``id()``: a list argument becomes the
    tuple of its Polynomials, which hash and compare exactly, so equal
    sections built apart share one entry.  The table dies with the
    returned function, so it never outlives the check or sees another
    structure.  Callers share each result, so results and arguments are
    never mutated in place.  A call with an unhashable argument (a
    PolyMatrix) is not memoized; a call that raises stores nothing.
    """
    table = {}

    def call(*args):
        key = tuple([tuple(a) if type(a) is list else a for a in args])
        try:
            return table[key]
        except KeyError:
            pass
        except TypeError:
            return fn(*args)
        value = table[key] = fn(*args)
        return value
    return call


# ---------------------------------------------------------------------------
# sections and vector fields


def zero_section(base_dim: int, rank: int):
    return [Polynomial.zero(base_dim)] * rank


def unit_section(base_dim: int, rank: int, index: int):
    out = zero_section(base_dim, rank)
    out[index] = Polynomial.const(base_dim, 1)
    return out


def section_add(u, v):
    return [a + b for a, b in zip(u, v)]


def section_sub(u, v):
    return [a - b for a, b in zip(u, v)]


def section_neg(u):
    return [-a for a in u]


def section_smul(f: Polynomial, u):
    """f u.  A zero factor skips the kernel; base dimensions are still
    checked."""
    p = f.base_dim
    out = []
    for a in u:
        if a.base_dim != p:
            raise ValueError("base dimension mismatch")
        out.append(f * a if f.terms and a.terms else Polynomial.zero(p))
    return out


def section_pair(u, v) -> Polynomial:
    """Canonical pairing of a bundle section with a dual-bundle section."""
    if len(u) != len(v):
        raise ValueError("section length mismatch")
    if not u:
        raise ValueError("cannot pair empty sections without a base dimension")
    return dot(u, v, u[0].base_dim)


def field_bracket(x, y):
    """Lie bracket of two vector fields given by component lists:
    component k is sum_m x_m d_m y_k - y_m d_m x_k, with ``dot``'s zero
    skip and base dimension checks."""
    p = len(x)
    return [dot(x, [y[k].diff(m) for m in range(p)], p)
            - dot(y, [x[k].diff(m) for m in range(p)], p) for k in range(p)]


def field_apply(x, f: Polynomial) -> Polynomial:
    """X(f) = sum_m x_m df/dx_m.  Zero components and zero derivatives,
    and all of them when f is zero, are skipped; the index and base
    dimension checks are not."""
    p = f.base_dim
    acc = Polynomial.zero(p)
    for m, comp in enumerate(x):
        if m >= p:
            raise IndexError("coordinate index out of range")
        if comp.base_dim != p:
            raise ValueError("base dimension mismatch")
        if comp.terms and f.terms:
            df = f.diff(m)
            if df.terms:
                acc = acc + comp * df
    return acc


def covariant_apply(field, comps, u, v):
    """Leibniz extension of an operator stored by its frame components.

    Returns the section with components
        field(v_k) + sum_{i,j} u_i v_j comps[i][j][k],
    where field is the vector field (component list) that anchors the
    operator along u, and comps[i][j][k] is the k-th component of the
    operator along the i-th frame of u applied to the j-th frame of v.
    The result has the rank of v.  Zero u_i, zero v_j and zero
    comps[i][j][k] are skipped, and u_i v_j is formed only when row
    comps[i][j] has a nonzero entry; every row is still checked.
    """
    out = [field_apply(field, c) for c in v]
    for i, ui in enumerate(u):
        if ui.is_zero():
            continue
        p = ui.base_dim
        for j, vj in enumerate(v):
            if vj.is_zero():
                continue
            if vj.base_dim != p:
                raise ValueError("base dimension mismatch")
            row, coeff = comps[i][j], None
            for k in range(len(out)):
                entry = row[k]
                if entry.base_dim != p or out[k].base_dim != p:
                    raise ValueError("base dimension mismatch")
                if entry.terms:
                    if coeff is None:
                        coeff = ui * vj
                    out[k] = out[k] + coeff * entry
    return out


def _dual_comps(comps):
    """Frame components of the dual operator: out[i][j][k] = -comps[i][k][j]."""
    return [[[-plane[k][j] for k in range(len(plane))]
             for j in range(len(plane))] for plane in comps]


def random_section(rng, base_dim: int, rank: int):
    return [random_polynomial(rng, base_dim) for _ in range(rank)]


# ---------------------------------------------------------------------------
# base space and bundles


@dataclass
class BaseSpace:
    dim: int


class AnchoredBundle:
    """Trivial bundle of given rank with a polynomial anchor to TM.

    The anchor is a (dim x rank) matrix: column i holds the vector-field
    components of the anchor image of the i-th frame section.
    """

    def __init__(self, base: BaseSpace, rank: int, anchor: PolyMatrix):
        self.base = base
        self.rank = rank
        if (anchor.rows, anchor.cols) != (base.dim, rank):
            raise ValueError("anchor shape mismatch")
        self.anchor = anchor

    @property
    def base_dim(self) -> int:
        return self.base.dim

    def frames(self):
        return [unit_section(self.base_dim, self.rank, i) for i in range(self.rank)]

    def anchor_field(self, q):
        """Vector-field components of the anchor applied to a section."""
        return self.anchor.apply(q)

    def anchor_apply(self, q, f: Polynomial) -> Polynomial:
        return field_apply(self.anchor_field(q), f)

    def anchor_pullback_d(self, f: Polynomial):
        """Dual-bundle section rho^* df: component i is rho(frame_i)(f),
        anchor column i dotted with the gradient of f."""
        p = self.base_dim
        if f.base_dim != p:
            raise ValueError("base dimension mismatch")
        grad = [f.diff(m) for m in range(p)]
        return [dot([row[i] for row in self.anchor.data], grad, p)
                for i in range(self.rank)]


# ---------------------------------------------------------------------------
# connections


class LinearConnection:
    """Connection of an anchored bundle Q on an auxiliary module of rank r.

    gamma[i][j][k] is the k-th component of the covariant derivative of
    the j-th module frame along the i-th Q-frame.
    """

    def __init__(self, bundle: AnchoredBundle, module_rank: int, gamma):
        self.bundle = bundle
        self.module_rank = module_rank
        self.gamma = gamma

    def apply(self, q, s):
        return covariant_apply(self.bundle.anchor_field(q), self.gamma, q, s)

    def dual(self) -> "LinearConnection":
        """Dual connection on the dual module: gamma*[i][j][k] = -gamma[i][k][j]."""
        return LinearConnection(self.bundle, self.module_rank,
                                _dual_comps(self.gamma))


class DorfmanConnection:
    """Dorfman connection of Q on Q*: anchored, Leibniz in the section slot,
    and Delta_{fq} tau = f Delta_q tau + <tau, q> rho^* df in the lower slot.

    comps[i][j][k] is the k-th component of Delta of the j-th dual frame
    along the i-th frame.
    """

    def __init__(self, bundle: AnchoredBundle, comps):
        self.bundle = bundle
        self.comps = comps

    def apply(self, q, tau):
        out = covariant_apply(self.bundle.anchor_field(q), self.comps, q, tau)
        p = self.bundle.base_dim
        for j, tj in enumerate(tau):
            if tj.is_zero():
                continue
            pull = self.bundle.anchor_pullback_d(q[j])
            for k in range(len(out)):
                if tj.base_dim != p or out[k].base_dim != p:
                    raise ValueError("base dimension mismatch")
                if pull[k].terms:
                    out[k] = out[k] + tj * pull[k]
        return out

    def dual_dull_bracket(self) -> "DullBracket":
        return DullBracket(self.bundle, _dual_comps(self.comps))

    @classmethod
    def from_dull_bracket(cls, bracket: "DullBracket") -> "DorfmanConnection":
        return cls(bracket.bundle, _dual_comps(bracket.comps))


class DullBracket:
    """Anchored bracket on sections of Q, Leibniz in both slots.

    comps[i][j][k] is the k-th component of the bracket of frames i, j.
    """

    def __init__(self, bundle: AnchoredBundle, comps):
        self.bundle = bundle
        self.comps = comps

    def apply(self, q1, q2):
        out = covariant_apply(self.bundle.anchor_field(q1), self.comps, q1, q2)
        back = self.bundle.anchor_field(q2)
        return [a - field_apply(back, b) for a, b in zip(out, q1)]

    def is_skew(self) -> bool:
        r = self.bundle.rank
        return all((self.comps[i][j][k] + self.comps[j][i][k]).is_zero()
                   for i in range(r) for j in range(i, r) for k in range(r))


# ---------------------------------------------------------------------------
# derived operators


def connection_curvature(nabla, bracket, q1, q2, s):
    """R(q1, q2)s = nabla_q1 nabla_q2 s - nabla_q2 nabla_q1 s - nabla_[q1,q2] s.

    nabla and bracket are callables: the apply of a connection or a
    Dorfman connection, and of a dull bracket (or their memos).
    """
    return section_sub(
        section_sub(nabla(q1, nabla(q2, s)), nabla(q2, nabla(q1, s))),
        nabla(bracket(q1, q2), s))


def curvature_matrix(curv: PolyTensor, u1, u2) -> PolyMatrix:
    """A Hom-valued 2-form evaluated on two sections, as a matrix.

    curv has index groups (rank, 2, antisym), (n_in, 1), (n_out, 1):
    entry (i, j, r, m) is the m-th output component of R(e_i, e_j)
    applied to the r-th input frame.  R is tensorial, so entry [m][r] of
    the result is sum_{i<j} (u1_i u2_j - u1_j u2_i) curv(i, j, r, m).
    """
    _, (n_in, _, _), (n_out, _, _) = curv.groups
    out = PolyMatrix(curv.base_dim, n_out, n_in)
    coeffs = {}
    # stored keys are canonical (i < j) and stored entries are nonzero
    for (i, j, r, m), entry in curv.entries.items():
        coeff = coeffs.get((i, j))
        if coeff is None:
            coeff = coeffs[i, j] = dot((u1[i], u1[j]), (u2[j], -u2[i]),
                                       curv.base_dim)
        if not coeff.is_zero():
            out.data[m][r] = out.data[m][r] + coeff * entry
    return out


def jacobiator(bracket, q1, q2, q3):
    """[[q1,q2],q3] + [q2,[q1,q3]] - [q1,[q2,q3]] for the callable bracket."""
    return section_sub(
        section_add(bracket(bracket(q1, q2), q3),
                    bracket(q2, bracket(q1, q3))),
        bracket(q1, bracket(q2, q3)))


@dataclass
class VectorValuedForm:
    """Alternating form on Q with values in a rank-r module, by components."""

    bundle: AnchoredBundle
    arity: int
    value_rank: int
    tensor: PolyTensor

    @classmethod
    def empty(cls, bundle: AnchoredBundle, arity: int, value_rank: int):
        tensor = PolyTensor(bundle.base_dim,
                            [(bundle.rank, arity, True), (value_rank, 1, False)])
        return cls(bundle, arity, value_rank, tensor)

    def eval_sections(self, args):
        """Tensorial evaluation on section arguments.  It reads the stored
        components, so a determinant is taken only for frame keys where
        the form has a nonzero value."""
        p = self.bundle.base_dim
        out = zero_section(p, self.value_rank)
        coeffs = {}
        for idx, val in self.tensor.entries.items():
            key, m = idx[:-1], idx[-1]
            if key not in coeffs:
                coeffs[key] = _alternating_coeff(args, key, p)
            if coeffs[key].terms:
                out[m] = out[m] + coeffs[key] * val
        return out


def _alternating_coeff(args, key, base_dim):
    """det of the (arity x arity) matrix of chosen components of args."""
    n = len(key)
    mat = PolyMatrix(base_dim, n, n,
                     [[args[a][key[b]] for b in range(n)] for a in range(n)])
    return mat.determinant()


def form_cartan_differential(form: VectorValuedForm, conn, bracket, args):
    """Koszul differential of a module-valued form, on section arguments.

    (d omega)(a_1..a_{k+1}) = sum_i (-1)^{i+1} nabla_{a_i} omega(.. a_i ..)
      + sum_{i<j} (-1)^{i+j} omega([a_i,a_j], .. a_i .. a_j ..).
    conn and bracket are callables: the apply of a connection on the
    value module and of a dull bracket (or their memos).
    """
    p = form.bundle.base_dim
    k = len(args)
    out = zero_section(p, form.value_rank)
    for i in range(k):
        rest = args[:i] + args[i + 1:]
        term = conn(args[i], form.eval_sections(rest))
        out = section_add(out, term) if i % 2 == 0 else section_sub(out, term)
    for i in range(k):
        for j in range(i + 1, k):
            rest = [bracket(args[i], args[j])] + \
                [args[m] for m in range(k) if m not in (i, j)]
            term = form.eval_sections(rest)
            # 1-based sign (-1)^{(i+1)+(j+1)} = (-1)^{i+j}
            out = section_add(out, term) if (i + j) % 2 == 0 else \
                section_sub(out, term)
    return out


# ---------------------------------------------------------------------------
# Lie algebroids and 2-term representations


@dataclass
class LieAlgebroidData:
    bundle: AnchoredBundle
    bracket: DullBracket

    def __post_init__(self):
        if self.bracket.bundle is not self.bundle:
            raise ValueError("the bracket is defined on a different bundle")


def _random_sections(rng, base_dim, rank, count=3):
    return [random_section(rng, base_dim, rank) for _ in range(count)]


def check_lie_algebroid(alg: LieAlgebroidData, seed: int = 0) -> CheckReport:
    """Skewness on frame components, anchor compatibility and the Jacobi
    identity on frames and seeded random sections.

    Settles (see ``report``).  The bracket is the Leibniz extension of
    its frame values in both slots, so the anchor_compat residual
    rho[u, v] - [rho u, rho v] is tensorial, and alternating once skew
    holds.  With it zero, the Jacobiator of a skew bracket is tensorial
    and alternating.  So the frame tuples, taken increasing, and these
    premises prove a label's sampled tuples:
        anchor_compat <- skew
        jacobi        <- skew, anchor_compat
    """
    rng = _random.Random(seed)
    report = CheckReport("lie algebroid", seed)
    bundle = alg.bundle
    p = bundle.base_dim
    frames = bundle.frames()
    randoms = report.sample(_random_sections(rng, p, bundle.rank))
    bracket, anchor_field = memo(alg.bracket.apply), memo(bundle.anchor_field)

    def anchor_compat(s1, s2):
        return section_sub(anchor_field(bracket(s1, s2)),
                           field_bracket(anchor_field(s1), anchor_field(s2)))

    report.add("skew", alg.bracket.is_skew(),
               witness="frame components")

    sections = frames + randoms
    labels = [f"q{i + 1}" for i in range(len(frames))] + \
        [f"r{i + 1}" for i in range(len(randoms))]
    for names, secs in sweep((labels, sections, 2, combinations)):
        report.check("anchor_compat", names, anchor_compat, *secs)
    for names, secs in sweep((labels, sections, 3, combinations)):
        report.check("jacobi", names, jacobiator, bracket, *secs)
    return report.settle({"anchor_compat": ("skew",),
                          "jacobi": ("skew", "anchor_compat")})


@dataclass
class TwoRepData:
    """2-term representation up to homotopy of a Lie algebroid A.

    The complex is partial: C -> B (matrix rank_b x rank_c); connB and
    connC are A-connections on B and C; curv holds R(a_i, a_j) as a
    Hom(B, C) block: curv indices (i, j, r, m) give the m-th C-component
    of R(a_i, a_j) applied to the r-th B-frame.
    """

    algebroid: LieAlgebroidData
    rank_b: int
    rank_c: int
    partial: PolyMatrix
    connB: LinearConnection
    connC: LinearConnection
    curv: PolyTensor

    @classmethod
    def curv_tensor(cls, base_dim, rank_a, rank_b, rank_c) -> PolyTensor:
        return PolyTensor(base_dim,
                          [(rank_a, 2, True), (rank_b, 1, False), (rank_c, 1, False)])

    def curv_matrix(self, a1, a2) -> PolyMatrix:
        """R(a1, a2) as a Hom(B, C) polynomial matrix (tensorial)."""
        return curvature_matrix(self.curv, a1, a2)

    def hom_derivative(self, connB, connC, a, phi: PolyMatrix) -> PolyMatrix:
        """nabla^Hom_a phi = connC_a . phi - phi . connB_a on a Hom(B,C)
        matrix, for the callables connB and connC (their memos)."""
        p = self.algebroid.bundle.base_dim
        out = PolyMatrix(p, self.rank_c, self.rank_b)
        for r in range(self.rank_b):
            col = [phi.data[m][r] for m in range(self.rank_c)]
            term1 = connC(a, col)
            br = unit_section(p, self.rank_b, r)
            term2 = phi.apply(connB(a, br))
            for m in range(self.rank_c):
                out.data[m][r] = term1[m] - term2[m]
        return out


def check_two_rep(rep: TwoRepData, seed: int = 0) -> CheckReport:
    """The algebroid's checks, then the chain map, both curvature
    identities and d_nabla R = 0 on frames and seeded random sections.

    Settles (see ``report``).  The connections are Leibniz extensions and
    R and partial are tensors, so chain_map is tensorial.  The connection
    curvatures are tensorial in the A-slots, in the module slot once
    algebroid:anchor_compat holds, and alternating once algebroid:skew
    holds; the Koszul differential of the alternating R is tensorial and
    alternating once skew holds.  So the frame tuples, the A-slots taken
    increasing, and these premises prove a label's sampled tuples:
        chain_map            <- (none)
        curv_on_C, curv_on_B <- algebroid:anchor_compat, algebroid:skew
        dR_zero              <- algebroid:skew
    """
    rng = _random.Random(seed)
    report = CheckReport("2-term representation", seed)
    report.merge(check_lie_algebroid(rep.algebroid, seed), prefix="algebroid:")

    bundle = rep.algebroid.bundle
    bracket = memo(rep.algebroid.bracket.apply)
    connB, connC = memo(rep.connB.apply), memo(rep.connC.apply)
    partial, curv = memo(rep.partial.apply), memo(rep.curv_matrix)
    p = bundle.base_dim
    a_secs = bundle.frames() + \
        report.sample(_random_sections(rng, p, bundle.rank))
    c_secs = [unit_section(p, rep.rank_c, m) for m in range(rep.rank_c)] + \
        report.sample(_random_sections(rng, p, rep.rank_c, count=1))
    b_secs = [unit_section(p, rep.rank_b, r) for r in range(rep.rank_b)] + \
        report.sample(_random_sections(rng, p, rep.rank_b, count=1))

    def chain_map(a, c):
        return section_sub(partial(connC(a, c)), connB(a, partial(c)))

    def curv_on_C(a1, a2, c):
        return section_sub(connection_curvature(connC, bracket, a1, a2, c),
                           curv(a1, a2).apply(partial(c)))

    def curv_on_B(a1, a2, b):
        return section_sub(connection_curvature(connB, bracket, a1, a2, b),
                           partial(curv(a1, a2).apply(b)))

    def dR_zero(a1, a2, a3):
        return _flatten_matrix(
            _two_rep_dR(rep, curv, bracket, connB, connC, a1, a2, a3))

    for names, args in sweep(("a", a_secs), ("c", c_secs)):
        report.check("chain_map", names, chain_map, *args)
    for pair, (a1, a2) in sweep(("a", a_secs, 2, combinations)):
        for names, (c,) in sweep(("c", c_secs)):
            report.check("curv_on_C", pair + names, curv_on_C, a1, a2, c)
        for names, (b,) in sweep(("b", b_secs)):
            report.check("curv_on_B", pair + names, curv_on_B, a1, a2, b)
    for names, args in sweep(("a", a_secs, 3, combinations)):
        report.check("dR_zero", names, dR_zero, *args)
    curving = ("algebroid:anchor_compat", "algebroid:skew")
    return report.settle({"chain_map": (), "curv_on_C": curving,
                          "curv_on_B": curving,
                          "dR_zero": ("algebroid:skew",)})


def _flatten_matrix(mat: PolyMatrix):
    return [mat.data[i][j] for i in range(mat.rows) for j in range(mat.cols)]


def _two_rep_dR(rep: TwoRepData, curv, bracket, connB, connC,
                a1, a2, a3) -> PolyMatrix:
    """(d_{nabla^Hom} R)(a1, a2, a3) as a Hom(B, C) matrix, for the
    callables curv = R, bracket, connB and connC."""
    p = rep.algebroid.bundle.base_dim
    out = PolyMatrix(p, rep.rank_c, rep.rank_b)
    args = [a1, a2, a3]
    for i in range(3):
        rest = [args[m] for m in range(3) if m != i]
        term = rep.hom_derivative(connB, connC, args[i], curv(*rest))
        out = out.add(term if i % 2 == 0 else term.scale(-1))
    for i in range(3):
        for j in range(i + 1, 3):
            k = 3 - i - j
            term = curv(bracket(args[i], args[j]), args[k])
            out = out.add(term if (i + j) % 2 == 0 else term.scale(-1))
    return out


def dualize_two_rep(rep: TwoRepData) -> TwoRepData:
    """Dual 2-term representation on partial^T : B* -> C*."""
    bundle = rep.algebroid.bundle
    # new R(a_i, a_j): C* -> B*, minus the transpose
    curv = TwoRepData.curv_tensor(
        bundle.base_dim, bundle.rank, rep.rank_c, rep.rank_b).fill(
        lambda i, j, m: [-rep.curv.get(i, j, r, m)
                         for r in range(rep.rank_b)])
    return TwoRepData(
        algebroid=rep.algebroid,
        rank_b=rep.rank_c,
        rank_c=rep.rank_b,
        partial=rep.partial.transpose(),
        connB=rep.connC.dual(),
        connC=rep.connB.dual(),
        curv=curv,
    )
