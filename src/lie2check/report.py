"""Check reports: labelled pass/fail entries with witnesses and residuals,
and ``sweep``, which enumerates the witness tuples a checker evaluates.

Every checker records each witness tuple with one call,
``CheckReport.check(label, names, residual, *args)``, and a condition on
stored components, or an identity that holds by construction, with
``CheckReport.add``.

Drawing.  Besides frames, a checker evaluates its identities on sampled
sections and functions, and it takes them from its report: each report
seeds one ``random.Random`` from its ``seed`` at construction, and
``CheckReport.draw`` and ``CheckReport.draw_functions`` return the next
sections or functions of that stream, each component a
``random_polynomial``.  This module is the only one that draws.

Settling.  Every draw is marked as sampled (``CheckReport.sample``).  A
tuple that holds a sampled item is deferred: it gets a passing
placeholder at its position.  Before returning, a checker that draws
calls ``CheckReport.settle`` with its premise table, which maps each
label it defers to what its docstring's completeness argument needs:
other labels, and zero-argument shape predicates.  A label is proven
when every entry recorded under it passed and every premise holds; the
argument then proves its deferred residuals zero, and their placeholders
stand.  Only the deferred tuples of the other labels are evaluated, in
place; an empty table proves no label.  The draws themselves are made
either way, so the report is the same as if every tuple had been
evaluated in its loop.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .exactpoly import Polynomial


def sweep(*slots):
    """Every witness tuple over the slots, the first slot outermost.

    A slot is ``(names, items)`` or ``(names, items, k, pick)``: ``names``
    is a prefix (item i is called prefix + str(i + 1)) or one name per
    item, ``k`` (default 1) is how many items the slot takes, and
    ``pick`` chooses their indices: ``itertools.product`` independently,
    ``combinations`` strictly increasing, ``combinations_with_replacement``
    non-decreasing.  Returns a list of ``(names, items)`` pairs, each one
    flat tuple over all slots.
    """
    out = [((), ())]
    for names, items, *rule in slots:
        k, pick = rule or (1, product)
        if isinstance(names, str):
            names = [f"{names}{i + 1}" for i in range(len(items))]
        idx = range(len(items))
        draws = [(tuple([names[i] for i in d]), tuple([items[i] for i in d]))
                 for d in (product(idx, repeat=k) if pick is product
                           else pick(idx, k))]
        out = [(n + dn, s + ds) for n, s in out for dn, ds in draws]
    return out


def random_polynomial(rng, base_dim: int, max_degree: int = 2) -> Polynomial:
    """Small random polynomial with integer coefficients in [-3, 3]: one
    draw per monomial of degree at most ``max_degree``, in lexicographic
    order of the exponent tuples."""
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


def witness(names) -> str:
    """The report's witness for a tuple of section names."""
    return f"({', '.join(names)})"


def residual_entry(label: str, residual, witness: str = "") -> "CheckEntry":
    """The entry for one residual, passing iff it is zero: a section (a
    list of Polynomials) fails at its first nonzero component; anything
    else (a Polynomial or a GradedFunction) renders whole."""
    if isinstance(residual, list):
        for i, f in enumerate(residual):
            if not f.is_zero():
                return CheckEntry(label, False, witness,
                                  f"component {i + 1}: {f.render()}")
        return CheckEntry(label, True, witness)
    if residual.is_zero():
        return CheckEntry(label, True, witness)
    return CheckEntry(label, False, witness, residual.render())


@dataclass
class CheckEntry:
    label: str
    passed: bool
    witness: str = ""
    residual: str = ""


@dataclass
class CheckReport:
    """Outcome of a structure check: one entry per axiom or condition."""

    title: str
    seed: int = 0
    entries: list = field(default_factory=list)
    # the generator of every draw, seeded from ``seed``
    _rng: random.Random = field(init=False, repr=False, compare=False)
    # id -> item for the sampled draws (holding them keeps the ids
    # valid), and (index, residual, args) per deferred entry
    _sampled: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)
    _deferred: list = field(default_factory=list, init=False, repr=False,
                            compare=False)
    # during ``settle``: its premise table and the verdicts taken so far
    _premises: dict = field(default=None, init=False, repr=False,
                            compare=False)
    _verdicts: dict = field(default=None, init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        self._rng = random.Random(self.seed)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def add(self, label: str, passed: bool, witness: str = "", residual: str = ""):
        self.entries.append(CheckEntry(label, passed, witness, residual))

    def draw(self, base_dim: int, rank: int, count: int):
        """The next ``count`` sections of a rank-``rank`` bundle over
        ``base_dim`` coordinates, marked as sampled; each component is a
        ``random_polynomial`` of degree at most 2."""
        return self.sample([[random_polynomial(self._rng, base_dim)
                             for _ in range(rank)] for _ in range(count)])

    def draw_functions(self, base_dim: int, count: int, max_degree: int = 2):
        """The next ``count`` functions over ``base_dim`` coordinates, of
        degree at most ``max_degree``, marked as sampled."""
        return self.sample([random_polynomial(self._rng, base_dim, max_degree)
                            for _ in range(count)])

    def sample(self, items):
        """Mark drawn sections or functions as sampled; returns ``items``."""
        for item in items:
            self._sampled[id(item)] = item
        return items

    def check(self, label: str, names, residual, *args):
        """Record the residual ``residual(*args)`` at the witness of
        ``names``.  If an argument is sampled, the call is deferred to
        ``settle`` behind a passing placeholder."""
        sampled = self._sampled
        for arg in args:
            if id(arg) in sampled:
                self._deferred.append((len(self.entries), residual, args))
                self.entries.append(CheckEntry(label, True, witness(names)))
                return
        self.entries.append(residual_entry(label, residual(*args),
                                           witness(names)))

    def settle(self, premises):
        """Finish the deferred entries and return the report.

        ``premises`` maps each deferred label to the labels and shape
        predicates its completeness argument needs.  Each deferred
        residual whose label ``proves`` does not prove is evaluated, in
        recording order, and replaces its placeholder; the others keep
        their passing placeholders."""
        deferred, self._deferred = self._deferred, []
        self._sampled = {}
        if deferred:
            entries = self.entries
            # a failing entry disproves its label; a deferred label with
            # no stated argument, and a premise that names no recorded
            # label, are never proven
            recorded = {e.label for e in entries}
            named = {p for ps in premises.values() for p in ps
                     if isinstance(p, str)}
            waiting = {entries[i].label for i, _, _ in deferred}
            unproven = ({e.label for e in entries if not e.passed}
                        | (waiting - premises.keys()) | (named - recorded))
            self._verdicts = dict.fromkeys(unproven, False)
            self._premises = premises
            self.evaluate([d for d in deferred
                           if not self.proves(entries[d[0]].label)])
            self._verdicts = self._premises = None
        return self

    def proves(self, premise) -> bool:
        """Whether the frames prove ``premise`` during ``settle``: a
        predicate holds when it returns true, and a label is proven when
        every entry recorded under it passed and each of its premises is
        proven.  A recorded label outside the table records frame
        entries only, so its entries decide it.  Each verdict is taken
        once."""
        verdicts = self._verdicts
        if premise not in verdicts:
            verdicts[premise] = False   # a circular argument proves nothing
            verdicts[premise] = premise() if callable(premise) else all(
                self.proves(p) for p in self._premises.get(premise, ()))
        return verdicts[premise]

    def evaluate(self, deferred):
        """Replace each deferred entry's placeholder by its evaluation."""
        for index, residual, args in deferred:
            placeholder = self.entries[index]
            self.entries[index] = residual_entry(
                placeholder.label, residual(*args), placeholder.witness)

    def merge(self, other: "CheckReport", prefix: str = ""):
        for e in other.entries:
            label = f"{prefix}{e.label}" if prefix else e.label
            self.entries.append(CheckEntry(label, e.passed, e.witness, e.residual))

    def failing_labels(self):
        return [e.label for e in self.entries if not e.passed]

    def render_text(self) -> str:
        lines = [f"{self.title}  [seed {self.seed}]"]
        for e in self.entries:
            mark = "ok  " if e.passed else "FAIL"
            line = f"  {mark} {e.label}"
            if e.witness:
                line += f"  at {e.witness}"
            if e.residual:
                line += f"  residual: {e.residual}"
            lines.append(line)
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)
