"""Check reports: labelled pass/fail entries with witnesses and residuals,
and ``sweep``, which enumerates the witness tuples a checker evaluates.

Every checker records each witness tuple with one call,
``CheckReport.check(label, names, residual, *args)``, and a condition on
stored components, or an identity that holds by construction, with
``CheckReport.add``.

Settling.  Besides frames, a checker evaluates its identities on
sections and functions drawn from a seeded ``random.Random``.  A checker
that settles marks those draws with ``CheckReport.sample``; one that
does not has every ``check`` evaluated at once.  A tuple that holds a
sampled item is deferred: it gets a passing placeholder at its position.
Before returning, the checker calls ``CheckReport.settle``.  If every
entry recorded so far passed, and the checker's side condition (if it
has one) holds, its docstring's completeness argument proves every
deferred residual zero, and the placeholders stand.  Otherwise every
deferred tuple is evaluated in place.  The draws themselves are made
either way, so the report is the same as if every tuple had been
evaluated in its loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product


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

    def to_dict(self):
        return {
            "label": self.label,
            "passed": self.passed,
            "witness": self.witness,
            "residual": self.residual,
        }


@dataclass
class CheckReport:
    """Outcome of a structure check: one entry per axiom or condition."""

    title: str
    seed: int = 0
    entries: list = field(default_factory=list)
    # id -> item for the sampled draws (holding them keeps the ids
    # valid), and (index, residual, args) per deferred entry
    _sampled: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)
    _deferred: list = field(default_factory=list, init=False, repr=False,
                            compare=False)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def add(self, label: str, passed: bool, witness: str = "", residual: str = ""):
        self.entries.append(CheckEntry(label, passed, witness, residual))

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

    def settle(self, side_condition=None):
        """Finish the deferred entries and return the report.

        When ``proves`` holds, the placeholders stand; otherwise every
        deferred residual is evaluated in recording order and replaces
        its placeholder."""
        deferred, self._deferred = self._deferred, []
        self._sampled = {}
        if deferred and not self.proves(side_condition):
            self.evaluate(deferred)
        return self

    def proves(self, side_condition=None) -> bool:
        """Every entry so far passed and ``side_condition()``, if given,
        holds: the premises of the checker's completeness argument."""
        return self.passed and (side_condition is None or side_condition())

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

    def to_dict(self):
        return {
            "title": self.title,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [e.to_dict() for e in self.entries],
        }

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
