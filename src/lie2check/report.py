"""Check reports: labelled pass/fail entries with witnesses and residuals,
and ``sweep``, which enumerates the witness tuples a checker evaluates."""

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

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def add(self, label: str, passed: bool, witness: str = "", residual: str = ""):
        self.entries.append(CheckEntry(label, passed, witness, residual))

    def add_residual_section(self, label: str, residual, witness: str = ""):
        """Record one residual section (list of Polynomials); passes iff zero."""
        nonzero = [(i, f) for i, f in enumerate(residual) if not f.is_zero()]
        if not nonzero:
            self.add(label, True, witness)
        else:
            i, f = nonzero[0]
            self.add(label, False, witness,
                     f"component {i + 1}: {f.render()}")

    def add_residual_poly(self, label: str, residual, witness: str = ""):
        """Record one residual with ``is_zero()`` and ``render()`` (a
        Polynomial or a GradedFunction); passes iff zero."""
        if residual.is_zero():
            self.add(label, True, witness)
        else:
            self.add(label, False, witness, residual.render())

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
