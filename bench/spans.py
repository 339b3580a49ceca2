"""Span tracer that times lie2check's layers from outside the program.

The tracer replaces public functions and methods of the ``lie2check``
modules with timing wrappers; ``src/`` is never edited.  A function that
other modules import by name (``from .poisson import check_selfdual2rep``)
is bound in several namespaces, so every binding of the same object is
replaced, and all are restored by ``uninstall``.

Two kinds of wrapper exist:

* layer spans (checkers, brackets, connections, serializer, report
  writer, CLI) are kept in memory as records ``(id, name, start, end,
  parent, call, self_s)`` and can be written out as JSONL at the end;
* kernel spans (``Polynomial`` arithmetic, millions per pass) are folded
  into per-operation call counts and self time as they close, because
  keeping one record each would cost more memory than the program.

Self time is a span's duration minus the time covered by its child
spans, kernel children included.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from fractions import Fraction

_clock = time.perf_counter

# (module, attribute, layer).  A dotted attribute names a method.
LAYER_TARGETS = [
    ("cli", "main", "cli"),
    ("cli", "_write_report", "report.write"),
    ("serialize", "decode_structure", "serialize.decode"),
    ("serialize", "encode_structure", "serialize.encode"),
    ("bundle", "check_lie_algebroid", "bundle.check"),
    ("bundle", "check_two_rep", "bundle.check"),
    ("bundle", "LinearConnection.apply", "bundle.connection_apply"),
    ("bundle", "DullBracket.apply", "bundle.dull_bracket_apply"),
    ("bundle", "TwoRepData.curv_matrix", "bundle.curv_matrix"),
    ("lie2", "check_dorfman2rep", "lie2.check"),
    ("lie2", "check_homological", "lie2.check"),
    ("lie2", "check_lie2_morphism", "lie2.check"),
    ("lie2", "Dorfman2Rep.curv_matrix", "lie2.curv_matrix"),
    ("lie2", "Dorfman2Rep.dual_bracket", "lie2.dual_bracket"),
    ("poisson", "check_selfdual2rep", "poisson.check"),
    ("poisson", "check_graded_jacobi", "poisson.check"),
    ("poisson", "is_symplectic", "poisson.check"),
    ("poisson", "SelfDual2Rep.curv_matrix", "poisson.curv_matrix"),
    ("poisson", "SelfDual2Rep.as_two_rep", "poisson.as_two_rep"),
    ("matched", "check_matched_two_reps", "matched.check"),
    ("matched", "check_la_matched_pair", "matched.check"),
    ("matched", "check_q_preserves_poisson", "matched.check"),
    ("courant", "check_courant_axioms", "courant.check"),
    ("courant", "check_core_courant", "courant.check"),
    ("courant", "check_dirac", "courant.check"),
    ("courant", "check_manin_pair", "courant.check"),
    ("courant", "DegenerateCourant.bracket", "courant.bracket"),
]

# Polynomial methods folded into kernel totals.  __rmul__ only forwards
# to __mul__ and is left unwrapped.
KERNEL_TARGETS = [
    ("__init__", "exactpoly.init"),
    ("__add__", "exactpoly.add"),
    ("__mul__", "exactpoly.mul"),
    ("diff", "exactpoly.diff"),
    ("__neg__", "exactpoly.neg"),
    ("__sub__", "exactpoly.sub"),
    ("scale", "exactpoly.scale"),
]


class Tracer:
    """Collects spans for one benchmark pass; install, run, uninstall."""

    def __init__(self):
        self.spans = []      # layer span records, indexed by span id
        self.kernel = {}     # kernel op -> [calls, self_s]
        self.add_zero = 0    # __add__ calls with a zero operand
        self.mul_zero = 0    # __mul__ calls with a zero operand
        self.term_products = 0  # term pairs multiplied by poly * poly
        self.call_id = None  # index of the CLI call being traced
        # One frame per open span: [child time, id of nearest layer span].
        self._stack = [[0.0, None]]
        self._undo = []

    # -- wrappers -------------------------------------------------------
    def _layer(self, name, fn):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = len(spans)
            spans.append(None)
            frame = [0.0, span_id]
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                parent[0] += end - start
                spans[span_id] = (span_id, name, start, end, parent[1],
                                  self.call_id, end - start - frame[0])
        return wrapper

    def _kernel(self, name, fn):
        stack = self._stack
        stat = self.kernel.setdefault(name, [0, 0.0])
        probe = {"exactpoly.add": self._probe_add,
                 "exactpoly.mul": self._probe_mul}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if probe is not None:
                probe(*args)
            parent = stack[-1]
            frame = [0.0, parent[1]]
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack.pop()
                parent[0] += elapsed
                stat[0] += 1
                stat[1] += elapsed - frame[0]
        return wrapper

    def _probe_add(self, a, b):
        if not a.terms or not b.terms:
            self.add_zero += 1

    def _probe_mul(self, a, b):
        if isinstance(b, (int, Fraction)):
            if not a.terms or b == 0:
                self.mul_zero += 1
        elif not a.terms or not b.terms:
            self.mul_zero += 1
        else:
            self.term_products += len(a.terms) * len(b.terms)

    # -- installation ---------------------------------------------------
    def install(self):
        """Wrap every target in the imported ``lie2check`` modules."""
        modules = [m for n, m in sys.modules.items()
                   if n.split(".")[0] == "lie2check" and m is not None]
        for mod_name, attr, layer in LAYER_TARGETS:
            owner = sys.modules[f"lie2check.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch_method(cls, meth,
                                   self._layer(layer, cls.__dict__[meth]))
            else:
                original = getattr(owner, attr)
                wrapped = self._layer(layer, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, key, value))
                            setattr(mod, key, wrapped)
        poly = sys.modules["lie2check.exactpoly"].Polynomial
        for meth, name in KERNEL_TARGETS:
            self._patch_method(poly, meth,
                               self._kernel(name, poly.__dict__[meth]))

    def _patch_method(self, cls, meth, wrapped):
        self._undo.append((cls, meth, cls.__dict__[meth]))
        setattr(cls, meth, wrapped)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- results --------------------------------------------------------
    def layer_totals(self):
        """layer -> [calls, self_s] over the recorded layer spans."""
        totals = {}
        for _, name, _, _, _, _, self_s in self.spans:
            stat = totals.setdefault(name, [0, 0.0])
            stat[0] += 1
            stat[1] += self_s
        return totals

    def nested_checks(self):
        """Checker spans opened while another checker span was open."""
        count = 0
        for span in self.spans:
            if not span[1].endswith(".check"):
                continue
            parent = span[4]
            while parent is not None:
                if self.spans[parent][1].endswith(".check"):
                    count += 1
                    break
                parent = self.spans[parent][4]
        return count

    def write_jsonl(self, path):
        keys = ("id", "name", "start", "end", "parent", "call", "self_s")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
            for name, (calls, self_s) in sorted(self.kernel.items()):
                fh.write(json.dumps({"kernel": name, "calls": calls,
                                     "self_s": self_s}) + "\n")
