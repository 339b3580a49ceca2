"""Settled reports equal fully evaluated ones.

A checker that settles (see ``lie2check.report``) defers every witness
tuple that holds a seeded random section or function, and records a
label's deferred entries as passed when its frame entries and the
premises in its checker's table prove it.  Each case here runs a check
twice: as shipped, and with ``CheckReport.proves`` patched to return
False.  That proves no label, so every deferred tuple is evaluated with
the same code, and the second report is the one every tuple gives.  The
two JSON reports must be equal.
"""

from collections import Counter

import pytest

from lie2check import serialize
from lie2check.cli import CHECK_MODES, CliError, _run_check
from lie2check.courant import DegenerateCourant, check_courant_axioms
from lie2check.examples import EXAMPLES, build_example, tangent_double_pair_r1
from lie2check.exactpoly import Polynomial, PolyMatrix, PolyTensor
from lie2check.lie2 import check_lie2_morphism
from lie2check.matched import check_la_matched_pair
from lie2check.report import CheckReport

from helpers import curved_tangent_double, report_dict, splitting_morphism

SEEDS = (0, 5)
MODES = [m for m in CHECK_MODES if m != "auto" and not m.startswith("dirac-")]
# the modes whose checker, or a checker it nests, settles
SETTLING = ("lie-algebroid", "two-rep", "dorfman", "selfdual",
            "graded-jacobi", "matched-2reps", "courant", "core-courant",
            "la-pair", "q-poisson")


def _check(check, monkeypatch, full=False, labels=None):
    """The report dict of ``check()``, the number of items its checkers
    sampled and the number of deferred tuples its settles evaluated;
    ``labels``, a Counter, counts the evaluated tuples by label.  The
    full run must evaluate every tuple it deferred."""
    sampled, deferred, ran = [], [], []
    labels = Counter() if labels is None else labels
    sample, settle = CheckReport.sample, CheckReport.settle
    evaluate = CheckReport.evaluate

    def counting_sample(self, items):
        sampled.append(len(items))
        return sample(self, items)

    def counting_settle(self, premises):
        deferred.append(len(self._deferred))
        return settle(self, premises)

    def counting_evaluate(self, pending):
        ran.append(len(pending))
        labels.update(self.entries[index].label for index, _, _ in pending)
        evaluate(self, pending)

    with monkeypatch.context() as m:
        m.setattr(CheckReport, "sample", counting_sample)
        m.setattr(CheckReport, "settle", counting_settle)
        m.setattr(CheckReport, "evaluate", counting_evaluate)
        if full:
            m.setattr(CheckReport, "proves", lambda self, *_: False)
        report = check()
    if full:
        assert sum(ran) == sum(deferred)
    return report_dict(report), sum(sampled), sum(ran)


def _compare(kind, obj, modes, seeds, monkeypatch):
    """Settled against full reports in every mode the kind accepts; the
    number of deferred tuples each settled run evaluated, by mode and
    seed.  A run that sampled nothing deferred nothing, so its report is
    already the full one."""
    ran = {}
    for mode in modes:
        for seed in seeds:
            def check():
                return _run_check(mode, kind, obj, None, seed)[1]
            try:
                settled, sampled, ran[mode, seed] = _check(check, monkeypatch)
            except CliError:
                break
            if sampled:
                full = _check(check, monkeypatch, full=True)[0]
                assert settled == full, (mode, seed)
    return ran


def _decoded(name):
    """The example as a structure file decodes it."""
    obj, _ = build_example(name)
    kind, obj, _ = serialize.decode_structure(
        serialize.encode_structure(obj))
    return kind, obj


@pytest.mark.parametrize("name", sorted(
    n for n in EXAMPLES if not n.endswith("_dirac")))
def test_every_example_settles_to_its_full_report(name, monkeypatch):
    ran = _compare(*_decoded(name), MODES, SEEDS, monkeypatch)
    assert ran, "no mode accepts the example"
    if not name.startswith("broken_"):
        assert not any(ran.values()), ran


@pytest.mark.parametrize("name, mode", [
    ("broken_axb_cond5", "matched-2reps"),
    ("broken_selfdual_zero_r", "selfdual"),
])
def test_a_frame_failure_evaluates_the_sampled_tuples(name, mode,
                                                      monkeypatch):
    # broken_axb_cond5 fails condition_5 only on sampled tuples; its
    # frame failure is anchor_mixed
    ran = _compare(*_decoded(name), [mode], (0,), monkeypatch)
    assert ran[mode, 0] > 0


def _mode_checks(name, modes=MODES, seed=0):
    """(mode, check) for each mode that accepts the example."""
    kind, obj = _decoded(name)
    for mode in modes:
        def check(mode=mode):
            return _run_check(mode, kind, obj, None, seed)[1]
        try:
            check()
        except CliError:
            continue
        yield mode, check


@pytest.mark.parametrize("name", ["broken_so3_pair_dq",
                                  "broken_r4_nonclosed"])
def test_a_failing_report_evaluates_only_unproven_labels(name,
                                                         monkeypatch):
    # each fails a few labels; the labels whose frame entries pass and
    # whose premises hold keep their placeholders
    settled = full = 0
    for mode, check in _mode_checks(name):
        report, _, ran = _check(check, monkeypatch)
        every, _, ran_all = _check(check, monkeypatch, full=True)
        assert report == every, mode
        settled, full = settled + ran, full + ran_all
    assert settled < full, (settled, full)


def test_a_failing_premise_evaluates_its_labels(monkeypatch):
    # condition_5 fails only on sampled tuples; its premise anchor_mixed
    # fails on frames, so its tuples are evaluated
    (_, check), = _mode_checks("broken_axb_cond5", ["matched-2reps"])
    labels = Counter()
    report = _check(check, monkeypatch, labels=labels)[0]
    failing = {c["label"] for c in report["checks"] if not c["passed"]}
    assert labels["condition_5"] > 0
    assert {"condition_5", "anchor_mixed"} <= failing


@pytest.mark.parametrize("name", sorted(
    n for n in EXAMPLES if not n.endswith("_dirac")))
def test_every_premise_table_covers_its_labels(name, monkeypatch):
    # a misspelt key or premise would switch settling off, without any
    # failure, for its label or for every label that needs the premise;
    # both must fail here
    faults = []
    settle = CheckReport.settle

    def checked_settle(self, premises):
        recorded = {e.label for e in self.entries}
        deferred = {self.entries[i].label for i, _, _ in self._deferred}
        named = {p for ps in premises.values() for p in ps
                 if isinstance(p, str)}
        faults.extend((self.title, label) for label in sorted(
            (deferred - set(premises)) | (named - recorded)))
        return settle(self, premises)

    monkeypatch.setattr(CheckReport, "settle", checked_settle)
    modes = [mode for mode, _ in _mode_checks(name, SETTLING)]
    assert modes, "no settling mode accepts the example"
    assert not faults, faults


def test_the_curved_tangent_double_settles(monkeypatch):
    ran = _compare("lapair", curved_tangent_double(), MODES, SEEDS,
                   monkeypatch)
    assert sorted({mode for mode, _ in ran}) == sorted(
        ["la-pair", "q-poisson", "core-courant", "selfdual",
         "graded-jacobi", "symplectic", "dorfman", "homological"])
    assert not any(ran.values()), ran


@pytest.mark.parametrize("sign", [-1, 1], ids=["minus_phi", "plus_phi"])
def test_the_morphism_check_evaluates_every_deferred_tuple(sign,
                                                           monkeypatch):
    # its premise table is empty, so no label is proven and the settled
    # run evaluates every tuple it deferred, as the full run does
    args = splitting_morphism(sign)
    settled, sampled, ran = _check(lambda: check_lie2_morphism(*args),
                                   monkeypatch)
    full, _, ran_all = _check(lambda: check_lie2_morphism(*args),
                              monkeypatch, full=True)
    assert settled == full
    assert sampled and ran == ran_all > 0


# ---------------------------------------------------------------------------
# the draw stream: every report draws from one generator seeded by its
# seed, in the order of the calls, and the values are the ones that
# ``random_polynomial`` has always drawn for that seed


DRAWN = {
    0: ([["3 + 3*x2^2 - 3*x1*x2 - x1^2", "1 + 3*x1 + 3*x1*x2 - x1^2",
          "-x2 - 2*x1 + x2^2 + x1*x2 - 2*x1^2"],
         ["-1 - 2*x2 - 3*x1 + 3*x2^2 + x1*x2 + 3*x1^2",
          "-1 + x2 + 3*x1 + 2*x2^2 + x1*x2 - 2*x1^2",
          "-1 - 3*x2 - 3*x1 + 2*x2^2 + 3*x1*x2 + 2*x1^2"]],
        ["-1", "1 - 3*x1"]),
    1: ([["-2 + x2 + 3*x1 + 3*x2^2 + 3*x1*x2 - 3*x1^2", "-1 - 3*x2 + 3*x1",
          "2 - 2*x1 + 3*x2^2 - 3*x1*x2"],
         ["-3 + 3*x2 + x1*x2 + 3*x1^2", "3 - 3*x2 + 2*x2^2 - x1*x2 + 2*x1^2",
          "3 - 2*x2 - 3*x1 + x2^2 - x1*x2 - 3*x1^2"]],
        ["-3 - 3*x1", "2 + x1"]),
}


@pytest.mark.parametrize("seed", sorted(DRAWN))
def test_the_draw_stream_is_pinned(seed):
    report = CheckReport("t", seed)
    sections = report.draw(2, 3, 2)
    functions = report.draw_functions(1, 2, max_degree=1)
    assert ([[f.render() for f in s] for s in sections],
            [f.render() for f in functions]) == DRAWN[seed]


# ---------------------------------------------------------------------------
# mutants: one stored polynomial changed at a time


def _poly_slots(obj, seen):
    """(setter, key, value) for every stored polynomial of a structure,
    each shared container visited once."""
    if id(obj) in seen or isinstance(obj, (Polynomial, str, tuple)) or \
            not (hasattr(obj, "__dict__") or isinstance(
                obj, (list, PolyMatrix, PolyTensor))):
        return
    seen.add(id(obj))
    if isinstance(obj, PolyMatrix):
        for row in obj.data:
            for j, value in enumerate(row):
                yield row.__setitem__, j, value
    elif isinstance(obj, PolyTensor):
        for key, value in sorted(obj.entries.items()):
            yield obj.set, key, value
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            if isinstance(item, Polynomial):
                yield obj.__setitem__, i, item
            else:
                yield from _poly_slots(item, seen)
    else:
        for value in vars(obj).values():
            yield from _poly_slots(value, seen)


MUTATED = ("so3_poisson_pair", "semidirect_flat", "euclidean_curved_r2",
           "so3_quadratic", "axb_matched")
PER_EXAMPLE = 3   # stored polynomials mutated, evenly spaced


@pytest.mark.parametrize("name", MUTATED)
def test_mutants_settle_to_their_full_reports(name, monkeypatch):
    kind, obj = _decoded(name)
    modes = [m for m in SETTLING if m != "graded-jacobi"]
    slots = list(_poly_slots(obj, set()))
    slots = slots[::max(1, len(slots) // PER_EXAMPLE)]
    for set_, key, value in slots:
        p = value.base_dim
        for delta in (Polynomial.const(p, 1), Polynomial.variable(p, 0)):
            set_(key, value + delta)
            try:
                _compare(kind, obj, modes, (0,), monkeypatch)
            finally:
                set_(key, value)


# ---------------------------------------------------------------------------
# the side condition of check_courant_axioms


def _degenerate_counterexample():
    """Rank 2 over R^1, pairing diag(0, 1), zero anchor, D f = f' e1 and
    [[e2, e1]] = e1 = -[[e1, e2]].  Every frame entry passes, but
    [[e2, D f]] = f' e1 is not D(rho(e2) f) = 0, so CA1 fails on
    sections: at (e2, x e2, e2) its residual is e1."""
    z, one = Polynomial.zero(1), Polynomial.const(1, 1)
    return DegenerateCourant(
        1, 2, PolyMatrix(1, 1, 2),
        PolyMatrix(1, 2, 2, [[z, z], [z, one]]),
        [[[z, z], [-one, z]], [[one, z], [z, z]]],
        PolyMatrix(1, 2, 1, [[one], [z]]))


def test_a_degenerate_pairing_needs_the_side_condition(monkeypatch):
    ca = _degenerate_counterexample()
    settled, _, ran = _check(lambda: check_courant_axioms(ca), monkeypatch)
    full = _check(lambda: check_courant_axioms(ca), monkeypatch,
                  full=True)[0]
    assert settled == full and ran > 0
    failing = [c for c in settled["checks"] if not c["passed"]]
    assert failing and {c["label"] for c in failing} == {"CA1"}
    assert all("e3" in c["witness"] or "e4" in c["witness"]
               for c in failing)
    # without the side condition the frame entries alone would settle
    monkeypatch.setattr(CheckReport, "proves",
                        lambda self, side_condition=None: self.passed)
    assert check_courant_axioms(ca).passed


# ---------------------------------------------------------------------------
# the side condition of check_la_matched_pair


def test_an_asymmetric_partial_needs_the_side_condition(monkeypatch):
    # partial_q of the self-dual half made asymmetric: every frame entry
    # passes and both brackets are skew, but M1 and almost_C are not
    # tensorial, and they fail on the sampled sections q3 and tau3
    pair = tangent_double_pair_r1()
    S = pair.selfdual
    S.partial_q[1, 0] = S.partial_q[1, 0] + Polynomial.const(1, 1)
    assert S.algebroid.bracket.is_skew()
    assert pair.dorfman.dual_bracket().is_skew()

    settled, _, ran = _check(lambda: check_la_matched_pair(pair),
                             monkeypatch)
    full = _check(lambda: check_la_matched_pair(pair), monkeypatch,
                  full=True)[0]
    assert settled == full and ran > 0
    failing = [c for c in settled["checks"] if not c["passed"]]
    assert failing and {c["label"] for c in failing} == {"M1", "almost_C"}
    assert all("q3" in c["witness"] or "tau3" in c["witness"]
               for c in failing)
    # without the side condition the frame entries alone would settle
    monkeypatch.setattr(CheckReport, "proves",
                        lambda self, side_condition=None: self.passed)
    assert check_la_matched_pair(pair).passed
