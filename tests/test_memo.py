"""The checkers' operator memo: value keys, and reports it cannot change.

Each checker wraps the operators it applies with ``bundle.memo``.  The
unit tests pin the table's keys and its failure modes.  The report tests
run the corpus and the curved tangent double through the CLI twice, once
with every module's ``memo`` replaced, and compare the JSON bytes.
"""

import copy
import sys
from fractions import Fraction

import pytest

from lie2check import bundle, serialize
from lie2check.cli import main
from lie2check.courant import standard_courant, tangent_double_pair
from lie2check.examples import EXAMPLES
from lie2check.exactpoly import Polynomial, PolyMatrix


def _counted(fn):
    calls = []

    def wrapped(*args):
        calls.append(args)
        return fn(*args)
    return wrapped, calls


# ---------------------------------------------------------------------------
# unit cases


def test_equal_lists_built_apart_share_an_entry():
    fn, calls = _counted(lambda u, v: [a + b for a, b in zip(u, v)])
    add = bundle.memo(fn)
    x = Polynomial.variable(2, 0)
    first = add([x, x], [x, Polynomial.zero(2)])
    again = add([Polynomial.variable(2, 0), x],
                [x, Polynomial.zero(2)])
    assert again is first
    assert len(calls) == 1
    add([x, x], [x, x])
    assert len(calls) == 2


def test_int_and_equal_fraction_coefficients_share_an_entry():
    x = Polynomial.variable(1, 0)
    as_int = Polynomial(1, {(1,): 2})
    # products keep a Fraction coefficient even when it is integral
    as_fraction = Polynomial.const(1, Fraction(1, 2)) * \
        Polynomial.const(1, 4) * x
    assert type(as_int.monomials()[(1,)]) is int
    assert type(as_fraction.monomials()[(1,)]) is Fraction
    fn, calls = _counted(lambda f: f.diff(0))
    diff = bundle.memo(fn)
    assert diff(as_int) is diff(as_fraction)
    fn, section_calls = _counted(lambda u: [f.diff(0) for f in u])
    section_diff = bundle.memo(fn)
    assert section_diff([as_fraction, x]) is section_diff([as_int, x])
    assert len(calls) == len(section_calls) == 1


def test_a_raising_call_is_not_cached():
    def fail(u):
        raise ValueError("boom")

    fn, calls = _counted(fail)
    op = bundle.memo(fn)
    for _ in range(2):
        with pytest.raises(ValueError, match="boom"):
            op([Polynomial.zero(1)])
    assert len(calls) == 2


def test_an_unhashable_argument_is_not_memoized():
    fn, calls = _counted(lambda m, v: m.apply(v))
    apply = bundle.memo(fn)
    mat = PolyMatrix.identity(1, 1)
    vec = [Polynomial.variable(1, 0)]
    assert apply(mat, vec) == apply(mat, vec) == vec
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# reports with and without the memo


def _curved_double():
    """standard_courant(2) doubled along a metric connection with curvB != 0."""
    z, x2 = Polynomial.zero(2), Polynomial.variable(2, 1)
    g0 = [[z, x2, z, z], [z, z, z, z], [z, z, z, z], [z, z, -x2, z]]
    g1 = [[z] * 4 for _ in range(4)]
    return tangent_double_pair(standard_courant(2), [g0, g1])


def _cases(tmp_path):
    """(name, argv without --seed/--out) for every corpus example in its
    default mode and the curved double in la-pair and core-courant."""
    paths = {}
    for name in sorted(EXAMPLES):
        paths[name] = tmp_path / f"{name}.json"
        assert main(["example", name, "--out", str(paths[name])]) == 0
    cases = []
    for name in sorted(EXAMPLES):
        if name.endswith("_dirac"):
            argv = ["check", str(paths["so3_lie2"]), str(paths[name]),
                    "--mode", "dirac-vb"]
        else:
            argv = ["check", str(paths[name])]
        cases.append((name, argv))
    curved = tmp_path / "curved_double.json"
    curved.write_text(serialize.dumps(serialize.encode_structure(
        _curved_double())), encoding="utf-8")
    for mode in ("la-pair", "core-courant"):
        cases.append((f"curved_double:{mode}",
                      ["check", str(curved), "--mode", mode]))
    return cases


def _memo_bindings():
    """Every lie2check module that binds ``memo``; the checkers look it up
    there when they start."""
    mods = [mod for name, mod in sorted(sys.modules.items())
            if name.startswith("lie2check.")
            and getattr(mod, "memo", None) is bundle.memo]
    assert {m.__name__ for m in mods} >= {
        "lie2check.bundle", "lie2check.courant", "lie2check.lie2",
        "lie2check.matched"}
    return mods


def _reports(tmp_path, cases, seed, after_each=None):
    out = {}
    for name, argv in cases:
        path = tmp_path / "report.json"
        code = main([*argv, "--format", "json", "--seed", str(seed),
                     "--out", str(path)])
        out[name] = (code, path.read_bytes())
        if after_each is not None:
            after_each(name)
    return out


@pytest.mark.parametrize("seed", [0, 5])
def test_reports_are_byte_identical_without_the_memo(tmp_path, monkeypatch,
                                                     seed):
    cases = _cases(tmp_path)
    memoized = _reports(tmp_path, cases, seed)
    for mod in _memo_bindings():
        monkeypatch.setattr(mod, "memo", lambda fn: fn)
    plain = _reports(tmp_path, cases, seed)
    assert [name for name, _ in cases if memoized[name] != plain[name]] == []
    broken = [name for name in EXAMPLES if name.startswith("broken_")]
    assert all(plain[name][0] == 1 for name in broken)


def test_memoized_results_are_never_mutated(tmp_path, monkeypatch):
    """Each stored result is deep-copied when it is stored; after every
    check it must still equal its copy, or a caller changed a value that
    later callers share."""
    stored, recorded = [], []
    real_memo = bundle.memo

    def recording_memo(fn):
        def record(*args):
            value = fn(*args)
            stored.append((value, copy.deepcopy(value)))
            recorded.append(fn)
            return value
        return real_memo(record)

    def check_unchanged(name):
        changed = sum(value != snapshot for value, snapshot in stored)
        assert changed == 0, f"{name}: {changed} memoized results mutated"
        stored.clear()

    cases = _cases(tmp_path)
    for mod in _memo_bindings():
        monkeypatch.setattr(mod, "memo", recording_memo)
    _reports(tmp_path, cases, 0, after_each=check_unchanged)
    assert len(recorded) > 1000
