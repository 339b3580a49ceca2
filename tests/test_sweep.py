"""The witness-tuple enumerator ``report.sweep`` against nested loops."""

from itertools import combinations, combinations_with_replacement, product

from hypothesis import given, settings, strategies as st

from lie2check.report import sweep, witness

PICKS = {"product": product, "combinations": combinations,
         "combinations_with_replacement": combinations_with_replacement}


def _draws(n, k, rule):
    """Index tuples of length k over range(n) in lexicographic order, by
    k nested loops; the increasing rules keep the ordered tuples."""
    out = [()]
    for _ in range(k):
        out = [t + (i,) for t in out for i in range(n)]
    if rule == "combinations":
        out = [t for t in out if all(a < b for a, b in zip(t, t[1:]))]
    elif rule == "combinations_with_replacement":
        out = [t for t in out if all(a <= b for a, b in zip(t, t[1:]))]
    return out


def _reference(slots):
    """Nested loops over the slots, the first slot outermost."""
    out = [((), ())]
    for names, items, k, rule in slots:
        if isinstance(names, str):
            names = [f"{names}{i + 1}" for i in range(len(items))]
        out = [(n + tuple(names[i] for i in t), s + tuple(items[i] for i in t))
               for n, s in out for t in _draws(len(items), k, rule)]
    return out


@st.composite
def _slot(draw):
    size = draw(st.integers(0, 4))
    items = [object() for _ in range(size)]
    if draw(st.booleans()):
        names = draw(st.sampled_from(["a", "q", "tau"]))
    else:
        names = [f"n{draw(st.integers(0, 9))}_{i}" for i in range(size)]
    return names, items, draw(st.integers(1, 3)), draw(st.sampled_from(
        sorted(PICKS)))


@settings(max_examples=300, deadline=None)
@given(st.lists(_slot(), min_size=1, max_size=3))
def test_sweep_matches_nested_loops(slots):
    got = list(sweep(*((names, items, k, PICKS[rule])
                       for names, items, k, rule in slots)))
    want = _reference(slots)
    assert [n for n, _ in got] == [n for n, _ in want]
    assert all(a is b for (_, s), (_, t) in zip(got, want)
               for a, b in zip(s, t, strict=True))


def test_default_slot_takes_one_item_each():
    got = list(sweep(("a", "xy"), ("c", "uvw")))
    want = [((f"a{i + 1}", f"c{j + 1}"), (x, y))
            for i, x in enumerate("xy") for j, y in enumerate("uvw")]
    assert got == want


def test_hand_written_frame_scan_order():
    # for i < j in range(3), r in range(2), k in range(3): the D5 scan
    want = [f"(q{i + 1}, q{j + 1}, b{r + 1}, q{k + 1})"
            for i in range(3) for j in range(i + 1, 3)
            for r in range(2) for k in range(3)]
    got = [witness(names) for names, _ in sweep(
        ("q", range(3), 2, combinations), ("b", range(2)), ("q", range(3)))]
    assert got == want


def test_empty_and_oversized_slots_yield_nothing():
    assert list(sweep(("q", [], 1, product))) == []
    assert list(sweep(("q", [1, 2], 3, combinations))) == []
    assert list(sweep(("q", [1], 2, product), ("b", []))) == []


def test_witness_format():
    assert witness(("q1", "tau2", "b3")) == "(q1, tau2, b3)"
    assert witness(("core1",)) == "(core1)"
