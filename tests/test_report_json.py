"""The JSON report writer against ``json.dumps``.

``cli._report_json`` lays out the report by hand; its text must be
exactly ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"`` for the
report document ``helpers.report_document`` builds, whatever the
strings, verdicts and seed hold.
"""

import json

import pytest
from hypothesis import example, given, strategies as st

from lie2check import serialize
from lie2check.cli import _report_json, _run_check
from lie2check.examples import EXAMPLES, build_example
from lie2check.report import CheckEntry, CheckReport

from helpers import curved_tangent_double, report_document

# every code point, lone surrogates included, with the characters JSON
# escapes specially drawn often
TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\u2029\U0001d11e'),
    st.characters(exclude_categories=())))
SEEDS = st.one_of(st.integers(), st.integers(2**64, 2**256),
                  st.integers(-2**256, -2**64))
ENTRIES = st.lists(st.builds(CheckEntry, TEXT, st.booleans(), TEXT, TEXT),
                   max_size=6)
# the 8 modes the benchmark checks the curved tangent double in
CURVED_MODES = ("selfdual", "graded-jacobi", "la-pair", "q-poisson",
                "core-courant", "dorfman", "homological", "symplectic")


def _dumps(report, mode, digest, seed):
    return json.dumps(report_document(report, mode, digest, seed),
                      sort_keys=True, indent=2) + "\n"


@given(TEXT, ENTRIES, TEXT, TEXT, SEEDS)
@example("t", [], "auto", "", 0)
@example("t", [CheckEntry("a", True), CheckEntry("b", False, "(q1)", "x")],
         "auto", "d", -1)
def test_writer_is_json_dumps(title, entries, mode, digest, seed):
    report = CheckReport(title, entries=entries)
    assert _report_json(report, mode, digest, seed) == \
        _dumps(report, mode, digest, seed)


@pytest.mark.parametrize("field, value", [
    ("passed", 1), ("passed", 0), ("passed", None),
    ("witness", None), ("witness", 5), ("residual", b"x"), ("residual", 0),
])
def test_writer_rejects_a_non_bool_verdict_or_non_str_text(field, value):
    entry = CheckEntry("label", True, "(q1)", "")
    setattr(entry, field, value)
    with pytest.raises(TypeError):
        _report_json(CheckReport("title", entries=[entry]), "auto", "", 0)


def _reports():
    """(name, mode, report) for every non-Dirac example in its auto mode
    and the curved tangent double in the benchmark's modes."""
    for name in sorted(n for n in EXAMPLES if not n.endswith("_dirac")):
        obj, _ = build_example(name)
        kind, obj, _ = serialize.decode_structure(
            serialize.encode_structure(obj))
        yield (name, *_run_check("auto", kind, obj, None, 0))
    pair = curved_tangent_double()
    for mode in CURVED_MODES:
        yield ("curved_double", *_run_check(mode, "lapair", pair, None, 0))


def test_checker_reports_hold_the_types_the_writer_needs():
    for name, mode, report in _reports():
        for e in report.entries:
            assert type(e.passed) is bool, (name, mode, e)
            assert type(e.witness) is str and type(e.residual) is str, \
                (name, mode, e)
        assert _report_json(report, mode, "digest", 3) == \
            _dumps(report, mode, "digest", 3), (name, mode)


def test_report_format_is_not_the_structure_format(monkeypatch):
    monkeypatch.setattr(serialize, "REPORT_FORMAT", 7)
    report = CheckReport("t", entries=[CheckEntry("a", True)])
    assert json.loads(_report_json(report, "auto", "", 0))["format"] == 7
    doc = serialize.encode_structure(build_example("tm_r1_lie1")[0])
    assert doc["format"] == serialize.FORMAT_VERSION == 1
    assert serialize.decode_structure(doc)[0] == "splitlie2"
    with pytest.raises(serialize.SchemaError, match="unsupported format: 7"):
        serialize.decode_structure(dict(doc, format=7))
