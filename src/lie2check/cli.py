"""Command-line interface: check, construct and example subcommands.

Each check mode is one row of ``MODES`` and each construct recipe one
row of ``RECIPES``: the file kinds it reads, the structure it takes from
each (``_DORFMAN``, for one, reads a splitlie2 file through
``dorfman_from_split`` and an lapair file through its Dorfman half), the
function it runs and, for a recipe, the options it reads.  ``_inputs``
checks the files against a row and names the mode or recipe in each
error; a recipe given an option it does not read is an input error.

A JSON report is exactly ``json.dumps(report, sort_keys=True, indent=2)``
plus a newline, with every non-ASCII character escaped.  Without
``check --format``, the format comes from ``LIE2CHECK_FORMAT`` (``text``
or ``json``, default ``text``), read on every call of ``main``; the
parser itself is built once, at import.  Only ``check`` takes ``--seed``
and ``--format``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _encode
from operator import attrgetter
from typing import Callable, NamedTuple

from . import __version__
from .exactpoly import Polynomial
from .bundle import check_lie_algebroid, check_two_rep, dualize_two_rep
from .lie2 import (
    Dorfman2Rep, change_splitting, check_dorfman2rep, check_homological,
    dorfman_from_split, split_from_dorfman,
)
from .poisson import check_graded_jacobi, check_selfdual2rep, is_symplectic
from .matched import (
    bicrossproduct, check_la_matched_pair, check_matched_two_reps,
    check_q_preserves_poisson, decompose_bicrossproduct, LAPairData,
)
from .courant import (
    check_core_courant, check_courant_axioms, check_dirac,
    adjoint_dorfman2rep, core_courant, induced_lie_algebroid_on_U,
    manin_pair, semidirect_dorfman2rep, standard_dorfman2rep,
)
from . import serialize
from .serialize import SchemaError
from .examples import EXAMPLES, build_example

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2

FORMAT_ENV = "LIE2CHECK_FORMAT"

class CliError(Exception):
    """Input problem: bad file, schema violation, unusable arguments."""


def _read_json(path):
    """The bytes of a JSON file and the value they hold."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    try:
        return raw, json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CliError(f"{path}: invalid JSON: {exc}") from exc


def _read_document(path):
    raw, doc = _read_json(path)
    try:
        kind, obj, _ = serialize.decode_structure(doc)
    except SchemaError as exc:
        raise CliError(f"{path}: {exc}") from exc
    return raw, kind, obj


def _digest(chunks):
    h = hashlib.sha256()
    for i, raw in enumerate(chunks):
        if i:
            h.update(b"\n")
        h.update(raw)
    return h.hexdigest()


def _emit(text, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _report_json(report, mode, digest, seed):
    """The JSON report: exactly ``json.dumps(doc, sort_keys=True,
    indent=2)`` plus a newline, for the document of keys ``checks``,
    ``format`` (``serialize.REPORT_FORMAT``), ``input_digest``, ``mode``,
    ``passed``, ``seed`` and ``tool_version``, each check holding
    ``label``, ``passed``, ``ref`` (the report title), ``residual`` and
    ``witness``.  The fixed shape is laid out here and every string goes
    through the C encoder that ``json.dumps`` uses.  A ``passed`` that is
    not a bool, or a string field that is not a str, raises TypeError."""
    ref = _encode(report.title)
    checks = []
    for e in report.entries:
        if type(e.passed) is not bool:
            raise TypeError(f"check {e.label!r}: passed must be a bool, "
                            f"got {type(e.passed).__name__}")
        checks.append(
            f'    {{\n      "label": {_encode(e.label)},\n'
            f'      "passed": {"true" if e.passed else "false"},\n'
            f'      "ref": {ref},\n'
            f'      "residual": {_encode(e.residual)},\n'
            f'      "witness": {_encode(e.witness)}\n    }}')
    checks = "[\n" + ",\n".join(checks) + "\n  ]" if checks else "[]"
    return (f'{{\n  "checks": {checks},\n'
            f'  "format": {int.__repr__(serialize.REPORT_FORMAT)},\n'
            f'  "input_digest": {_encode(digest)},\n'
            f'  "mode": {_encode(mode)},\n'
            f'  "passed": {"true" if report.passed else "false"},\n'
            f'  "seed": {int.__repr__(seed)},\n'
            f'  "tool_version": {_encode(__version__)}\n}}\n')


def _write_report(report, mode, digest, seed, fmt, out_path):
    if fmt == "json":
        text = _report_json(report, mode, digest, seed)
    else:
        text = report.render_text() + "\n"
    _emit(text, out_path)


def _same(obj):
    return obj


# The structure a file of each kind gives to a Dorfman-reading row, to a
# self-dual-reading row, and, as (Dorfman half, self-dual half or None),
# to a row that also reads a dirac file.
_DORFMAN = {"dorfman2rep": _same, "splitlie2": dorfman_from_split,
            "lapair": attrgetter("dorfman")}
_SELFDUAL = {"selfdual2rep": _same, "lapair": attrgetter("selfdual")}
_HALVES = {"dorfman2rep": lambda rep: (rep, None),
           "splitlie2": lambda split: (dorfman_from_split(split), None),
           "lapair": attrgetter("dorfman", "selfdual")}
_LAPAIR_HALVES = {"lapair": _HALVES["lapair"]}


class Row(NamedTuple):
    """One check mode or construct recipe.  ``views`` maps each file kind
    it reads to the structure it takes from such a file.  ``run`` takes
    that structure or, when ``dirac`` is set, its two halves and then the
    dirac file, which must fit the Dorfman half; after them, the seed (a
    mode) or the value of each option in ``options`` (a recipe).
    ``auto`` lists the kinds that a mode checks when --mode is auto."""

    views: dict
    run: Callable
    auto: tuple = ()
    options: tuple = ()
    dirac: bool = False


def _dirac(submode):
    return lambda dorfman, selfdual, dirac, seed: check_dirac(
        dorfman, selfdual, dirac, submode, seed)


# Each checker is called through its name in this module, not held by
# the table, so that a wrapper bound to that name sees the call
# (``bench/spans.py`` times the checkers this way).
MODES = {
    "lie-algebroid": Row({"liealgebroid": _same},
                         lambda alg, seed: check_lie_algebroid(alg, seed),
                         auto=("liealgebroid",)),
    "two-rep": Row({"tworep": _same},
                   lambda rep, seed: check_two_rep(rep, seed),
                   auto=("tworep",)),
    "dorfman": Row(_DORFMAN, lambda rep, seed: check_dorfman2rep(rep, seed),
                   auto=("dorfman2rep", "splitlie2")),
    "homological": Row(_DORFMAN,
                       lambda rep, seed: check_homological(rep, seed)),
    "selfdual": Row(_SELFDUAL, lambda rep, seed: check_selfdual2rep(rep, seed),
                    auto=("selfdual2rep",)),
    "graded-jacobi": Row(_SELFDUAL,
                         lambda rep, seed: check_graded_jacobi(rep, seed)),
    "symplectic": Row(_SELFDUAL, lambda rep, seed: is_symplectic(rep, seed)),
    "matched-2reps": Row({"matched2reps": _same},
                         lambda pair, seed: check_matched_two_reps(pair, seed),
                         auto=("matched2reps",)),
    "la-pair": Row({"lapair": _same},
                   lambda pair, seed: check_la_matched_pair(pair, seed),
                   auto=("lapair",)),
    "q-poisson": Row({"lapair": _same},
                     lambda pair, seed: check_q_preserves_poisson(pair, seed)),
    "courant": Row({"courant": _same},
                   lambda ca, seed: check_courant_axioms(ca, seed),
                   auto=("courant",)),
    "core-courant": Row({"lapair": _same},
                        lambda pair, seed: check_core_courant(pair, seed)),
    "dirac-vb": Row(_HALVES, _dirac("vb_dirac"), dirac=True),
    "dirac-la-sub": Row(_LAPAIR_HALVES, _dirac("la_subalgebroid"),
                        dirac=True),
    "dirac-la": Row(_LAPAIR_HALVES, _dirac("la_dirac"), dirac=True),
}

CHECK_MODES = ("auto", *MODES)

_AUTO_MODE = {kind: mode for mode, row in MODES.items() for kind in row.auto}


def _side_file(path, what, column, base_dim, *dims):
    """Decode a --connection or --phi file through a schema column type."""
    try:
        return serialize.decoding(f"{what} file {path}", column.decode,
                                  _read_json(path)[1], base_dim, *dims)
    except SchemaError as exc:
        raise CliError(str(exc)) from exc


def _decompose(split, rank_a):
    if rank_a is None:
        raise CliError("--rank-a is required: the rank of A, between 0 "
                       f"and rank_q = {split.rank_q}")
    if not 0 <= rank_a <= split.rank_q:
        raise CliError(f"--rank-a must be between 0 and rank_q = "
                       f"{split.rank_q}, got {rank_a}")
    return decompose_bicrossproduct(split, rank_a)


def _adjoint(ca, connection):
    """The adjoint Dorfman 2-representation for the TM-connection in the
    --connection file, a JSON list of one rank x rank matrix of
    polynomials per base coordinate; without it, the flat connection."""
    p, n = ca.base_dim, ca.rank
    if connection is None:
        z = Polynomial.zero(p)
        gamma = [[[z for _ in range(n)] for _ in range(n)] for _ in range(p)]
    else:
        gamma = _side_file(connection, "connection", serialize.Components(),
                           p, p, n, n)
    return adjoint_dorfman2rep(ca, gamma)


def _change_splitting(rep, phi):
    """The splitting change by the --phi tensor file; without it, or with
    'zero', by zero."""
    p, rq, rb = rep.bundle.base_dim, rep.rank_q, rep.rank_b
    if phi in (None, "zero"):
        tensor = Dorfman2Rep.phi_tensor(p, rq, rb)
    else:
        tensor = _side_file(phi, "phi", serialize.Tensor(
            Dorfman2Rep.phi_tensor), p, rq, rb)
    return change_splitting(rep, tensor)


RECIPES = {
    "dorfman-from-split": Row({"splitlie2": _same}, dorfman_from_split),
    "split-from-dorfman": Row({"dorfman2rep": _same}, split_from_dorfman),
    "bicrossproduct": Row({"matched2reps": _same}, bicrossproduct),
    "decompose": Row({"splitlie2": _same}, _decompose, options=("rank_a",)),
    "core-courant": Row({"lapair": _same}, core_courant),
    "adjoint": Row({"courant": _same}, _adjoint, options=("connection",)),
    "standard": Row({"liealgebroid": attrgetter("bracket")},
                    standard_dorfman2rep),
    "semidirect": Row({"tworep": _same}, semidirect_dorfman2rep),
    "change-splitting": Row({"dorfman2rep": _same}, _change_splitting,
                            options=("phi",)),
    "manin-pair": Row(_LAPAIR_HALVES, lambda dorfman, selfdual, dirac:
                      manin_pair(LAPairData(selfdual, dorfman), dirac),
                      dirac=True),
    "dualize-2rep": Row({"tworep": _same}, dualize_two_rep),
    "induced-la": Row(_HALVES, lambda dorfman, _, dirac:
                      induced_lie_algebroid_on_U(dorfman, dirac), dirac=True),
}

# the argparse destinations of the options that only some recipes read
_RECIPE_OPTIONS = ("rank_a", "connection", "phi")


def _inputs(name, row, kind, obj, second):
    """The leading arguments of ``row.run`` for a first file of ``kind``
    holding ``obj`` and the (kind, structure) of the second file, or None;
    ``name`` ("mode 'm'" or "recipe 'r'") opens every error."""
    if second is None and row.dirac:
        raise CliError(f"{name} needs a second path: the dirac file")
    if second is not None and not row.dirac:
        raise CliError(f"{name} takes a single input file")
    if kind not in row.views:
        *others, last = row.views
        wanted = f"{', '.join(others)} or {last}" if others else last
        raise CliError(f"{name} needs a {wanted} file, got kind {kind!r}")
    view = row.views[kind](obj)
    if not row.dirac:
        return (view,)
    skind, dirac = second
    if skind != "dirac":
        raise CliError(f"{name} needs a dirac file as its second path, "
                       f"got kind {skind!r}")
    try:
        dirac.check_fits(view[0])
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return (*view, dirac)


def _run_check(mode, kind, obj, second, seed):
    if mode == "auto":
        if kind not in _AUTO_MODE:
            raise CliError(
                f"{kind} files need --mode "
                + "/".join(m for m, row in MODES.items() if row.dirac)
                + " with the structure file first")
        mode = _AUTO_MODE[kind]
    row = MODES[mode]
    return mode, row.run(*_inputs(f"mode {mode!r}", row, kind, obj, second),
                         seed)


def _read_inputs(args):
    """The bytes of each input file, the kind and structure of the first
    and the (kind, structure) of the second, or None."""
    docs = [_read_document(path) for path in (args.path, args.second)
            if path is not None]
    (_, kind, obj), *rest = docs
    return ([raw for raw, _, _ in docs], kind, obj,
            rest[0][1:] if rest else None)


def cmd_check(args):
    chunks, kind, obj, second = _read_inputs(args)
    mode, report = _run_check(args.mode, kind, obj, second, args.seed)
    _write_report(report, mode, _digest(chunks), args.seed,
                  args.format or _default_format(), args.out)
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_construct(args):
    name, row = f"recipe {args.recipe!r}", RECIPES[args.recipe]
    for option in _RECIPE_OPTIONS:
        if option not in row.options and getattr(args, option) is not None:
            raise CliError(f"{name} does not read "
                           f"--{option.replace('_', '-')}")
    _, kind, obj, second = _read_inputs(args)
    try:
        result = row.run(*_inputs(name, row, kind, obj, second),
                         *(getattr(args, option) for option in row.options))
    except ValueError as exc:
        sys.stderr.write(f"precondition failed: {exc}\n")
        return EXIT_FAIL
    _emit(serialize.dumps(serialize.encode_structure(result)), args.out)
    return EXIT_PASS


def cmd_example(args):
    if args.name not in EXAMPLES:
        sys.stderr.write(
            f"unknown example {args.name!r}; available examples:\n" +
            "".join(f"  {n}\n" for n in sorted(EXAMPLES)))
        return EXIT_ERROR
    obj, expect_fail = build_example(args.name)
    doc = serialize.encode_structure(obj, name=args.name,
                                     expect_fail=expect_fail)
    _emit(serialize.dumps(doc), args.out)
    return EXIT_PASS


def _default_format():
    fmt = os.environ.get(FORMAT_ENV, "text")
    return fmt if fmt in ("text", "json") else "text"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lie2check",
        description="Exact symbolic checks for split Lie 2-algebroids, "
                    "2-representations and degenerate Courant algebroids.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify the axioms of a structure file")
    p.add_argument("path")
    p.add_argument("second", nargs="?", default=None,
                   help="the dirac file, for the modes that read one")
    p.add_argument("--mode", choices=CHECK_MODES, default="auto")
    p.add_argument("--format", choices=("text", "json"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("construct", help="build a derived structure file")
    p.add_argument("recipe", choices=RECIPES)
    p.add_argument("path")
    p.add_argument("second", nargs="?", default=None,
                   help="the dirac file, for the recipes that read one")
    p.add_argument("--rank-a", type=int, default=None)
    p.add_argument("--connection", default=None,
                   help="JSON file with one matrix of Christoffel symbols "
                        "per base coordinate (default: flat)")
    p.add_argument("--phi", default=None,
                   help="'zero' (the default) or a JSON file with the "
                        "splitting change")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("example", help="emit a deterministic corpus file")
    p.add_argument("name")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_example)

    return parser


_PARSER = build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
