"""Command-line interface: check, construct and example subcommands."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

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
    check_q_preserves_poisson, decompose_bicrossproduct,
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

_AUTO_MODE = {
    "liealgebroid": "lie-algebroid",
    "tworep": "two-rep",
    "dorfman2rep": "dorfman",
    "splitlie2": "dorfman",
    "selfdual2rep": "selfdual",
    "matched2reps": "matched-2reps",
    "lapair": "la-pair",
    "courant": "courant",
}

CHECK_MODES = (
    "auto", "lie-algebroid", "two-rep", "dorfman", "homological",
    "selfdual", "graded-jacobi", "symplectic", "matched-2reps", "la-pair",
    "q-poisson", "courant", "core-courant", "dirac-vb", "dirac-la-sub",
    "dirac-la",
)

RECIPES = (
    "dorfman-from-split", "split-from-dorfman", "bicrossproduct",
    "decompose", "core-courant", "adjoint", "standard", "semidirect",
    "change-splitting", "manin-pair", "dualize-2rep", "induced-la",
)


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
        kind, obj, meta = serialize.decode_structure(doc)
    except SchemaError as exc:
        raise CliError(f"{path}: {exc}") from exc
    return raw, kind, obj, meta


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


def _report_document(report, mode, digest, seed):
    checks = []
    for e in report.entries:
        checks.append({
            "label": e.label,
            "ref": report.title,
            "passed": e.passed,
            "witness": e.witness,
            "residual": e.residual,
        })
    return {
        "format": serialize.FORMAT_VERSION,
        "tool_version": __version__,
        "mode": mode,
        "input_digest": digest,
        "seed": seed,
        "checks": checks,
        "passed": report.passed,
    }


def _write_report(report, mode, digest, seed, fmt, out_path):
    if fmt == "json":
        text = json.dumps(_report_document(report, mode, digest, seed),
                          sort_keys=True, indent=2) + "\n"
    else:
        text = report.render_text() + "\n"
    _emit(text, out_path)


def _as_dorfman(kind, obj):
    if kind == "dorfman2rep":
        return obj
    if kind == "splitlie2":
        return dorfman_from_split(obj)
    if kind == "lapair":
        return obj.dorfman
    raise CliError(f"mode requires a Lie 2-algebroid file, got kind {kind!r}")


def _check_dirac_fits(dorf, data):
    """A dirac file that does not fit the structure is an input error."""
    try:
        data.check_fits(dorf)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _run_check(mode, kind, obj, second, seed):
    if mode == "auto":
        if kind == "dirac":
            raise CliError(
                "dirac files need --mode dirac-vb/dirac-la-sub/dirac-la "
                "with the structure file first")
        mode = _AUTO_MODE[kind]
    if mode.startswith("dirac-"):
        if second is None:
            raise CliError("dirac modes need a second path: the dirac file")
        skind, sobj = second
        if skind != "dirac":
            raise CliError(f"second file must have kind dirac, got {skind!r}")
        submode = {"dirac-vb": "vb_dirac", "dirac-la-sub": "la_subalgebroid",
                   "dirac-la": "la_dirac"}[mode]
        if submode == "vb_dirac":
            dorf = _as_dorfman(kind, obj)
            selfdual = obj.selfdual if kind == "lapair" else None
        else:
            if kind != "lapair":
                raise CliError("Lie-algebroid dirac modes need a lapair file")
            dorf, selfdual = obj.dorfman, obj.selfdual
        _check_dirac_fits(dorf, sobj)
        return mode, check_dirac(dorf, selfdual, sobj, submode, seed=seed)
    if second is not None:
        raise CliError(f"mode {mode!r} takes a single input file")
    if mode == "lie-algebroid":
        if kind != "liealgebroid":
            raise CliError(f"mode {mode!r} needs a liealgebroid file")
        return mode, check_lie_algebroid(obj, seed=seed)
    if mode == "two-rep":
        if kind != "tworep":
            raise CliError(f"mode {mode!r} needs a tworep file")
        return mode, check_two_rep(obj, seed=seed)
    if mode == "dorfman":
        return mode, check_dorfman2rep(_as_dorfman(kind, obj), seed=seed)
    if mode == "homological":
        return mode, check_homological(_as_dorfman(kind, obj), seed=seed)
    if mode in ("selfdual", "graded-jacobi", "symplectic"):
        if kind == "lapair":
            obj = obj.selfdual
        elif kind != "selfdual2rep":
            raise CliError(f"mode {mode!r} needs a selfdual2rep file")
        checker = {"selfdual": check_selfdual2rep,
                   "graded-jacobi": check_graded_jacobi}.get(mode)
        if checker is not None:
            return mode, checker(obj, seed=seed)
        return mode, is_symplectic(obj)
    if mode == "matched-2reps":
        if kind != "matched2reps":
            raise CliError(f"mode {mode!r} needs a matched2reps file")
        return mode, check_matched_two_reps(obj, seed=seed)
    if mode in ("la-pair", "q-poisson", "core-courant"):
        if kind != "lapair":
            raise CliError(f"mode {mode!r} needs a lapair file")
        checker = {"la-pair": check_la_matched_pair,
                   "q-poisson": check_q_preserves_poisson,
                   "core-courant": check_core_courant}[mode]
        return mode, checker(obj, seed=seed)
    if mode == "courant":
        if kind != "courant":
            raise CliError(f"mode {mode!r} needs a courant file")
        return mode, check_courant_axioms(obj, seed=seed)
    raise CliError(f"unknown mode {mode!r}")


def cmd_check(args):
    raw, kind, obj, _ = _read_document(args.path)
    chunks = [raw]
    second = None
    if args.second is not None:
        raw2, kind2, obj2, _ = _read_document(args.second)
        chunks.append(raw2)
        second = (kind2, obj2)
    mode, report = _run_check(args.mode, kind, obj, second, args.seed)
    report.seed = args.seed
    _write_report(report, mode, _digest(chunks), args.seed, args.format,
                  args.out)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _load_side_file(path, what, column, base_dim, *dims):
    """Decode a --connection or --phi file through a schema column type."""
    try:
        return serialize.decoding(f"{what} file {path}", column.decode,
                                  _read_json(path)[1], base_dim, *dims)
    except SchemaError as exc:
        raise CliError(str(exc)) from exc


def _load_connection(path, base_dim, rank):
    """Load a TM-connection: JSON list (one rank x rank matrix per base
    coordinate) of polynomial entries.  None means the flat connection."""
    if path is None:
        z = Polynomial.zero(base_dim)
        return [[[z for _ in range(rank)] for _ in range(rank)]
                for _ in range(base_dim)]
    return _load_side_file(path, "connection", serialize.Components(),
                           base_dim, base_dim, rank, rank)


def _load_phi(path_or_zero, rep):
    p, rq, rb = rep.bundle.base.dim, rep.rank_q, rep.rank_b
    if path_or_zero == "zero":
        return Dorfman2Rep.phi_tensor(p, rq, rb)
    return _load_side_file(path_or_zero, "phi",
                           serialize.Tensor(Dorfman2Rep.phi_tensor), p, rq, rb)


def _expect_kind(kind, wanted, recipe):
    if kind != wanted:
        raise CliError(f"recipe {recipe!r} needs a {wanted} file, "
                       f"got kind {kind!r}")


def cmd_construct(args):
    recipe = args.recipe
    if args.second is not None and recipe not in ("manin-pair", "induced-la"):
        raise CliError(f"recipe {recipe!r} takes a single input file")
    _, kind, obj, _ = _read_document(args.path)
    try:
        if recipe == "dorfman-from-split":
            _expect_kind(kind, "splitlie2", recipe)
            result = dorfman_from_split(obj)
        elif recipe == "split-from-dorfman":
            _expect_kind(kind, "dorfman2rep", recipe)
            result = split_from_dorfman(obj)
        elif recipe == "bicrossproduct":
            _expect_kind(kind, "matched2reps", recipe)
            result = bicrossproduct(obj)
        elif recipe == "decompose":
            _expect_kind(kind, "splitlie2", recipe)
            if args.rank_a is None:
                raise CliError("recipe 'decompose' needs --rank-a")
            if not 0 <= args.rank_a <= obj.rank_q:
                raise CliError(f"--rank-a must be between 0 and rank_q = "
                               f"{obj.rank_q}, got {args.rank_a}")
            result = decompose_bicrossproduct(obj, args.rank_a)
        elif recipe == "core-courant":
            _expect_kind(kind, "lapair", recipe)
            result = core_courant(obj)
        elif recipe == "adjoint":
            _expect_kind(kind, "courant", recipe)
            gamma = _load_connection(args.connection, obj.base_dim, obj.rank)
            result = adjoint_dorfman2rep(obj, gamma)
        elif recipe == "standard":
            _expect_kind(kind, "liealgebroid", recipe)
            result = standard_dorfman2rep(obj.bracket)
        elif recipe == "semidirect":
            _expect_kind(kind, "tworep", recipe)
            result = semidirect_dorfman2rep(obj)
        elif recipe == "change-splitting":
            _expect_kind(kind, "dorfman2rep", recipe)
            result = change_splitting(obj, _load_phi(args.phi, obj))
        elif recipe == "dualize-2rep":
            _expect_kind(kind, "tworep", recipe)
            result = dualize_two_rep(obj)
        elif recipe in ("manin-pair", "induced-la"):
            if args.second is None:
                raise CliError(f"recipe {recipe!r} needs a second path: "
                               "the dirac file")
            _, kind2, obj2, _ = _read_document(args.second)
            _expect_kind(kind2, "dirac", recipe)
            if recipe == "manin-pair":
                _expect_kind(kind, "lapair", recipe)
            dorf = _as_dorfman(kind, obj)
            _check_dirac_fits(dorf, obj2)
            if recipe == "manin-pair":
                result = manin_pair(obj, obj2).courant
            else:
                result = induced_lie_algebroid_on_U(dorf, obj2)
        else:
            raise CliError(f"unknown recipe {recipe!r}")
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

    def common(p):
        p.add_argument("--format", choices=("text", "json"),
                       default=_default_format())
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)

    p = sub.add_parser("check", help="verify the axioms of a structure file")
    p.add_argument("path")
    p.add_argument("second", nargs="?", default=None,
                   help="second structure file (dirac modes)")
    p.add_argument("--mode", choices=CHECK_MODES, default="auto")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("construct", help="build a derived structure file")
    p.add_argument("recipe", choices=RECIPES)
    p.add_argument("path")
    p.add_argument("second", nargs="?", default=None,
                   help="second structure file (manin-pair, induced-la)")
    p.add_argument("--rank-a", type=int, default=None)
    p.add_argument("--connection", default=None,
                   help="JSON file with one matrix of Christoffel symbols "
                        "per base coordinate (default: flat)")
    p.add_argument("--phi", default="zero",
                   help="'zero' or a JSON file with the splitting change")
    common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("example", help="emit a deterministic corpus file")
    p.add_argument("name")
    common(p)
    p.set_defaults(func=cmd_example)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
