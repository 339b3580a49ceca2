#!/usr/bin/env python3
"""lie2check benchmark: time to a verdict through ``lie2check.cli.main``.

    python3 bench/run.py --workload corpus --seed 0 --seconds 60 --trace 0

Run from the repository root.  One process runs one workload, in a
single thread:

1. set-up: import ``lie2check`` afresh and write the workload's input
   files, ``SETUP_REPEATS`` times before each pass (``setup_s`` is the
   median over the run, so it samples the same stretch of time as the
   passes);
2. passes: every CLI call of the workload, in order, repeated while the
   next set-up and pass still fit in ``--seconds`` (at least one pass);
3. gate: each call's exit code and failing labels against the known
   answer, and each output file's sha256 against ``baseline.json``.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` one untraced pass is
followed by one traced pass (see ``spans.py``) and the object holds the
per-layer metrics.  The exit code is 0 when the run finished, even when
the gate found errors (they are reported as ``failed``); it is 2 when
the program cannot be imported.  See NOTES.md for what each metric and
workload is for.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BASELINE = BENCH_DIR / "baseline.json"
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 3

sys.path[:0] = [str(BENCH_DIR), str(SRC)]
from spans import Tracer  # noqa: E402


@dataclass
class Call:
    """One CLI invocation and the answer it must give."""

    name: str
    argv: list
    out: Path
    exit_code: int = 0
    must_fail: tuple = ()   # labels that must be among the failing ones

    @property
    def is_report(self):
        return self.argv[0] == "check"


@dataclass
class Outcome:
    """What one call took, returned and wrote."""

    wall_s: float
    cpu_s: float
    code: int
    data: bytes = field(repr=False)


# ---------------------------------------------------------------------------
# workloads

# Known answers for the corpus, from the examples' documented breakage.
BROKEN = {
    "broken_so3_bad_jacobi": ("D4_delta",),
    "broken_r4_nonclosed": ("D6",),
    "broken_so3_string_l1": ("D1",),
    "broken_selfdual_nonsym": ("partial_symmetric",),
    "broken_selfdual_zero_r": ("curv_on_B",),
    "broken_axb_cond5": ("condition_5",),
    "broken_unit_matched_cond2": ("condition_2",),
    "broken_so3_pair_dq": ("M1",),
    "broken_so3_bad_pairing": ("CA2",),
    "broken_so3_e12_dirac": ("3_bracket_closes_in_U",),
}
SOUND = (
    "axb_matched", "euclidean_curved_r2", "euclidean_selfdual_r1",
    "semidirect_flat", "so3_e3_dirac", "so3_lie2", "so3_poisson_pair",
    "so3_quadratic", "so3_selfdual", "so3_string", "so3_symplectic_pair",
    "standard_courant_r1", "tangent_double_pair_r1", "tm_r1_lie1",
    "unit_matched_point",
)
# construct -> check round trips: (recipe, inputs, extra flags).  Each
# output is a structure the paper proves sound when its input is sound.
ROUND_TRIPS = (
    ("bicrossproduct", ("axb_matched",), ()),
    ("core-courant", ("tangent_double_pair_r1",), ()),
    ("dorfman-from-split", ("so3_string",), ()),
    ("change-splitting", ("semidirect_flat",), ("--phi", "zero")),
    ("manin-pair", ("so3_poisson_pair", "so3_e3_dirac"), ()),
    ("adjoint", ("standard_courant_r1",), ()),
)
CURVED_MODES = ("selfdual", "graded-jacobi", "la-pair", "q-poisson",
                "core-courant", "dorfman", "homological", "symplectic")


def _check(name, inputs, out, seed, mode=None, exit_code=0, must_fail=()):
    argv = ["check", *map(str, inputs), "--format", "json",
            "--seed", str(seed), "--out", str(out)]
    if mode:
        argv[1:1] = ["--mode", mode]
    return Call(name, argv, out, exit_code, must_fail)


def corpus_inputs(lib, work, seed):
    path = {n: work / f"{n}.json" for n in (*SOUND, *BROKEN)}
    for name, p in sorted(path.items()):
        if lib.cli.main(["example", name, "--out", str(p)]) != 0:
            raise RuntimeError(f"cannot write example {name}")
    calls = []
    for name in sorted(path):
        inputs, mode = [path[name]], None
        if name.endswith("_dirac"):
            inputs, mode = [path["so3_lie2"], path[name]], "dirac-vb"
        calls.append(_check(f"check:{name}", inputs, work / f"r_{name}.json",
                            seed, mode, 1 if name in BROKEN else 0,
                            BROKEN.get(name, ())))
    for recipe, names, flags in ROUND_TRIPS:
        built = work / f"c_{recipe}.json"
        calls.append(Call(f"construct:{recipe}",
                          ["construct", recipe, *(str(path[n]) for n in names),
                           *flags, "--out", str(built)], built))
        calls.append(_check(f"check:construct:{recipe}", [built],
                            work / f"r_c_{recipe}.json", seed))
    return calls


def _write(lib, obj, path):
    path.write_text(lib.serialize.dumps(lib.serialize.encode_structure(obj)),
                    encoding="utf-8")


def curved_double(lib):
    """Tangent double of standard_courant(2) with the metric connection
    that acts on TM by [[0, x2], [0, 0]] along x1 and on T*M by minus the
    transpose; its curvB is nonzero."""
    Polynomial = lib.exactpoly.Polynomial
    z, x2 = Polynomial.zero(2), Polynomial.variable(2, 1)
    g0 = [[z, x2, z, z], [z, z, z, z], [z, z, z, z], [z, z, -x2, z]]
    g1 = [[z] * 4 for _ in range(4)]
    return lib.courant.tangent_double_pair(lib.courant.standard_courant(2),
                                           [g0, g1])


def curved_double_inputs(lib, work, seed):
    src = work / "curved_double.json"
    _write(lib, curved_double(lib), src)
    return [_check(f"check:{mode}", [src], work / f"r_{mode}.json", seed,
                   mode) for mode in CURVED_MODES]


WORKLOADS = {
    "corpus": corpus_inputs,
    "curved_double": curved_double_inputs,
}


# ---------------------------------------------------------------------------
# running


class Program:
    """The lie2check modules the benchmark calls, freshly imported."""

    MODULES = ("cli", "serialize", "courant", "exactpoly")

    def __init__(self):
        for name in [n for n in sys.modules
                     if n == "lie2check" or n.startswith("lie2check.")]:
            del sys.modules[name]
        for name in self.MODULES:
            setattr(self, name, importlib.import_module(f"lie2check.{name}"))


def set_up(workload, work, seed, repeats):
    """Import the program afresh and write the inputs, `repeats` times.
    Returns the last program, its calls and the time of each repeat."""
    times = []
    for _ in range(repeats):
        gc.collect()   # free the previous import before timing the next
        start = time.perf_counter()
        lib = Program()
        calls = WORKLOADS[workload](lib, work, seed)
        times.append(time.perf_counter() - start)
    return lib, calls, times


def run_pass(lib, calls, tracer=None):
    outcomes = []
    for index, call in enumerate(calls):
        if tracer is not None:
            tracer.call_id = index
        call.out.unlink(missing_ok=True)
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            code = lib.cli.main(call.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            # A crash is a wrong verdict; keep measuring the other calls.
            traceback.print_exc()
            code = None
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        data = call.out.read_bytes() if call.out.exists() else b""
        outcomes.append(Outcome(wall, cpu, code, data))
    return outcomes


def normalized(call, data):
    """Output bytes with the report's seed field set to 0.  Reports of
    sound inputs depend on the seed only through that field."""
    if not call.is_report:
        return data
    try:
        doc = json.loads(data)
    except ValueError:
        return data
    doc["seed"] = 0
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def sha(data):
    return hashlib.sha256(data).hexdigest()


def report_checks(data):
    """The ``checks`` list of a JSON report, or [] if there is none."""
    try:
        return json.loads(data)["checks"]
    except (ValueError, KeyError, TypeError):
        return []


def verdict_ok(call, outcome):
    """Exit code, and for broken inputs the failing labels, as known."""
    if outcome.code != call.exit_code:
        return False
    failing = {c["label"] for c in report_checks(outcome.data)
               if not c["passed"]}
    return set(call.must_fail) <= failing


class Gate:
    """Checks verdicts against known answers and outputs against the
    committed hashes.  For a seed without committed hashes, an output
    whose bytes depend on the seed must repeat the run's first pass."""

    def __init__(self, workload, seed):
        baseline = json.loads(BASELINE.read_text(encoding="utf-8"))[workload]
        self.exact = baseline["seeds"].get(str(seed))
        self.seed_free = baseline["seed_free"]
        self.first = {}
        self.verdict_errors = 0
        self.report_mismatches = 0

    def hash_ok(self, call, outcome):
        if self.exact is not None:
            return sha(outcome.data) == self.exact.get(call.name)
        if call.name in self.seed_free:
            return (sha(normalized(call, outcome.data))
                    == self.seed_free[call.name])
        return self.first.setdefault(call.name, outcome.data) == outcome.data

    def failures(self, calls, outcomes):
        failed = 0
        for call, outcome in zip(calls, outcomes):
            verdict = verdict_ok(call, outcome)
            hashed = self.hash_ok(call, outcome)
            self.verdict_errors += not verdict
            self.report_mismatches += not hashed
            failed += not (verdict and hashed)
        return failed


def measure(workload, work, seed, gate, seconds):
    """Set-ups and untraced passes for about `seconds`.  Returns the
    set-up times, per call the list of (wall, cpu) over the passes, the
    pass count and the failures."""
    setup, timings, passes, failed = [], None, 0, 0
    start = time.perf_counter()
    while True:
        lib = calls = None   # let set_up free the previous import
        lib, calls, times = set_up(workload, work, seed, SETUP_REPEATS)
        setup += times
        outcomes = run_pass(lib, calls)
        failed += gate.failures(calls, outcomes)
        passes += 1
        timings = timings or [[] for _ in calls]
        for per_call, o in zip(timings, outcomes):
            per_call.append((o.wall_s, o.cpu_s))
        typical = (sum(statistics.median(w for w, _ in t) for t in timings)
                   + sum(times))
        if time.perf_counter() - start + typical > seconds:
            return setup, timings, passes, failed


def end_to_end(workload, work, seed, gate, seconds):
    setup, timings, passes, failed = measure(workload, work, seed, gate,
                                             seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Per-call means over the passes.  The shared machine switches between
    # a fast and a slow speed for seconds at a time, so a per-call median
    # jumps to whichever speed held for most of the run; the mean moves
    # only in proportion to the slow share (see NOTES.md).
    wall = [statistics.fmean(w for w, _ in t) for t in timings]
    cpu = [statistics.fmean(c for _, c in t) for t in timings]
    metrics = {
        "wall_s": (sum(wall), "s"),
        "cpu_s": (sum(cpu), "s"),
        "slowest_check_s": (max(wall), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    extra = {"passes": passes, "verdict_errors": gate.verdict_errors,
             "report_mismatches": gate.report_mismatches}
    return metrics, passes * len(timings), failed, extra


def per_layer(workload, work, seed, gate, trace_path):
    lib, calls, _ = set_up(workload, work, seed, 1)
    untraced = run_pass(lib, calls)
    failed = gate.failures(calls, untraced)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(lib, calls, tracer)
    finally:
        tracer.uninstall()
    failed += gate.failures(calls, traced)
    tracer.write_jsonl(trace_path)

    layers = tracer.layer_totals()
    kernel = tracer.kernel
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    for op in ("add", "mul", "diff", "init"):
        put(f"exactpoly.{op}.calls", kernel[f"exactpoly.{op}"][0], "count")
    put("exactpoly.add.zero_operand_share",
        tracer.add_zero / max(kernel["exactpoly.add"][0], 1), "share")
    put("exactpoly.mul.zero_operand_share",
        tracer.mul_zero / max(kernel["exactpoly.mul"][0], 1), "share")
    put("exactpoly.mul.term_products", tracer.term_products, "count")
    put("exactpoly.self_s", sum(s for _, s in kernel.values()), "s")
    for layer in ("courant.check", "courant.bracket", "poisson.check",
                  "matched.check", "lie2.check", "bundle.check",
                  "bundle.connection_apply", "bundle.dull_bracket_apply",
                  "bundle.curv_matrix", "lie2.curv_matrix",
                  "poisson.curv_matrix", "serialize.decode",
                  "serialize.encode"):
        calls_n, self_s = layers.get(layer, (0, 0.0))
        put(f"{layer}.calls", calls_n, "count")
        put(f"{layer}.self_s", self_s, "s")
    for layer in ("poisson.as_two_rep", "lie2.dual_bracket"):
        put(f"{layer}.calls", layers.get(layer, (0,))[0], "count")
    put("checks.nested_calls", tracer.nested_checks(), "count")
    put("report.write_s", layers.get("report.write", (0, 0.0))[1], "s")
    put("cli.self_s", layers.get("cli", (0, 0.0))[1], "s")
    reports = [o.data for c, o in zip(calls, traced) if c.is_report]
    checks = [c for data in reports for c in report_checks(data)]
    put("report.bytes", sum(map(len, reports)), "B")
    put("checks.entries", len(checks), "count")
    put("checks.failed_entries", sum(not c["passed"] for c in checks),
        "count")
    put("gate.verdict_errors", gate.verdict_errors, "count")
    put("gate.report_mismatches", gate.report_mismatches, "count")
    put("trace.overhead_s", sum(o.wall_s for o in traced)
        - sum(o.wall_s for o in untraced), "s")
    extra = {"trace_file": str(trace_path.relative_to(ROOT))}
    return metrics, 2 * len(calls), failed, extra


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        cli = importlib.import_module("lie2check.cli")
    except ImportError as exc:
        sys.stderr.write(f"cannot import lie2check from {SRC}: {exc}\n")
        return 2
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"lie2check was imported from {cli.__file__}, "
                         f"not from {SRC}\n")
        return 2
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        gate = Gate(args.workload, args.seed)
        if args.trace:
            trace_path = (WORK_ROOT /
                          f"trace-{args.workload}-seed{args.seed}.jsonl")
            metrics, attempted, failed, extra = per_layer(
                args.workload, work, args.seed, gate, trace_path)
        else:
            metrics, attempted, failed, extra = end_to_end(
                args.workload, work, args.seed, gate, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}  {name:36s} {value:>14.6g} {unit}")
    for name, value in extra.items():
        print(f"{args.workload}  {name:36s} {value}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
