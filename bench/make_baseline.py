#!/usr/bin/env python3
"""Write bench/baseline.json: the sha256 of every output file the
benchmark's CLI calls write, for the committed seeds.

    python3 bench/make_baseline.py

Run it only when a change alters the report bytes on purpose, and say so
in the change.  It refuses to write a baseline while any verdict
disagrees with the known answer.  ``seed_free`` holds, for each output
that differs between the committed seeds only in the report's ``seed``
field, the hash of its seed-normalized bytes; runs with other seeds are
checked against it.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

SEEDS = (0, 1)   # the default seed and one held-out seed


def main():
    baseline = {}
    for workload in sorted(run.WORKLOADS):
        seeds, normal = {}, {}
        for seed in SEEDS:
            work = run.WORK_ROOT / f"baseline-{workload}-{os.getpid()}"
            work.mkdir(parents=True)
            try:
                lib, calls, _ = run.set_up(workload, work, seed, 1)
                outcomes = run.run_pass(lib, calls)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            bad = [c.name for c, o in zip(calls, outcomes)
                   if not run.verdict_ok(c, o)]
            if bad:
                sys.stderr.write(f"{workload} seed {seed}: wrong verdicts "
                                 f"{bad}; baseline not written\n")
                return 1
            seeds[str(seed)] = {c.name: run.sha(o.data)
                                for c, o in zip(calls, outcomes)}
            normal[seed] = {c.name: run.sha(run.normalized(c, o.data))
                            for c, o in zip(calls, outcomes)}
        first, second = (normal[s] for s in SEEDS)
        baseline[workload] = {
            "seeds": seeds,
            "seed_free": {n: h for n, h in sorted(first.items())
                          if second[n] == h},
        }
        print(f"{workload}: {len(first)} outputs, "
              f"{len(baseline[workload]['seed_free'])} seed-free")
    run.BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True)
                            + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
