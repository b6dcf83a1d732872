"""Per-stage wall time and peak RSS of one `certify(h)` run.

    python bench/stages.py --h 3

runs `certify(h)` in a fresh child process, with each `certify.STAGES`
entry wrapped to record its wall time and the process's `ru_maxrss` just
after it returns, and prints one JSON object: a key per stage, in
`STAGES` order, plus ``total`` for the whole call.  Each value holds
``wall_s`` and ``ru_maxrss_mb``; a stage that `certify` skipped holds
``{"skipped": true}``.  `ru_maxrss` is the high-water mark of the child
since it started, so it never decreases from one stage to the next, and a
stage's own peak shows as the step it adds.

Only the standard library and numpy are used, and `certify` itself is not
changed: the wrappers replace `certify.STAGES` for the child's one call.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _maxrss_mb():
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def measure(h):
    """The stage records of `certify(h)`, run in this process."""
    sys.path.insert(0, str(SRC))
    # the package re-exports the function `certify` under the submodule's name
    cert_mod = importlib.import_module("hxpw.certify")

    records = {}

    def wrapped(name, run):
        def timed(st):
            t0 = time.perf_counter()
            try:
                return run(st)
            finally:
                records[name] = {"wall_s": round(time.perf_counter() - t0, 3),
                                 "ru_maxrss_mb": _maxrss_mb()}
        return timed

    stages = cert_mod.STAGES
    cert_mod.STAGES = tuple((name, names, skip, wrapped(name, run))
                            for name, names, skip, run in stages)
    try:
        t0 = time.perf_counter()
        cert_mod.certify(h)
        total = {"wall_s": round(time.perf_counter() - t0, 3), "ru_maxrss_mb": _maxrss_mb()}
    finally:
        cert_mod.STAGES = stages
    return {**{name: records.get(name, {"skipped": True}) for name, *_ in stages},
            "total": total}


def stage_peaks(h):
    """`measure(h)` in a fresh child process, so nothing the caller holds counts."""
    proc = subprocess.run([sys.executable, __file__, "--h", str(h), "--in-process"],
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--h", type=int, required=True, help="certify at q = 2^h")
    parser.add_argument("--in-process", action="store_true",
                        help="measure in this process instead of a fresh child")
    args = parser.parse_args(argv)
    out = measure(args.h) if args.in_process else stage_peaks(args.h)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
