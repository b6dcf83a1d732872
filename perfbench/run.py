"""hxpw benchmark: real CLI workloads, output checks, and a traced layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify_q8 --seed 1 --seconds 20 --trace 0

With `--trace 0` the run spawns a fresh `python -m hxpw` process per command,
one at a time (a closed loop with one client), repeating whole passes of the
workload until `--seconds` of pass time has been measured, and prints the
end-to-end metrics.  With `--trace 1` it runs the in-process layer suite of
`layers.py` plus one CLI pass and prints the per-layer metrics.  Every pass
is checked against the field oracle and the PAPER.md closed forms outside
the timed region.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import Ledger, certificate_checks, export_checks
from layers import metric, run_traced

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
COMMAND_TIMEOUT_S = 150
SETUP_SPAWNS_PER_PASS = 2

EXPORT_FILES = {"hx": "hx.json", "pw": "pw.csv", "fine": "fine.csv",
                "graph6": "srg.g6", "analytics": "analytics.csv"}


def workload_commands(name):
    """(key, argv, output file) per CLI command of one pass."""
    if name == "certify_small":
        return [("certify_h1", ["certify", "--h", "1"], "cert_h1.json"),
                ("certify_h2", ["certify", "--h", "2", "--depth", "full"], "cert_h2.json")]
    if name == "certify_q8":
        return [("certify_h3", ["certify", "--h", "3"], "cert_h3.json")]
    if name == "export_q8":
        f = EXPORT_FILES
        return [("build_hx", ["build", "--h", "3", "--family", "hx", "--format", "json"], f["hx"]),
                ("build_pw", ["build", "--h", "3", "--family", "pw", "--format", "csv"], f["pw"]),
                ("build_fine", ["build", "--h", "3", "--family", "fine", "--format", "csv"], f["fine"]),
                ("export_graph6", ["export", "--h", "3", "--format", "graph6", "--classes", "1,2"],
                 f["graph6"]),
                ("export_csv", ["export", "--h", "3", "--format", "csv"], f["analytics"])]
    raise SystemExit(f"unknown workload {name!r}")


WORKLOADS = ("certify_small", "certify_q8", "export_q8")
SETUP_H = {"certify_small": 2, "certify_q8": 3, "export_q8": 3}


def pass_checks(name, outdir, seed, seen):
    if name == "export_q8":
        return export_checks(outdir, 3, seed, seen, EXPORT_FILES)
    checks = []
    for key, argv, fname in workload_commands(name):
        checks += certificate_checks(outdir / fname, int(argv[2]), seen, key)
    return checks


# ---------------------------------------------------------------------------
# child processes

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, stderr_path):
    """Run one child to completion; return (wall_s, rusage, exit code)."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage, proc.returncode


def run_command(ledger, argv, stderr_path, label):
    """One CLI command as one operation; returns (wall, rusage) or None."""
    def op():
        wall, usage, code = spawn(argv, stderr_path)
        if code != 0:
            tail = stderr_path.read_text(errors="replace")[-300:]
            raise RuntimeError(f"exit code {code}: {tail}")
        return wall, usage
    return ledger.op(label, op, check=False)


def setup_spawn(ledger, h, workdir):
    """Spawn-to-exit time of a process that imports hxpw and builds tower(h)
    and pair_reps, the set-up every command pays before its first pair."""
    code = ("import hxpw; from hxpw.fields import tower; "
            f"from hxpw.conic import pair_reps; pair_reps(tower({h}))")
    res = run_command(ledger, [sys.executable, "-c", code], workdir / "setup.err", "setup")
    return None if res is None else res[0]


def run_pass(ledger, name, seed, outdir, seen):
    """One pass of the workload's commands, then its checks (untimed)."""
    walls, rss, cpu = [], [], []
    for key, argv, fname in workload_commands(name):
        full = [sys.executable, "-m", "hxpw", *argv, "--out", str(outdir / fname)]
        res = run_command(ledger, full, outdir / f"{key}.err", key)
        if res is not None:
            wall, usage = res
            walls.append(wall)
            rss.append(usage.ru_maxrss / 1024.0)
            cpu.append(usage.ru_utime + usage.ru_stime)
    for label, fn in pass_checks(name, outdir, seed, seen):
        ledger.op(label, fn)
    for p in outdir.iterdir():
        p.unlink()
    return {"complete": len(walls) == len(workload_commands(name)),
            "wall_s": sum(walls), "peak_rss_mb": max(rss, default=0.0),
            "child_cpu_s": sum(cpu), "command_wall_s": walls}


# ---------------------------------------------------------------------------
# environment record

def environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_info = {"name": blas.get("name"), "version": blas.get("version")}
    except Exception as exc:  # older numpy has no dict mode; record why
        blas_info = {"error": repr(exc)}
    try:
        import threadpoolctl  # noqa: F401
        tpc = True
    except ImportError:
        tpc = False
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_info,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "threadpoolctl_importable": tpc, "machine": platform.machine()}


# ---------------------------------------------------------------------------

def run_untraced(args, ledger, workdir, record):
    """Whole rounds of set-up spawns, one pass and its checks, until the
    passes have been measured for `args.seconds`."""
    seen = {}
    h = SETUP_H[args.workload]
    setup_spawn(ledger, h, workdir)  # warms the byte-code cache; not measured
    setups, passes = [], []
    t0 = time.perf_counter()
    while sum(p["wall_s"] for p in passes) < args.seconds:
        setups += [setup_spawn(ledger, h, workdir) for _ in range(SETUP_SPAWNS_PER_PASS)]
        passes.append(run_pass(ledger, args.workload, args.seed, workdir, seen))
        if time.perf_counter() - t0 > 2 * args.seconds + 60:
            break  # failing commands can make passes short and checks slow
    record["passes"] = passes
    record["setup_s"] = setups
    passes = [p for p in passes if p["complete"]]
    setups = [t for t in setups if t is not None]
    if not setups or not passes:
        return {}
    return {"setup_s": metric(statistics.median(setups), "s"),
            "wall_s": metric(statistics.median(p["wall_s"] for p in passes), "s"),
            "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "hxpw" / "__init__.py").is_file():
        print(f"no hxpw sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    ledger = Ledger()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    try:
        if args.trace:
            sys.path.insert(0, str(SRC))
            metrics = run_traced(
                args.seed, args.workload, ledger, record,
                lambda: run_pass(ledger, args.workload, args.seed, workdir, {}), OUT)
        else:
            metrics = run_untraced(args, ledger, workdir, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": ledger.failed_checks == 0 and bool(metrics),
              "attempted": ledger.attempted, "failed": ledger.failed, "metrics": metrics}
    record.update(result, failures=ledger.failures)
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for fail in ledger.failures:
        print(f"FAILED {fail}")
    for k, m in metrics.items():
        print(f"{args.workload:14s} {k:40s} {m['value']:14.6g} {m['unit']}")
    print(f"{args.workload:14s} operations attempted {ledger.attempted}, failed {ledger.failed}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
