"""Command-line front end: build, certify, and export with stable formats.

Exit codes follow the 0 / 1 / 2 contract (pass, failed check or empty
output, usage error).  There is no configuration file; every flag that
influenced a run is echoed into the output header, so results are
deterministic functions of the command line alone.  A certificate depends
on `--h` alone.

There is no `--threads`: the counting products run on numpy's BLAS, whose
pool the environment sizes.  `OPENBLAS_NUM_THREADS=1` caps it at one
thread, which also avoids a sporadic stall of the h = 2 `fine` stage;
results are independent of it.  Everything else is single-threaded numpy
and exact arithmetic.  `--h` above 6 is a usage error, and so is
`export --classes` with any format but graph6.  `certify --depth` is still
accepted, and says on stderr that it is ignored.  The certificate's
`timings` carry each stage's peak RSS in MB, from `ru_maxrss` in KB (Linux).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import conic, hemisystem, schemes
from .certify import TABLE_MAX_H, certify as run_certify
from .conic import pair_reps
from .fields import tower

FAMILIES = ("hx", "pw", "fine")
MAX_H = 6  # a tower's tables take about 30 bytes per field element, 0.5 GB at h = 6


# ---------------------------------------------------------------------------
# graph6 (header-less, standard N(n) encoding)

def graph6_bytes(adj) -> bytes:
    """Encode a 0/1 adjacency matrix, vertices in index order."""
    adj = np.asarray(adj, dtype=bool)
    n = adj.shape[0]
    if n <= 62:
        head = bytes([n + 63])
    elif n <= 258047:
        head = bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    else:
        raise ValueError("graph6 supports at most 258047 vertices here")
    # the upper triangle in column order is the strict lower triangle of the
    # transpose in row order
    bits = adj.T[np.tri(n, k=-1, dtype=bool)]
    bits = np.concatenate([bits, np.zeros(-bits.size % 6, dtype=bool)])
    body = bits.reshape(-1, 6) @ (1 << np.arange(5, -1, -1)) + 63
    return head + body.astype(np.uint8).tobytes() + b"\n"


# ---------------------------------------------------------------------------
# table construction per family

def _family_bundle(h: int, family: str):
    ctx = tower(h)
    if family == "pw":
        table, d = hemisystem.klein_table_bundle(ctx)["table"], 3
    elif family == "hx":
        table, d = conic.table_bundle(ctx)["table"], 3
    else:  # fine
        hx = conic.table_bundle(ctx)
        table, d = hx["fine_table"], len(hx["fine_to_coarse"])
    valencies = [int(np.count_nonzero(table[0] == k)) for k in range(1, d + 1)]
    header = {"h": h, "q": ctx.q, "n": table.shape[0],
              "modulus_hex": hex(ctx.modulus), "family": family,
              "class_count": d, "valencies": valencies,
              "point_reps": list(pair_reps(ctx))}
    return header, table


def _write_out(path, data: bytes):
    if path is None:
        sys.stdout.buffer.write(data)
    else:
        with open(path, "wb") as f:
            f.write(data)


# ---------------------------------------------------------------------------
# subcommands

def cmd_build(args) -> int:
    header, table = _family_bundle(args.h, args.family)
    if args.format == "json":
        doc = {"header": header, "classes": table.tolist()}
        _write_out(args.out, (json.dumps(doc, sort_keys=True) + "\n").encode())
    else:  # csv
        lines = [f"# {k}={v}" for k, v in header.items() if k != "point_reps"]
        lines += [",".join(str(int(x)) for x in row) for row in table]
        _write_out(args.out, ("\n".join(lines) + "\n").encode())
    return 0


def cmd_certify(args) -> int:
    if args.depth is not None:
        print("--depth ignored: every check is exhaustive at every h", file=sys.stderr)
    cert = run_certify(args.h)
    data = (json.dumps(cert, sort_keys=True, indent=1) + "\n").encode()
    _write_out(args.out, data)
    if cert["verdict"] != "pass":
        print(f"certificate FAILED; witness: {cert['witness']}", file=sys.stderr)
        return 1
    return 0


def cmd_export(args) -> int:
    if args.classes is not None and args.format != "graph6":
        print("--classes works only with --format graph6", file=sys.stderr)
        return 2
    header, table = _family_bundle(args.h, args.family)
    if args.format == "graph6":
        classes = _parse_classes("1,2" if args.classes is None else args.classes,
                                 header["class_count"])
        adj = np.isin(table, classes)
        np.fill_diagonal(adj, False)
        if not adj.any():
            print(f"class union {classes} is empty", file=sys.stderr)
            return 1
        _write_out(args.out, graph6_bytes(adj))
        return 0
    an = schemes.verify_scheme(schemes.RelationTable(table, d=header["class_count"]))
    P, Q, mult = an.eigenmatrix()
    kr = an.krein()
    fm = schemes.frac_matrix
    if args.format == "json":
        doc = {"header": {k: v for k, v in header.items() if k != "point_reps"},
               "P": fm(P), "Q": fm(Q), "multiplicities": mult,
               "krein": [fm(layer) for layer in kr], "p_numbers": an.p}
        _write_out(args.out, (json.dumps(doc, sort_keys=True) + "\n").encode())
        return 0
    lines = [f"# {k}={v}" for k, v in header.items() if k != "point_reps"]
    lines.append("P")
    lines += [",".join(row) for row in fm(P)]
    lines.append("Q")
    lines += [",".join(row) for row in fm(Q)]
    lines.append("multiplicities")
    lines.append(",".join(str(m) for m in mult))
    for k, layer in enumerate(kr):
        lines.append(f"krein k={k}")
        lines += [",".join(row) for row in fm(layer)]
    for k, layer in enumerate(an.p):
        lines.append(f"p-numbers k={k}")
        lines += [",".join(f"{x}/1" for x in row) for row in layer]
    _write_out(args.out, ("\n".join(lines) + "\n").encode())
    return 0


def _parse_classes(text: str, d: int):
    try:
        classes = sorted({int(x) for x in text.split(",") if x.strip()})
    except ValueError:
        classes = []
    if not classes or any(c < 1 or c > d for c in classes):
        print(f"--classes must name classes in 1..{d}", file=sys.stderr)
        raise SystemExit(2)
    return classes


COMMANDS = {"build": cmd_build, "certify": cmd_certify, "export": cmd_export}


# ---------------------------------------------------------------------------

def _build_parser():
    ap = argparse.ArgumentParser(
        prog="hxpw",
        description="Build, certify and export the two 3-class scheme constructions.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, family=False, fmt=None):
        p.add_argument("--h", type=int, required=True, help="field exponent, q = 2^h")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if family:
            p.add_argument("--family", choices=FAMILIES, default="hx")
        if fmt:
            p.add_argument("--format", choices=fmt, default=fmt[0])

    b = sub.add_parser("build", help="write a relation table")
    common(b, family=True, fmt=("json", "csv"))

    c = sub.add_parser("certify", help="run the full certification pipeline")
    common(c)
    c.add_argument("--depth", choices=("full", "sampled"), default=None,
                   help="ignored, with a note on stderr: every check is "
                        "exhaustive at every h")

    e = sub.add_parser("export", help="export a class-union graph or analytics")
    common(e, family=True, fmt=("graph6", "csv", "json"))
    e.add_argument("--classes", help="comma list of classes to merge (graph6 only; default 1,2)")
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    if not 1 <= args.h <= MAX_H:
        print(f"--h must be an integer in 1..{MAX_H}", file=sys.stderr)
        return 2
    if args.command != "certify" and args.h > TABLE_MAX_H:
        print(f"table materialization is supported for h <= {TABLE_MAX_H}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except (ValueError, schemes.SchemeAxiomError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
