"""End-to-end certification that the two scheme constructions coincide.

`certify` builds both relation tables on the shared conjugate-pair index
set, runs every classification route the package implements, checks the
structural claims each side must satisfy on its own (the pairs as the
passants of the conic, hemisystem covering, scheme axioms, eigenmatrix,
Krein nonnegativity and the cometric ordering, the strongly regular fusion,
the group action and its single orbit), and assembles one machine-readable
certificate dict.

The identity map on pair indices is the certified bijection: the two
tables must agree entry by entry with class indices preserved, which is
the strongest possible form of isomorphism.  Equal tables also force the
fused class-{1,2} graphs to be equal as labeled graphs, so the associated
strongly regular graphs are isomorphic as a byproduct, and every scheme
property verified on the hx table holds for the pw table; the certificate
records this as a remark instead of repeating those blocks.

The checks run as the ordered stages of `STAGES`, and one loop does the
bookkeeping for all of them.  Every certificate holds the same fifteen
blocks, each with a `pass` flag or `skipped` with a reason: a stage whose
predicate on h gives a reason is skipped, an exception inside a stage
fails that stage's blocks with the exception as the error, and once the
`routes` block fails every later block is skipped.  At every h, both
algebraic routes and all three identities are swept over every pair, the
`automorphisms` stage checks PGL(2, q^2) exactly on three generators,
writing `orbit` and `automorphisms`, and `passants` shows that the pair
lines are the passants of the conic of PG(2, q^2).  Above
TABLE_MAX_H no table is built, so the blocks that read tables are skipped.
Up to TABLE_MAX_H the geometric route, recorded in `routes.geometric`,
also classifies every pair, and `tau_consistency`, the line census and the
Klein images run on what that route builds: the line-set arrays and their
spread incidence S.  A failing identities, passants, census, Klein, tau,
orbit, automorphisms or eigenmatrix block names its first bad pair, line,
generator, point or P row in `first_discrepancy`.

Nothing in a certificate is sampled: it is a deterministic function of h,
in the format `hxpw-certificate/7`.  Two runs produce byte-identical
canonical JSON, and `canonical_hash` excludes only `timings`: each stage's
wall time `<stage>_s` and peak RSS after it `<stage>_rss_mb`, `total_s`,
`total_rss_mb` and `sweep_workers`.  The peak is `ru_maxrss`, of the process
or of its reaped sweep workers if larger, in KB on Linux, the only platform
CI and the benchmark run on; a high-water mark, so a stage's own peak shows
as the step it adds.  Linux carries it across exec, so it includes the peak
of the process that started `hxpw certify`; CI starts it from a small one.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import time
from types import SimpleNamespace

import numpy as np

from . import conic, geometry, hemisystem, schemes
from .conic import ClassificationError, pair_reps
from .fields import tower
from .hemisystem import StructureError
from .schemes import RelationTable, SchemeAxiomError, frac_matrix

VERSION = "0.1.0"
# Largest h whose n x n tables are built; above it only the table-free blocks run.
TABLE_MAX_H = 3
# The keys of a failed block that go into the certificate's witness.
WITNESS_KEYS = ("error", "first_discrepancy", "geometric", "violation_count", "result")
# The identities that the `identities` block checks, in the order its witness prefers.
IDENTITIES = ("closed_form", "factorization", "pairing_shift")


def canonical_json(cert: dict) -> str:
    slim = {k: v for k, v in cert.items() if k not in ("timings", "canonical_sha256")}
    return json.dumps(slim, sort_keys=True, separators=(",", ":"))


def canonical_hash(cert: dict) -> str:
    return hashlib.sha256(canonical_json(cert).encode()).hexdigest()


def _peak_rss_mb():
    return round(max(resource.getrusage(who).ru_maxrss for who in (
        resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024, 1)


def certify(h: int) -> dict:
    """Run every stage of `STAGES` and return the certificate dict.

    The `routes` sweep runs in contiguous row ranges of near-equal pair
    counts, the first in this process and each other in a forked worker,
    merged in row order, so the certificate is the same for any split.  One
    range per CPU this process may run on (`os.sched_getaffinity`, which
    `taskset` caps), but no more than the sweep's PAIR_CHUNK blocks: h <= 2
    never forks.
    """
    t_start = time.perf_counter()
    ctx = tower(h)
    n = len(pair_reps(ctx))
    # the CPUs this process may run on; os.sched_getaffinity exists on Linux only
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    blocks, timings, witness = {}, {}, None
    # what the stages share; the stages fill in the fields that start as None
    st = SimpleNamespace(ctx=ctx, blocks=blocks, hx=None, lines=None, tau=None, S=None,
                         analytics=None, degenerate=False,
                         workers=min(cpus, len(range(0, n - 1, max(1, conic.PAIR_CHUNK // n)))))
    for name, names, skip, run in STAGES:
        reason = "routes failed" if blocks.get("routes", {}).get("pass") is False else skip(h)
        if reason:
            # a block an earlier stage wrote (the geometric route's `routes`) stays
            for block in names:
                blocks.setdefault(block, {"skipped": reason})
            continue
        t0 = time.perf_counter()
        try:
            out = run(st)
        except Exception as exc:  # a check that breaks is a failed block, not a crash
            error = f"{type(exc).__name__}: {exc}"
            out = {block: {"pass": False, "error": error} for block in names}
        timings[f"{name}_s"] = round(time.perf_counter() - t0, 3)
        timings[f"{name}_rss_mb"] = _peak_rss_mb()
        stage_witness = out.pop("witness", None)
        blocks.update(out)
        failed = [block for block in names if blocks[block].get("pass") is False]
        if failed and witness is None:
            witness = stage_witness or {"block": failed[0], **{
                k: v for k, v in blocks[failed[0]].items()
                if k in WITNESS_KEYS and v is not None}}
    cert = {
        "format": "hxpw-certificate/7",
        "header": {
            "version": VERSION, "h": h, "q": ctx.q, "n": n,
            "modulus_hex": hex(ctx.modulus), "omega": ctx.omega,
        },
        "blocks": blocks,
        "degenerate": st.degenerate,
        "verdict": "fail" if any(b.get("pass") is False for b in blocks.values()) else "pass",
        "witness": witness,
        "remark": ("equal relation tables make every fused class union equal "
                   "as a labeled graph, so the strongly regular graphs "
                   "obtained by merging classes 1 and 2 are isomorphic too; "
                   "for the same reason the scheme axioms, eigenmatrix and "
                   "Krein orderings verified on the hx table are those of the "
                   "pw table, so they are not repeated for it"),
    }
    timings["total_s"] = round(time.perf_counter() - t_start, 3)
    timings["total_rss_mb"] = _peak_rss_mb()
    timings["sweep_workers"] = st.workers
    cert["timings"] = timings
    cert["canonical_sha256"] = canonical_hash(cert)
    return cert


# ---------------------------------------------------------------------------
# the stages

def _always(h):
    return None


def _tables(h):
    if h > TABLE_MAX_H:
        return f"outside the certified envelope at h > {TABLE_MAX_H}"
    return None


def _algebraic_routes(st):
    """Both algebraic routes and the three identities over every pair.

    Each row range tallies its own blocks: up to TABLE_MAX_H it reads the
    two finished tables, which later stages use; above it the pairs are
    classified block by block and no table is built.
    """
    ctx, n = st.ctx, len(pair_reps(st.ctx))
    try:
        if ctx.h > TABLE_MAX_H:
            blocks = lambda lo, hi: _classified_chunks(ctx, lo, hi)
        else:
            # the Klein sweep, the larger of the two, runs first, so that the
            # hx table and fine table are not held through it
            pw = hemisystem.klein_table_bundle(ctx, st.workers)
            hx = st.hx = conic.table_bundle(ctx, st.workers)
            failures = (hx["closed_form_failure"], pw["factorization_failure"],
                        pw["shift_failure"])
            blocks = lambda lo, hi: ((si, ti, hx["table"][si, ti], pw["table"][si, ti], *failures)
                                     for si, ti in conic.pair_chunks(n, lo, hi))
        routes, identities = _route_blocks(ctx, conic.sweep_rows(
            n, st.workers, lambda lo, hi: _route_tally(ctx, blocks(lo, hi))))
    except (ClassificationError, StructureError) as exc:
        table = "conic_table" if isinstance(exc, ClassificationError) else "klein_table"
        return {"identities": {"skipped": "routes failed"},
                "routes": {"pass": False, "error": str(exc)},
                "witness": {"block": table, "error": str(exc)}}
    if st.hx is not None:
        routes["table_sha256"] = hashlib.sha256(st.hx["table"].tobytes()).hexdigest()
    return {"identities": identities, "routes": routes}


def _geometric_route(st):
    """The spread-counting route, recorded inside the `routes` block."""
    st.lines = hemisystem.build_hemisystem(st.ctx)
    st.S = hemisystem.spread_map(st.ctx, st.lines)
    geo = _geometric_agreement(st.ctx, st.hx["table"], st.lines, st.S)
    return {"routes": {**st.blocks["routes"], "pass": geo["pass"], "geometric": geo}}


def _class_counts(st):
    confusion = st.blocks["routes"]["hx_vs_klein_confusion"]
    counts = {"hx": {str(a + 1): sum(confusion[a]) for a in range(3)},
              "pw": {str(b + 1): sum(row[b] for row in confusion) for b in range(3)}}
    n = len(st.hx["table"])
    valencies = [int(np.count_nonzero(st.hx["table"][0] == k)) for k in (1, 2, 3)]
    count_ok = all(n * kv == 2 * counts["hx"][str(kk)]
                   for kk, kv in zip((1, 2, 3), valencies) if kv)
    return {"class_counts": {"pass": count_ok, "unordered_pairs": counts,
                             "valencies_row0": valencies}}


def _tau_consistency(st):
    """The tau-images of the lines subtend the same spreads and the same table;
    a failure names the first line, or else the first pair, that differs."""
    st.tau = hemisystem.tau_lines(st.ctx, st.lines)
    # line by line, so that the twins share the spread incidence S of the lines
    differs = np.any(hemisystem.spread_map(st.ctx, st.tau) != st.S, axis=1)
    block = {"pass": not differs.any(), "same_subtended_spreads": not differs.any()}
    if differs.any():
        i = int(np.argmax(differs))
        first = {"line_index": i, "rep": int(st.lines["reps"][i]),
                 "check": "same_subtended_spreads"}
    else:
        tau, table = hemisystem.geometric_table(st.ctx, st.tau, st.S), st.hx["table"]
        i, j = divmod(int(np.argmax(tau != table)), len(table))  # (0, 0) when they agree
        first = {"pair_indices": [i, j], "tau": int(tau[i, j]), "table": int(table[i, j])}
        block["pass"] = first["tau"] == first["table"]
    if not block["pass"]:
        block["first_discrepancy"] = first
    return {"tau_consistency": block}


def _klein_images(st):
    """The last stage that reads the tau lines and S, so it drops them: the
    scheme stages then form their walk counts without them."""
    block = hemisystem.klein_images(st.ctx, st.lines, st.tau, st.S)
    st.tau = st.S = None
    return {"klein_images": block}


def _scheme(st):
    """Scheme axioms of the hx table, which stand for the pw table: the
    routes block has shown the two tables equal."""
    table = RelationTable(st.hx["table"], d=3)
    try:
        st.analytics = schemes.verify_scheme(table)
    except SchemeAxiomError as exc:
        # the structure report, which verify_scheme raises with, marks a table
        # with an empty class (h = 1) as degenerate: a skip, not a failure
        st.degenerate = bool(exc.witness.get("degenerate"))
        if st.degenerate:
            return {"scheme_hx": {"skipped": f"empty classes {exc.witness['empty_classes']} "
                                             f"at q={st.ctx.q}"}}
        return {"scheme_hx": {"pass": False, "error": str(exc), "witness": exc.witness}}
    return {"scheme_hx": {"pass": True, "d": 3, "valencies": st.analytics.valencies}}


def _spectrum(st):
    if st.analytics is None:  # the scheme blocks are skipped or failed
        reason = st.blocks["scheme_hx"].get("skipped", "scheme axioms failed")
        return {name: {"skipped": reason} for name in ("eigenmatrix", "krein", "srg")}
    return _analytics_blocks(st.ctx.q, st.analytics)


# (timing name, blocks written, skip predicate on h, run).  `skip` returns a
# reason not to run, or None; `run(st)` returns {block: dict} for the blocks
# it names, plus an optional "witness" that replaces the one drawn from its
# first failed block.
STAGES = (
    ("routes", ("identities", "routes"), _always, _algebraic_routes),
    ("automorphisms", ("orbit", "automorphisms"), _always,
          lambda st: hemisystem.verify_automorphisms(
              st.ctx, None if st.hx is None else st.hx["fine_table"])),
    ("passants", ("passants",), _always, lambda st: {"passants": conic.passants(st.ctx)}),
    ("geometric", ("routes",), _tables, _geometric_route),
    ("class_counts", ("class_counts",), _tables, _class_counts),
    ("hemisystem", ("hemisystem",), _tables,
          lambda st: {"hemisystem": hemisystem.verify_hemisystem(st.ctx, st.lines)}),
    ("tau_consistency", ("tau_consistency",), _tables, _tau_consistency),
    ("line_census", ("line_census",), _tables,
          lambda st: {"line_census": hemisystem.line_census(st.ctx, st.lines, st.tau)}),
    ("klein_images", ("klein_images",), _tables, _klein_images),
    ("scheme", ("scheme_hx",), _tables, _scheme),
    ("spectrum", ("eigenmatrix", "krein", "srg"), _tables, _spectrum),
    ("fine", ("fine",), _tables, lambda st: {"fine": _fine_block(st.ctx, st.hx)}),
)


def _geometric_agreement(ctx, table, lines, S):
    """Compare the spread-counting route against the table on every pair.

    Row 0 is derived a second time first, through the scalar linear algebra
    of `geometry.w_meeting_line_through` and `hemisystem.geometric_class`,
    and must match the bulk spread S[0] and table row.
    """
    geo = hemisystem.geometric_table(ctx, lines, S)
    n = len(geo)
    out = {"pass": True, "mode": "full", "checked": n * (n - 1) // 2}
    first = _row_zero_discrepancy(ctx, geo, lines, S)
    if first is None and not np.array_equal(geo, table):
        i, j = divmod(int(np.argmax(geo != table)), n)
        first = {"pair_indices": [i, j], "geometric": int(geo[i, j]), "table": int(table[i, j])}
    if first is not None:
        out["pass"] = False
        out["first_discrepancy"] = first
    return out


def _row_zero_discrepancy(ctx, geo, lines, S):
    """Where the scalar route disagrees with the bulk spread or row 0, or None."""
    codes, wl = lines["codes"], geometry.w_line_index(ctx)["lines"]
    members = lambda i: set(np.flatnonzero(S[i]).tolist())  # line i's spread, as S columns
    spread = {geometry.w_meeting_line_through(ctx, geometry.decode_point(ctx, c))
              for c in codes[0]}
    spread0 = members(0)
    bulk = {wl[k] for k in spread0}
    if spread != bulk:
        return {"line_index": 0, "rep": int(lines["reps"][0]), "scalar_spread_size": len(spread),
                "bulk_spread_size": len(bulk), "shared_members": len(spread & bulk)}
    points = set(codes[0].tolist())
    for j in range(1, len(codes)):
        c = hemisystem.geometric_class(ctx, points, set(codes[j].tolist()), spread0, members(j))
        if c != geo[0, j]:
            return {"pair_indices": [0, j], "geometric": int(geo[0, j]), "scalar": c}
    return None


def _analytics_blocks(q, an):
    """The `eigenmatrix`, `krein` and `srg` blocks of the verified hx scheme."""
    P, Q, mult = an.eigenmatrix()
    expected = set(map(tuple, schemes.expected_p_matrix(q)))
    match = set(map(tuple, P)) == expected
    kr = an.krein()
    qpoly = an.q_polynomial_orderings()
    ppoly = an.p_polynomial_orderings()
    prim = an.primitivity()
    srg_expected = {"v": q * q * (q * q - 1) // 2, "k": (q * q + 1) * (q - 1),
                    "lambda": q * q + q - 2, "mu": 2 * (q * q - q)}
    res = an.srg_parameters([1, 2])
    srg_ok = (res.get("pass") and not res.get("degenerate")
              and all(res[k] == srg_expected[k] for k in srg_expected))
    eigen = {"pass": match, "P": frac_matrix(P), "Q": frac_matrix(Q),
             "multiplicities": mult, "matches_family_formula": match}
    if not match:
        # P is invertible, so its rows are distinct and one lies outside the formula's
        r = next(r for r, row in enumerate(P) if tuple(row) not in expected)
        eigen["first_discrepancy"] = {"P_row": r, "row": eigen["P"][r],
                                      "check": "not_in_family_formula"}
    return {
        "eigenmatrix": eigen,
        "krein": {
            "pass": bool(qpoly) and not ppoly and prim["pass"],
            "parameters": [frac_matrix(layer) for layer in kr],
            "nonnegative": True,  # krein() raises otherwise
            "q_polynomial_orderings": qpoly,
            "p_polynomial_orderings": ppoly,
            "primitive": prim["pass"],
        },
        "srg": {"pass": bool(srg_ok), "merged_classes": [1, 2],
                "result": res, "expected": srg_expected},
    }


def _fine_block(ctx, hx):
    expected_classes = ctx.q2 // 2 - 1
    f2c = hx["fine_to_coarse"]
    fine = RelationTable(hx["fine_table"], d=len(f2c))
    # the labels that occur; np.bincount of the table would copy it to int64
    nlabels = int(np.count_nonzero(np.isin(np.arange(1, fine.d + 1), fine.classes)))
    # part c holds the fine classes of coarse class c (class 1 is empty at q = 2)
    fused = schemes.fuse(fine, [[k for k in f2c if f2c[k] == c] for c in (1, 2, 3)])
    fusion_matches = bool(np.array_equal(fused.classes, hx["table"]))
    out = {"pass": nlabels == expected_classes and fusion_matches,
           "classes": nlabels, "expected_classes": expected_classes,
           "fusion_matches": fusion_matches, "scheme_verified": "skipped"}
    if ctx.h == 2:
        try:
            an = schemes.verify_scheme(fine)
            out["scheme_verified"] = True
            out["valencies"] = an.valencies
        except SchemeAxiomError as exc:
            out["scheme_verified"] = False
            out["pass"] = False
            out["error"] = str(exc)
    return out


def _classified_chunks(ctx, lo=0, hi=None):
    """Row blocks of rows lo..hi - 1 classified by both routes; no table is built."""
    A = hemisystem.klein_arrays(ctx)
    for si, ti in conic.pair_chunks(len(pair_reps(ctx)), lo, hi):
        # the fine keys are dropped here, not held through the Klein sweep
        cls_hx, closed = conic.classify_pairs(ctx, si, ti)[::2]
        cls_kl, fact, shift = hemisystem.klein_classify_pairs(ctx, A, si, ti)
        yield si, ti, cls_hx, cls_kl, closed, fact, shift


def _route_tally(ctx, chunks):
    """(confusion counts, pairs, first identity failures, first discrepancy) of `chunks`.

    `chunks` yields (si, ti, class_hx, class_klein, *failures) per block of
    pairs i < j, in row order, with failures[m] the first pair where
    IDENTITIES[m] fails, or None, so the first discrepancy is the same
    whichever sweep feeds it.
    """
    confusion = np.zeros(9, dtype=np.int64)
    pairs = 0
    failures = [None] * len(IDENTITIES)
    first = None
    for si, ti, a, b, *fails in chunks:
        pairs += int(si.size)
        confusion += np.bincount(3 * a.astype(np.intp) + b - 4, minlength=9)
        failures = [x or y for x, y in zip(failures, fails)]
        if first is None and not np.array_equal(a, b):
            k = int(np.argmax(a != b))
            first = _discrepancy(ctx, int(si[k]), int(ti[k]), int(a[k]), int(b[k]))
        del si, ti, a, b  # not held while the next block is classified
    return confusion, pairs, failures, first


def _route_blocks(ctx, tallies):
    """The `routes` and `identities` blocks from the `_route_tally` of each
    row range, in row order, so that they are those of one pass."""
    confusion, pairs = sum(t[0] for t in tallies), sum(t[1] for t in tallies)
    failures = [next(filter(None, fails), None) for fails in zip(*(t[2] for t in tallies))]
    first = next(filter(None, (t[3] for t in tallies)), None)
    identities = {"pass": not any(failures), "pairs_swept": pairs,
                  **{f"{name}_ok": f is None for name, f in zip(IDENTITIES, failures)}}
    for name, pair in zip(IDENTITIES, failures):
        if pair:
            identities["first_discrepancy"] = {"identity": name, "pair_indices": pair,
                                               "reps": [pair_reps(ctx)[i] for i in pair]}
            break
    routes = {"pass": first is None, "pairs": pairs,
              "hx_vs_klein_confusion": confusion.reshape(3, 3).tolist(),
              "first_discrepancy": first, "geometric": None}
    return routes, identities


def _discrepancy(ctx, i, j, class_hx, class_klein):
    """Witness for a pair the routes classify differently, recomputed in scalar."""
    reps = pair_reps(ctx)
    s, t = reps[i], reps[j]
    _, b1, b2 = hemisystem.klein_class_scalar(ctx, s, t)
    return {"pair_indices": [i, j], "reps": [s, t],
            "class_hx": class_hx, "class_klein": class_klein,
            "rho": conic.rho(ctx, s, t), "nu": conic.nu(ctx, s, t),
            "rho_hat": conic.rho_hat(ctx, s, t), "bt_w": b1, "bt_w_prime": b2}
