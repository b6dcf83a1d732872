"""Output checks for every pass, run outside the timed region.

Each check uses only the field oracle and the PAPER.md closed forms; none
compares against a stored copy of earlier output.  A check is one
operation: it raises `CheckFailed` (or any error while reading the output)
when the property does not hold, and `Ledger.op` counts it as failed
without stopping the run.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import random
from fractions import Fraction

import numpy as np

from oracle import Field, closed_forms


class CheckFailed(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


class Ledger:
    """Operations attempted and failed in one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failed_checks = 0
        self.failures = []

    def op(self, name, fn, check=True):
        """Run one operation (an output check unless `check` is false);
        return its result, or None when it failed."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # a failed operation is recorded, the run goes on
            self.failed += 1
            self.failed_checks += check
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}"[:500])
            return None


@functools.lru_cache(maxsize=None)
def field(h):
    """The oracle field and its pair representatives (built once per run)."""
    F = Field(h)
    return F, F.pair_reps()


def file_sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _frac(s):
    num, den = s.split("/")
    return Fraction(int(num), int(den))


def _check_p_times_q(P, Q, n, k):
    d1 = len(P)
    expect([int(x) for x in P[0]] == [1, *k] and all(x.denominator == 1 for x in P[0]),
           f"P row 0 is {P[0]}, expected (1, {k})")
    for i in range(d1):
        for j in range(d1):
            s = sum(P[i][l] * Q[l][j] for l in range(d1))
            expect(s == (n if i == j else 0), f"(PQ)[{i}][{j}] = {s}, expected n*I")


# ---------------------------------------------------------------------------
# certificates

def certificate_checks(path, h, seen_hashes, key):
    """(name, thunk) pairs checking one `hxpw certify` output file."""
    q = 1 << h
    cf = closed_forms(q)
    cache = {}

    def cert():
        if "doc" not in cache:
            with open(path) as f:
                cache["doc"] = json.load(f)
        return cache["doc"]

    def header():
        F, _ = field(h)
        hd = cert()["header"]
        expect((hd["h"], hd["q"], hd["n"]) == (h, q, cf["n"]),
               f"header h/q/n {hd['h']}/{hd['q']}/{hd['n']}")
        expect(hd["modulus_hex"] == hex(F.modulus),
               f"modulus {hd['modulus_hex']} != oracle {hex(F.modulus)}")

    def verdict():
        c = cert()
        expect(c["verdict"] == "pass" and c["witness"] is None,
               f"verdict {c['verdict']} witness {c['witness']}")

    def routes():
        b = cert()["blocks"]
        r, ids = b["routes"], b["identities"]
        expect(r["pass"] and r["pairs"] == cf["pairs"] and r["first_discrepancy"] is None,
               f"routes pass={r['pass']} pairs={r['pairs']} expected {cf['pairs']}")
        expect(ids["pass"] and ids["pairs_swept"] == cf["pairs"],
               f"identities pass={ids['pass']} swept={ids['pairs_swept']}")
        conf = r["hx_vs_klein_confusion"]
        want = cf["class_pairs"] if q > 2 else (0, cf["pairs"], 0)
        expect(all(conf[a][b] == (want[a] if a == b else 0)
                   for a in range(3) for b in range(3)),
               f"confusion {conf}, expected diagonal {want}")

    def class_counts():
        c = cert()
        got = c["blocks"]["class_counts"]["unordered_pairs"]
        if q == 2:
            expect(c["degenerate"] is True, "q = 2 certificate not marked degenerate")
            want = (0, cf["pairs"], 0)
        else:
            expect(c["degenerate"] is False, "certificate marked degenerate")
            want = cf["class_pairs"]
        for fam in ("hx", "pw"):
            counts = tuple(got[fam][str(k)] for k in (1, 2, 3))
            expect(counts == want, f"{fam} class pairs {counts}, expected {want}")

    def srg_and_eigen():
        b = cert()["blocks"]
        if q == 2:
            expect(all("skipped" in b[name] for name in ("srg", "eigenmatrix", "krein")),
                   "degenerate q = 2 did not skip the scheme analytics")
            return
        res = b["srg"]["result"]
        got = (res["v"], res["k"], res["lambda"], res["mu"])
        expect(b["srg"]["pass"] and got == cf["srg"], f"srg {got}, expected {cf['srg']}")
        P = [[_frac(x) for x in row] for row in b["eigenmatrix"]["P"]]
        Q = [[_frac(x) for x in row] for row in b["eigenmatrix"]["Q"]]
        _check_p_times_q(P, Q, cf["n"], cf["valencies"])

    def hemisystem():
        hb = cert()["blocks"]["hemisystem"]
        external = (q * q + 1) * (q ** 3 - q)
        expect(hb["pass"] and hb["cover"] == q // 2 and hb["external_points"] == external,
               f"hemisystem cover {hb['cover']} on {hb['external_points']} points")

    def determinism():
        digest = cert()["canonical_sha256"]
        first = seen_hashes.setdefault(key, digest)
        expect(digest == first, f"canonical_sha256 {digest} differs from {first}")

    checks = [("header", header), ("verdict", verdict), ("routes", routes),
              ("class_counts", class_counts), ("srg_eigen", srg_and_eigen),
              ("hemisystem", hemisystem)]
    if h <= 2:
        def census():
            b = cert()["blocks"]
            lc, orb = b["line_census"], b["orbit"]
            expect(lc["pass"] and lc["total_lines"] == cf["lines"],
                   f"line census {lc['total_lines']}, expected {cf['lines']}")
            expect(orb["pass"] and orb["orbit_size"] == cf["n"],
                   f"orbit {orb['orbit_size']}, expected {cf['n']}")
        checks.append(("census_orbit", census))
    checks.append(("determinism", determinism))
    return [(f"{key}.{name}", fn) for name, fn in checks]


# ---------------------------------------------------------------------------
# build / export outputs

def _read_csv_table(path):
    header = {}
    with open(path) as f:
        text = f.read()
    body_start = 0
    for line in text.splitlines(keepends=True):
        if not line.startswith("#"):
            break
        k, _, v = line[2:].strip().partition("=")
        header[k] = v
        body_start += len(line)
    table = np.loadtxt(io.StringIO(text[body_start:]), delimiter=",", dtype=np.int16, ndmin=2)
    return header, table


def _read_analytics_csv(path):
    sections = {}
    current = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line[0].isalpha():
                current = line
                sections[current] = []
            else:
                sections[current].append(line.split(","))
    return sections


def export_checks(outdir, h, seed, seen_hashes, files):
    """(name, thunk) pairs checking the five `export_q8` outputs."""
    q = 1 << h
    cf = closed_forms(q)
    n = cf["n"]
    tables = {}

    def hx_json():
        F, reps = field(h)
        with open(outdir / files["hx"]) as f:
            doc = json.load(f)
        hd = doc["header"]
        expect((hd["h"], hd["q"], hd["n"], hd["family"]) == (h, q, n, "hx"), f"header {hd}")
        expect(hd["modulus_hex"] == hex(F.modulus), f"modulus {hd['modulus_hex']}")
        expect(tuple(hd["valencies"]) == cf["valencies"], f"valencies {hd['valencies']}")
        expect(hd["point_reps"] == reps, "point_reps differ from the oracle's pair set")
        tables["hx"] = np.array(doc["classes"], dtype=np.int16)

    def csv_table(family, classes):
        F, _ = field(h)
        hd, table = _read_csv_table(outdir / files[family])
        expect((hd["q"], hd["n"], hd["family"], hd["modulus_hex"]) ==
               (str(q), str(n), family, hex(F.modulus)), f"{family} header {hd}")
        expect(hd["class_count"] == str(classes), f"{family} class_count {hd['class_count']}")
        expect(table.shape == (n, n), f"{family} table shape {table.shape}")
        tables[family] = table

    def structure():
        hx, pw = tables["hx"], tables["pw"]
        expect(hx.shape == (n, n) and np.array_equal(hx, pw), "hx and pw tables differ")
        expect(np.array_equal(hx, hx.T), "hx table not symmetric")
        expect(not np.diag(hx).any(), "hx diagonal not zero")
        for k, kv in zip((1, 2, 3), cf["valencies"]):
            rows = np.count_nonzero(hx == k, axis=1)
            expect(np.all(rows == kv), f"class {k} row counts {rows.min()}..{rows.max()}, expected {kv}")

    def oracle_entries():
        F, reps = field(h)
        hx = tables["hx"]
        row0 = F.row_classes(reps, 0)
        expect(hx[0].tolist() == row0, "row 0 differs from the oracle")
        rng = random.Random(seed)
        for _ in range(2000):
            i, j = rng.sample(range(n), 2)
            c = F.classify(reps[i], reps[j])
            expect(int(hx[i, j]) == c, f"entry ({i}, {j}) = {hx[i, j]}, oracle {c}")

    def fine():
        F, reps = field(h)
        fine, hx = tables["fine"], tables["hx"]
        expect(np.array_equal(fine, fine.T) and not np.diag(fine).any(),
               "fine table not symmetric with zero diagonal")
        labels = np.unique(fine[~np.eye(n, dtype=bool)])
        expect(labels.tolist() == list(range(1, cf["fine_classes"] + 1)),
               f"fine labels {labels.min()}..{labels.max()} ({labels.size})")
        coarse = np.zeros((labels.size + 1, 4), dtype=bool)
        coarse[fine, hx] = True
        expect(np.all(coarse[1:].sum(axis=1) == 1), "a fine class spans two coarse classes")
        # the label must be a function of {rho, 1/rho} and separate distinct values
        rng = random.Random(seed + 1)
        pairs = [(0, j) for j in range(1, n)] + [tuple(rng.sample(range(n), 2)) for _ in range(2000)]
        by_label, by_value = {}, {}
        for i, j in pairs:
            lab, val = int(fine[i, j]), F.fine_label(reps[i], reps[j])
            expect(by_label.setdefault(lab, val) == val and by_value.setdefault(val, lab) == lab,
                   f"fine label {lab} at ({i}, {j}) is not one value of {{rho, 1/rho}}")

    def graph6_srg():
        import networkx as nx
        with open(outdir / files["graph6"], "rb") as f:
            data = f.read().strip()
        G = nx.from_graph6_bytes(data)
        v, k, lam, mu = cf["srg"]
        expect(G.number_of_nodes() == v, f"graph6 has {G.number_of_nodes()} vertices")
        A = nx.to_numpy_array(G, nodelist=range(v), dtype=np.float32)
        expect(np.array_equal(A > 0, np.isin(tables["hx"], (1, 2))),
               "graph6 graph is not the class-{1,2} union of the table")
        deg = A.sum(axis=1)
        expect(np.all(deg == k), f"degrees {deg.min()}..{deg.max()}, expected {k}")
        A2 = A @ A
        adj = A > 0
        off = ~np.eye(v, dtype=bool) & ~adj
        expect(np.all(A2[adj] == lam), f"lambda values {A2[adj].min()}..{A2[adj].max()}")
        expect(np.all(A2[off] == mu), f"mu values {A2[off].min()}..{A2[off].max()}")

    def analytics():
        s = _read_analytics_csv(outdir / files["analytics"])
        P = [[_frac(x) for x in row] for row in s["P"]]
        Q = [[_frac(x) for x in row] for row in s["Q"]]
        _check_p_times_q(P, Q, n, cf["valencies"])
        mult = [int(x) for x in s["multiplicities"][0]]
        expect(sum(mult) == n and mult == [int(x) for x in Q[0]], f"multiplicities {mult}")
        for kk in range(4):
            kr = [_frac(x) for row in s[f"krein k={kk}"] for x in row]
            expect(min(kr) >= 0, f"negative Krein parameter in k={kk}")

    def determinism():
        for name, fname in sorted(files.items()):
            digest = file_sha256(outdir / fname)
            first = seen_hashes.setdefault(name, digest)
            expect(digest == first, f"{fname} differs between passes")

    return [(f"export.{name}", fn) for name, fn in (
        ("hx_json", hx_json),
        ("pw_csv", lambda: csv_table("pw", 3)),
        ("fine_csv", lambda: csv_table("fine", cf["fine_classes"])),
        ("tables", structure), ("oracle_entries", oracle_entries),
        ("fine_table", fine), ("graph6_srg", graph6_srg),
        ("analytics_csv", analytics), ("determinism", determinism))]
