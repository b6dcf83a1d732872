"""The conic-side 3-class scheme on Frobenius-conjugate pairs.

The index set is the (q^4 - q^2)/2 unordered pairs {t, t^(q^2)} with
t in GF(q^4) outside GF(q^2); each pair is stored through the orbit
representative with the smaller encoding.  The classifying invariant of an
unordered pair of pairs is

    rho(s, t)  = (s+t)(s^(q^2)+t^(q^2)) / ((s+t^(q^2))(s^(q^2)+t))
    rhat(s, t) = 1 / (rho + rho^(-1))  =  nu^2 + nu,   nu = 1/(rho + 1),

whose value always lies in the zero-trace subset of GF(q^2).  The class is
1, 2 or 3 according as rhat falls in the nonzero zero-trace part of GF(q),
the nonzero-trace part of GF(q), or outside GF(q).  Refining by the fine
key min(rho, rho^(-1)) gives q^2/2 - 1 classes, fixed by the field
(`fine_labels`), and grouping those by rhat recovers the coarse classes.

rho = 1 is algebraically impossible for distinct pairs (rho + 1 is a ratio
of nonzero products), but since the class dictionary would degenerate
there, any occurrence is reported as a hard failure, never guessed around.

`classify_pairs` is the one bulk evaluation of that chain, on a row block
of `pair_chunks`; `table_bundle` scatters the blocks into the class table
and the one-byte fine table, and `certify` tallies the routes, each over
row ranges (`sweep_rows`) that return only first failures or tallies.

The pairs are also the passants of the conic {(1, c, c^2)} u {(0, 0, 1)}
of PG(2, q^2): `passants` checks in bulk that the line joining the two
points of each pair is one, and that every passant is reached once.
"""

from __future__ import annotations

import mmap
import os
import pickle
from functools import lru_cache

import numpy as np

from .fields import FieldTower


# Candidate pairs per pair_chunks block; bounds a sweep's working set: the
# block's two int64 index arrays, plus at most six (classify_pairs) or eight
# (klein_classify_pairs) int64 arrays of its length in the kernel.  On a
# 2-core host, going from 1 << 20 to 1 << 16 cut the traced peak of the h = 3
# Klein sweep from 71.8 to 8.7 MB, and the h = 4 sweep over rows 0-63 ran at
# 2.7-3.6 Mpairs/s against 2.4-2.5.  A shorter pass can still read as more
# memory in the benchmark's export_q8 peak_rss_mb, which is the runner's
# high-water mark and so grows with the number of passes that fit into a run.
PAIR_CHUNK = 1 << 16


class ClassificationError(RuntimeError):
    """An invariant landed outside the class dictionary (certificate failure)."""


@lru_cache(maxsize=None)
def pair_reps(ctx: FieldTower) -> tuple[int, ...]:
    """Sorted minimal representatives of the conjugate pairs.

    This tuple is the shared index set for every scheme in the package;
    position in it is the point index.
    """
    arr = np.arange(ctx.size, dtype=np.int64)
    conj = ctx.frob_arr(arr, 2 * ctx.h)
    reps = arr[(conj != arr) & (arr < conj)]
    if reps.size != (ctx.q4 - ctx.q2) // 2:
        raise RuntimeError("conjugate pair census mismatch")
    return tuple(int(x) for x in reps)


@lru_cache(maxsize=None)
def trace_sets(ctx: FieldTower):
    """The classification subsets of the zero-trace elements of GF(q^2).

    Returns a dict with frozensets t0_q2, s0_star, s1, t0_outside and the
    numpy lookup table `cls` mapping a rhat value to its class 1..3
    (0 marks values outside every class, which certification treats as a
    hard error).
    """
    h = ctx.h
    t0_q2 = frozenset(x for x in ctx.subfield(2 * h) if ctx.abs_trace(x, 2 * h) == 0)
    t0_q = frozenset(x for x in ctx.subfield(h) if ctx.abs_trace(x, h) == 0)
    gq = frozenset(ctx.subfield(h))
    s0_star = t0_q - {0}
    s1 = gq - t0_q
    t0_outside = t0_q2 - gq
    cls = np.zeros(ctx.size, dtype=np.int8)
    for c, part in enumerate((s0_star, s1, t0_outside), start=1):
        cls[list(part)] = c
    return {"t0_q2": t0_q2, "s0_star": s0_star, "s1": s1,
            "t0_outside": t0_outside, "cls": cls}


# ---------------------------------------------------------------------------
# scalar invariants

def rho(ctx, s, t):
    cj = ctx.conj
    s2, t2 = cj(s), cj(t)
    if {s, s2} == {t, t2} or s == s2 or t == t2:
        raise ValueError("rho needs two distinct conjugate pairs")
    num = ctx.mul(s ^ t, s2 ^ t2)
    den = ctx.mul(s ^ t2, s2 ^ t)
    return ctx.div(num, den)


def rho_hat(ctx, s, t):
    r = rho(ctx, s, t)
    d = r ^ ctx.inv(r)
    if d == 0:  # rho = 1; see module docstring
        raise ClassificationError(f"rho = 1 at pair ({s}, {t})")
    return ctx.inv(d)


def nu(ctx, s, t):
    """1/(rho + 1); the bridge invariant to the polar-space side."""
    return ctx.inv(rho(ctx, s, t) ^ 1)


def classify(ctx, s, t) -> int:
    c = int(trace_sets(ctx)["cls"][rho_hat(ctx, s, t)])
    if c == 0:
        raise ClassificationError(f"rhat outside every class at pair ({s}, {t})")
    return c


# ---------------------------------------------------------------------------
# bulk table construction

@lru_cache(maxsize=None)
def pair_arrays(ctx):
    """Read-only int64 arrays (reps, conj): the pair representatives t and t^(q^2)."""
    reps = np.asarray(pair_reps(ctx), dtype=np.int64)
    conj = ctx.frob_arr(reps, 2 * ctx.h)
    reps.flags.writeable = conj.flags.writeable = False
    return reps, conj


def pair_chunks(n, lo=0, hi=None):
    """(si, ti) index arrays of the pairs i < j of range(n), lo <= i < hi, in row order.

    Each block covers whole rows, at most PAIR_CHUNK candidates (or one row).
    Across the yield the generator holds only the two index arrays it
    yields (np.nonzero's one (pairs, 2) int64 buffer): the bool mask is
    dropped and the row offset is added in place.
    """
    rows = max(1, PAIR_CHUNK // n)
    end = n - 1 if hi is None else min(hi, n - 1)
    for r0 in range(lo, end, rows):
        si, ti = np.nonzero(np.triu(np.ones((min(rows, end - r0), n), dtype=bool), r0 + 1))
        si += r0
        yield si, ti


def split_rows(n, parts):
    """Boundaries [0, b_1, ..., n] of `parts` contiguous row ranges of the
    pairs i < j of range(n): b_k is the row boundary nearest to k/parts of
    the pairs, so each range holds its share to within one row's pairs."""
    before = np.cumsum(np.arange(n, -1, -1)) - n  # pairs in rows 0..r-1, r = 0..n
    share = before[-1] * np.arange(1, parts) / parts
    b = np.searchsorted(before, share)
    b -= share - before[b - 1] < before[b] - share
    return [0, *b.tolist(), n]


def shared_zeros(n, dtype, shared):
    """An n x n np.zeros, or with `shared` one in a MAP_SHARED anonymous map
    that forked sweep workers write into."""
    if not shared:
        return np.zeros((n, n), dtype=dtype)
    return np.frombuffer(mmap.mmap(-1, n * n * np.dtype(dtype).itemsize), dtype).reshape(n, n)


def sweep_rows(n, workers, sweep):
    """[sweep(lo, hi) for each range of split_rows(n, workers)], in row order.

    This process sweeps range 0 and an os.fork() child each later one; a
    child writes its table rows into `shared_zeros` maps, pipes back its
    pickled result or exception and leaves through os._exit.  Every child is
    waited for on every path.  Exceptions re-raise in range order; a child
    that sends nothing raises RuntimeError naming its rows.
    """
    bounds, outs, children = split_rows(n, workers), [], []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            r, w = os.pipe()
            if not (pid := os.fork()):  # the child: never returns into the caller's stack
                try:
                    os.close(r)
                    try:
                        out = sweep(lo, hi)
                    except Exception as exc:
                        out = exc
                    with open(w, "wb") as f:
                        pickle.dump(out, f)
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, r, f"the sweep worker of rows {lo}..{hi - 1}"))
        outs.append(sweep(bounds[0], bounds[1]))
    finally:
        for pid, r, worker in children:
            with open(r, "rb") as f:
                data = f.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            try:
                outs.append(pickle.loads(data))
            except Exception:
                outs.append(RuntimeError(f"{worker} sent no result (exit code {code})"))
    for out in outs:
        if isinstance(out, Exception):
            raise out
    return outs


def rho_of_pairs(ctx, si, ti):
    """Vectorized rho over index arrays into the representative list.

    Holds at most six chunk-sized arrays at once: the four factors, each
    xor-ed in place from the gathers, and the two logs inside `mul_arr`.
    """
    reps, conj = pair_arrays(ctx)
    s, t, t2 = reps[si], reps[ti], conj[ti]
    num = s ^ t
    s ^= t2  # s + t^(q^2)
    s2 = conj[si]
    t2 ^= s2  # s^(q^2) + t^(q^2)
    s2 ^= t  # s^(q^2) + t
    del t
    num = ctx.mul_arr(num, t2)
    del t2
    den = ctx.mul_arr(s, s2)
    del s, s2
    if np.any(num == 0) or np.any(den == 0):
        raise ClassificationError("vanishing cross-ratio factor on distinct pairs")
    return ctx.div_arr(num, den)


def first_pair(si, ti, bad):
    """[si[k], ti[k]] at the first k where the bool array `bad` holds, or None."""
    k = int(np.argmax(bad))
    return [int(si[k]), int(ti[k])] if bad[k] else None


def classify_pairs(ctx, si, ti):
    """(class 1..3, fine key min(rho, rho^(-1)), closed_form_failure) of the
    pairs (si[k], ti[k]); closed_form_failure is the first pair of indices
    where rhat == nu^2 + nu fails, or None.

    Holds at most six chunk-sized int64 arrays at once, inside
    `rho_of_pairs`; rho is turned into rho + 1 in place once the key is taken.
    Raises ClassificationError on rho = 1 or on a rhat outside every class.
    """
    r = rho_of_pairs(ctx, si, ti)
    key = ctx.inv_arr(r)
    d = r ^ key
    if one := first_pair(si, ti, d == 0):
        raise ClassificationError(f"rho = 1 at pair indices ({one[0]}, {one[1]})")
    np.minimum(r, key, out=key)
    rhat = ctx.inv_arr(d)
    del d
    r ^= 1
    nu_arr = ctx.inv_arr(r)
    del r
    closed = ctx.mul_arr(nu_arr, nu_arr)
    closed ^= nu_arr
    closed_form_failure = first_pair(si, ti, closed != rhat)
    cls = trace_sets(ctx)["cls"][rhat]
    if np.any(cls == 0):
        k = int(np.argmax(cls == 0))
        raise ClassificationError(
            f"rhat value {int(rhat[k])} outside every class at pair indices "
            f"({int(si[k])}, {int(ti[k])})")
    return cls, key, closed_form_failure


@lru_cache(maxsize=None)
def fine_labels(ctx):
    """(lut, fine_to_coarse): rho is a ratio of two GF(q^2)-norms, so the read-only
    `lut` maps the k-th smallest key min(x, x^(-1)), x in GF(q^2) - {0, 1}, to
    label k and all else to 0; fine_to_coarse[k] is the class of its rhat."""
    x = np.array(ctx.subfield(2 * ctx.h)[2:], dtype=np.int64)  # ascending: 0, 1 first
    lut = np.zeros(ctx.size, dtype=np.min_scalar_type(ctx.q2 // 2 - 1))
    lut[np.minimum(x, ctx.inv_arr(x))] = 1  # not np.unique, which imports numpy.ma
    keys = np.flatnonzero(lut)
    lut[keys] = np.arange(1, keys.size + 1)
    lut.flags.writeable = False
    coarse = trace_sets(ctx)["cls"][ctx.inv_arr(keys ^ ctx.inv_arr(keys))]
    return lut, dict(enumerate(coarse.tolist(), start=1))


def table_bundle(ctx, workers=1):
    """The n x n class tables from a chunked sweep of classify_pairs in `workers` row ranges.

    Returns a dict with the int8 class `table`, the one-byte `fine_table` of
    each block's fine keys turned into `fine_labels` (no key table is held),
    `fine_to_coarse` and `closed_form_failure`, the first pair where the
    closed form fails, or None.
    """
    n = len(pair_reps(ctx))
    lut, fine_to_coarse = fine_labels(ctx)
    table = shared_zeros(n, np.int8, workers > 1)
    fine = shared_zeros(n, lut.dtype, workers > 1)

    def sweep(lo, hi):
        failure = None
        for si, ti in pair_chunks(n, lo, hi):
            cls, key, closed = classify_pairs(ctx, si, ti)
            table[si, ti] = table[ti, si] = cls
            fine[si, ti] = fine[ti, si] = lut[key]
            failure = failure or closed
        return failure

    return {"table": table, "fine_table": fine, "fine_to_coarse": dict(fine_to_coarse),
            "closed_form_failure": next(filter(None, sweep_rows(n, workers, sweep)), None)}


# ---------------------------------------------------------------------------
# the pairs as the passants of the conic

def pair_lines(ctx):
    """Per rep t, the line a x0 + b x1 + x2 = 0 of PG(2, q^2) through
    (1, t, t^2) and its conjugate: a = t t^(q^2) and b = t + t^(q^2)."""
    t, conj = pair_arrays(ctx)
    return ctx.mul_arr(t, conj), t ^ conj


def passants(ctx):
    """The `passants` block: the pair lines are exactly the passants of the conic.

    A line with x2-coefficient 0 holds (0, 0, 1), and (a, b, 1) meets the
    conic exactly when a = c^2 + b c for some c in GF(q^2).  So the sorted
    codes a << 4h | b of the pair lines must equal the complement of
    {(c^2 + b c, b)} in GF(q^2)^2, which shows at once that the map is
    injective, that every image misses the conic and that the census is n.
    A failure names the first pair, with its line, whose line is not a
    passant, repeats an earlier line or misses the rep, or else the first
    passant no pair reaches.
    """
    t = pair_arrays(ctx)[0]
    a, b = pair_lines(ctx)
    # with a, b in GF(q^2), as the set equality shows, t^(q^2) is on the line with t
    off = (a ^ ctx.mul_arr(b, t) ^ ctx.mul_arr(t, t)) != 0
    F = np.array(ctx.subfield(2 * ctx.h), dtype=np.int64)
    B, C, shift = F[:, None], F[None, :], 4 * ctx.h
    met = (ctx.mul_arr(C, C) ^ ctx.mul_arr(B, C)) << shift | B
    passant = np.setdiff1d(C << shift | B, met)  # sorted
    codes = a << shift | b
    ordered = np.sort(codes)
    block = {"pass": bool(np.array_equal(ordered, passant)) and not off.any(),
             "lines": int(np.count_nonzero(np.diff(ordered))) + 1,
             "passants": int(passant.size), "joins_conjugate_points": not off.any()}
    if block["pass"]:
        return block
    shared = np.ones(t.size, dtype=bool)
    shared[np.unique(codes, return_index=True)[1]] = False
    line = lambda c: [int(c) >> shift, int(c) & ((1 << shift) - 1), 1]
    for check, bad in (("not_a_passant", ~np.isin(codes, passant)), ("shared_line", shared),
                       ("joins_conjugate_points", off)):
        if bad.any():
            k = int(np.argmax(bad))
            first = {"index": k, "rep": int(t[k]), "line": line(codes[k]), "check": check}
            break
    else:
        first = {"line": line(np.setdiff1d(passant, codes)[0]), "check": "passant_not_reached"}
    return {**block, "first_discrepancy": first}
