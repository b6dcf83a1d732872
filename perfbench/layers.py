"""Traced in-process layer suite behind `run.py --trace 1`.

Spans are recorded from the benchmark's side: for the duration of a traced
run the public functions of the hxpw modules (and `hemisystem._bt_arrays`,
the kernel of the h = 4 sweep) are replaced, at every module-level name
that binds them, by wrappers that append (name, start, end, parent, run,
extras) to an in-memory list.  `certify` is
then called in-process, so the calls happen in exactly the order the
certificate makes them.  The spans are written to a JSON file when the run
ends.  A layer's self time is the time of its spans minus the time of their
child spans.

Scalar field operations are far too fine-grained to wrap (millions of calls
per certificate); their time counts as self time of the calling layer, and
`fields.*_ns` measures them separately.  Every cached function in hxpw is
cleared before each in-process call, so each call starts as cold as a fresh
process does.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import json
import random
import statistics
import time
import tracemalloc

import numpy as np

from checks import expect, field
from oracle import closed_forms

LAYERS = ("fields", "geometry", "conic", "hemisystem", "schemes", "certify")

# Functions wrapped in spans; "Class.method" wraps a method.
TRACED = {
    "fields": ["tower", "FieldTower.mul_arr", "FieldTower.inv_arr", "FieldTower.div_arr",
               "FieldTower.frob_arr"],
    "geometry": ["w_meeting_line_through", "h_lines_through", "w_lines", "hermitian_points",
                 "w_point_set", "parabolic_point_set", "klein_map", "klein_vt",
                 "vt_span_points", "vt_perp", "qt"],
    "conic": ["pair_reps", "trace_sets", "table_bundle", "rho_of_pairs", "rho", "rho_hat", "nu"],
    "hemisystem": ["build_hemisystem", "spread_map", "geometric_class", "geometric_table",
                   "verify_hemisystem", "klein_arrays", "klein_table_bundle", "_bt_arrays",
                   "line_census", "verify_orbit", "verify_equivariance", "tau_line",
                   "klein_class_scalar"],
    "schemes": ["verify_scheme", "srg_check", "fuse", "expected_p_matrix",
                "RelationTable.structure_report", "SchemeAnalytics.eigenmatrix",
                "SchemeAnalytics.krein", "SchemeAnalytics.q_polynomial_orderings",
                "SchemeAnalytics.p_polynomial_orderings", "SchemeAnalytics.primitivity"],
    "certify": ["certify"],
}
# Spans that also record the peak of memory allocated during the call.
PEAK = {"conic.table_bundle", "hemisystem.klein_table_bundle", "schemes.verify_scheme"}

SCALAR_CALLS = 50_000
SCALAR_REPEATS = 5
REPEATS = 3


def _hxpw():
    # importlib: the package re-exports the function `certify` under the
    # submodule's name
    return {name: importlib.import_module(f"hxpw.{name}") for name in (*LAYERS, "cli")}


# ---------------------------------------------------------------------------
# spans

class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index, run label, extras]
        self.stack = []
        self.run = None

    def wrap(self, name, fn, describe=None):
        """`fn` wrapped in a span; `describe(*args)` adds extras to it."""
        peak = name in PEAK

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.run,
                    describe(*args) if describe else {}]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            own_malloc = peak and not tracemalloc.is_tracing()
            if own_malloc:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                if own_malloc:
                    span[5]["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
                self.stack.pop()
        return traced

    def count(self, key, value):
        if self.stack:
            extras = self.spans[self.stack[-1]][5]
            extras[key] = extras.get(key, 0) + value

    def self_times(self):
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] is not None:
                child[s[3]] += s[2] - s[1]
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def dump(self, path):
        t0 = min((s[1] for s in self.spans), default=0.0)
        rows = [{"name": s[0], "start_s": s[1] - t0, "end_s": s[2] - t0, "parent": s[3],
                 "run": s[4], **s[5]} for s in self.spans]
        path.write_text(json.dumps(rows) + "\n")


class _ProductCounter(np.ndarray):
    """An ndarray view that reports each 2-D matrix product made from it.

    Handed to `schemes.verify_scheme` as the relation table, it propagates
    through `==`, `astype` and indexing to the class matrices, so every
    `@` (or np.dot) on them is counted in the open span with its computed
    flop count 2*m*k*n.
    """

    tracer = None

    @staticmethod
    def _plain(x):
        return x.view(np.ndarray) if isinstance(x, _ProductCounter) else x

    def _record(self, a, b):
        if np.ndim(a) == 2 and np.ndim(b) == 2 and _ProductCounter.tracer is not None:
            (m, k), (_, n) = np.shape(a), np.shape(b)
            _ProductCounter.tracer.count("products", 1)
            _ProductCounter.tracer.count("flop", 2 * m * k * n)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [self._plain(x) for x in inputs]
        if "out" in kwargs:
            kwargs["out"] = tuple(self._plain(x) for x in kwargs["out"])
        if ufunc is np.matmul and method == "__call__":
            self._record(*plain[:2])
        result = getattr(ufunc, method)(*plain, **kwargs)
        if isinstance(result, np.ndarray) and not isinstance(result, _ProductCounter):
            result = result.view(_ProductCounter)
        return result

    def __array_function__(self, func, types, args, kwargs):
        if func is np.dot:
            self._record(*args[:2])
        return super().__array_function__(func, types, args, kwargs)


@contextlib.contextmanager
def instrument(tracer, mods):
    """Swap every binding of a traced function for its span wrapper."""
    saved = []
    wrappers = {}
    for layer, attrs in TRACED.items():
        mod = mods[layer]
        for attr in attrs:
            # a function the program no longer has is left out; the metrics
            # that need its spans then fail as operations
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                fn = vars(cls).get(meth) if cls is not None else None
                if fn is not None:
                    saved.append((cls, meth, fn))
                    setattr(cls, meth, tracer.wrap(f"{layer}.{attr}", fn))
            elif hasattr(mod, attr):
                fn = getattr(mod, attr)
                wrappers[id(fn)] = (fn, tracer.wrap(f"{layer}.{attr}", fn))
    schemes = mods["schemes"]
    if hasattr(schemes, "verify_scheme"):
        fn = schemes.verify_scheme
        traced = tracer.wrap("schemes.verify_scheme", fn, lambda table: {"d": table.d})

        def verify_scheme(table):
            counting = schemes.RelationTable(table.classes, d=table.d)
            counting.classes = table.classes.view(_ProductCounter)  # __init__ would strip it
            return traced(counting)
        wrappers[id(fn)] = (fn, verify_scheme)
    for mod in mods.values():
        for k, v in list(vars(mod).items()):
            if id(v) in wrappers and wrappers[id(v)][0] is v:
                saved.append((mod, k, v))
                setattr(mod, k, wrappers[id(v)][1])
    _ProductCounter.tracer = tracer
    try:
        yield
    finally:
        _ProductCounter.tracer = None
        for obj, k, v in reversed(saved):
            setattr(obj, k, v)


def clear_caches(mods):
    for mod in mods.values():
        for v in vars(mod).values():
            if hasattr(v, "cache_clear") and hasattr(v, "cache_info"):
                v.cache_clear()
    gc.collect()


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def timed_loop(fn):
    """Like `timed`, with the collector off as `timeit` does, for loops of
    small calls whose time would otherwise include collections of
    objects they did not make."""
    gc.disable()
    try:
        return timed(fn)[0]
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# the suite

def _certify_runs(mods, ledger, tracer):
    """Untraced then traced in-process certificates at h = 2 and 3."""
    certify = mods["certify"].certify
    untraced = {}
    for h in (2, 3):
        clear_caches(mods)
        untraced[h] = timed(lambda: certify(h))
        ledger.op(f"inprocess.certify_h{h}",
                  lambda: expect(untraced[h][1]["verdict"] == "pass", "verdict not pass"))
    for h in (2, 3):
        clear_caches(mods)
        tracer.run = f"certify_h{h}"
        with instrument(tracer, mods):
            cert = mods["certify"].certify(h)
        tracer.run = None
        ledger.op(f"traced.certify_h{h}",
                  lambda: expect(cert["verdict"] == "pass" and cert["canonical_sha256"]
                                 == untraced[h][1]["canonical_sha256"],
                                 "traced certificate differs from the untraced one"))
    clear_caches(mods)
    return {h: t for h, (t, _) in untraced.items()}


def _window_h4(mods, ledger, tracer, seed):
    """One h = 4 sweep chunk through the calls `certify._certify_large` makes."""
    clear_caches(mods)
    tracer.run = "window_h4"
    with instrument(tracer, mods):
        ctx = mods["fields"].tower(4)
        reps = mods["conic"].pair_reps(ctx)
        n = len(reps)
        A = mods["hemisystem"].klein_arrays(ctx)
        rows = max(1, (1 << 22) // n)
        si = np.repeat(np.arange(rows), n)
        ti = np.tile(np.arange(n), rows)
        keep = si < ti
        si, ti = si[keep], ti[keep]
        for _ in range(REPEATS):
            r = mods["conic"].rho_of_pairs(ctx, si, ti)
            rhat = ctx.inv_arr(r ^ ctx.inv_arr(r))
            nu = ctx.inv_arr(r ^ 1)
            identity = np.array_equal(ctx.mul_arr(nu, nu) ^ nu, rhat)
            cls_hx = mods["conic"].trace_sets(ctx)["cls"][rhat]
            b1, b2 = mods["hemisystem"]._bt_arrays(ctx, A, si, ti)
            cls_kl = np.where(b1 == 0, 1, np.where(b2 == 0, 2, 3))
        equi = mods["hemisystem"].verify_equivariance(ctx, samples=100, seed=seed)
    tracer.run = None

    def check():
        F, oreps = field(4)
        expect(ctx.modulus == F.modulus, f"h = 4 modulus {hex(ctx.modulus)}")
        expect(list(reps) == oreps, "h = 4 pair set differs from the oracle's")
        expect(identity and np.array_equal(cls_hx, cls_kl), "routes disagree in the window")
        expect(equi["pass"], "h = 4 equivariance failed")
        rng = random.Random(seed)
        for k in rng.sample(range(si.size), 500):
            c = F.classify(oreps[si[k]], oreps[ti[k]])
            expect(cls_hx[k] == c, f"window pair ({si[k]}, {ti[k]}) class {cls_hx[k]}, oracle {c}")
    ledger.op("window_h4", check)
    pairs = int(si.size)
    del r, rhat, nu, cls_hx, cls_kl, b1, b2

    # bulk field operations on arrays of one chunk's size
    rng = np.random.default_rng(seed)
    a = rng.integers(1, ctx.size, rows * n, dtype=np.int64)
    b = rng.integers(1, ctx.size, rows * n, dtype=np.int64)
    bulk = {
        "mul_arr": lambda: ctx.mul_arr(a, b),
        "inv_arr": lambda: ctx.inv_arr(a),
        "div_arr": lambda: ctx.div_arr(a, b),
        "frob_arr": lambda: ctx.frob_arr(a, 2 * ctx.h),
    }
    rates = {k: a.size / 1e6 / statistics.median(timed(fn)[0] for _ in range(REPEATS))
             for k, fn in bulk.items()}
    clear_caches(mods)
    return pairs, rates


def _scalar_ns(mods, seed):
    ctx = mods["fields"].tower(3)
    rng = random.Random(seed)
    xs = [rng.randrange(1, ctx.size) for _ in range(SCALAR_CALLS)]
    ys = [rng.randrange(1, ctx.size) for _ in range(SCALAR_CALLS)]
    mul, inv, div = ctx.mul, ctx.inv, ctx.div

    def per_call(fn):
        return 1e9 * statistics.median(timed_loop(fn) for _ in range(SCALAR_REPEATS)) / SCALAR_CALLS

    return {
        "mul": per_call(lambda: [mul(x, y) for x, y in zip(xs, ys)]),
        "inv": per_call(lambda: [inv(x) for x in xs]),
        "div": per_call(lambda: [div(x, y) for x, y in zip(xs, ys)]),
    }


def _graph6_s(mods):
    ctx = mods["fields"].tower(3)
    table = mods["conic"].table_bundle(ctx)["table"]
    adj = np.isin(table, (1, 2))
    np.fill_diagonal(adj, False)
    t, _ = timed(lambda: mods["cli"].graph6_bytes(adj))
    clear_caches(mods)
    return t


def _inprocess_pass_s(mods, workload, certify_s):
    """In-process time of the computations behind one CLI pass, each cold."""
    if workload == "certify_small":
        clear_caches(mods)
        t1, _ = timed(lambda: mods["certify"].certify(1))
        return t1 + certify_s[2]
    if workload == "certify_q8":
        return certify_s[3]
    cli, schemes = mods["cli"], mods["schemes"]

    def analytics():
        header, table = cli._family_bundle(3, "hx")
        an = schemes.verify_scheme(schemes.RelationTable(table, d=header["class_count"]))
        an.eigenmatrix()
        an.krein()

    total = 0.0
    for fn in (lambda: cli._family_bundle(3, "hx"), lambda: cli._family_bundle(3, "pw"),
               lambda: cli._family_bundle(3, "fine"), lambda: cli._family_bundle(3, "hx"),
               analytics):
        clear_caches(mods)
        total += timed(fn)[0]
    clear_caches(mods)
    return total


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_traced(seed, workload, ledger, record, cli_pass, out_dir):
    """Per-layer metrics: one checked CLI pass, then the in-process suite."""
    mods = _hxpw()
    tracer = Tracer()

    def stage(name, fn):
        return ledger.op(f"stage {name}", fn, check=False)

    cli = cli_pass()
    certify_s = stage("certify", lambda: _certify_runs(mods, ledger, tracer))
    window_pairs, bulk_rates = stage("window_h4", lambda: _window_h4(mods, ledger, tracer, seed)) \
        or (None, None)
    gc.freeze()  # the spans stay alive; keep them out of later collections
    scalar = stage("scalar", lambda: _scalar_ns(mods, seed))
    graph6_s = stage("graph6", lambda: _graph6_s(mods))
    inprocess_s = stage("inprocess", lambda: _inprocess_pass_s(mods, workload, certify_s))

    spans_path = out_dir / f"spans-{workload}-seed{seed}.json"
    tracer.dump(spans_path)
    record["spans_file"] = spans_path.name
    record["cli_pass"] = cli

    selfs = tracer.self_times()
    index = {id(s): i for i, s in enumerate(tracer.spans)}
    h2, h3, h4 = "certify_h2", "certify_h3", "window_h4"
    q3 = closed_forms(8)

    def spans(run, *names):
        return [s for s in tracer.spans if s[4] == run and s[0] in names]

    def dur(run, *names):
        return sum(s[2] - s[1] for s in spans(run, *names))

    def one(run, name, pred=lambda s: True):
        return [s for s in spans(run, name) if pred(s)][0]

    def first_s(run, name, pred=lambda s: True):
        s = one(run, name, pred)
        return s[2] - s[1]

    def mean_us(run, name):
        return 1e6 * dur(run, name) / len(spans(run, name))

    def median_s(run, name):
        return statistics.median(s[2] - s[1] for s in spans(run, name))

    def self_s(layer):
        return sum(selfs[i] for i, s in enumerate(tracer.spans)
                   if s[4] in (h2, h3) and s[0].startswith(layer + "."))

    def certify_total():
        return dur(h2, "certify.certify") + dur(h3, "certify.certify")

    eigen = ("schemes.SchemeAnalytics.eigenmatrix", "schemes.SchemeAnalytics.krein",
             "schemes.SchemeAnalytics.q_polynomial_orderings",
             "schemes.SchemeAnalytics.p_polynomial_orderings")
    rows = [
        ("fields.tower_s", "s", lambda: sum(dur(r, "fields.tower") for r in (h2, h3, h4))),
        ("fields.mul_ns", "ns", lambda: scalar["mul"]),
        ("fields.inv_ns", "ns", lambda: scalar["inv"]),
        ("fields.div_ns", "ns", lambda: scalar["div"]),
        ("fields.mul_arr_melem_s", "Melem/s", lambda: bulk_rates["mul_arr"]),
        ("fields.inv_arr_melem_s", "Melem/s", lambda: bulk_rates["inv_arr"]),
        ("fields.div_arr_melem_s", "Melem/s", lambda: bulk_rates["div_arr"]),
        ("fields.frob_arr_melem_s", "Melem/s", lambda: bulk_rates["frob_arr"]),
        ("conic.table_bundle_s", "s", lambda: first_s(h3, "conic.table_bundle")),
        ("conic.table_pairs_per_s", "pairs/s",
         lambda: q3["pairs"] / first_s(h3, "conic.table_bundle")),
        ("conic.table_bundle_peak_mb", "MB", lambda: one(h3, "conic.table_bundle")[5]["peak_mb"]),
        ("conic.rho_of_pairs_pairs_per_s", "pairs/s",
         lambda: window_pairs / median_s(h4, "conic.rho_of_pairs")),
        ("hemisystem.klein_table_bundle_s", "s",
         lambda: first_s(h3, "hemisystem.klein_table_bundle")),
        ("hemisystem.klein_table_pairs_per_s", "pairs/s",
         lambda: q3["pairs"] / first_s(h3, "hemisystem.klein_table_bundle")),
        ("hemisystem.klein_table_bundle_peak_mb", "MB",
         lambda: one(h3, "hemisystem.klein_table_bundle")[5]["peak_mb"]),
        ("hemisystem.bt_pairs_per_s", "pairs/s",
         lambda: window_pairs / median_s(h4, "hemisystem._bt_arrays")),
        ("hemisystem.build_hemisystem_s", "s", lambda: first_s(h3, "hemisystem.build_hemisystem")),
        ("hemisystem.spread_map_s", "s", lambda: dur(h3, "hemisystem.spread_map")),
        # each of the n lines has q^2 + 1 points, and spread_map visits all of them
        ("hemisystem.spread_points_per_s", "points/s",
         lambda: q3["n"] * (8 * 8 + 1) / dur(h3, "hemisystem.spread_map")),
        ("hemisystem.geometric_class_pairs_per_s", "pairs/s",
         lambda: len(spans(h3, "hemisystem.geometric_class"))
         / dur(h3, "hemisystem.geometric_class")),
        ("hemisystem.verify_hemisystem_s", "s", lambda: dur(h3, "hemisystem.verify_hemisystem")),
        ("hemisystem.geometric_table_s", "s", lambda: dur(h2, "hemisystem.geometric_table")),
        ("hemisystem.line_census_s", "s", lambda: dur(h2, "hemisystem.line_census")),
        ("hemisystem.verify_orbit_s", "s", lambda: dur(h2, "hemisystem.verify_orbit")),
        ("hemisystem.verify_equivariance_s", "s",
         lambda: dur(h3, "hemisystem.verify_equivariance")
         + dur(h4, "hemisystem.verify_equivariance")),
        ("geometry.w_meeting_line_through_us", "us",
         lambda: mean_us(h3, "geometry.w_meeting_line_through")),
        ("geometry.h_lines_through_us", "us", lambda: mean_us(h2, "geometry.h_lines_through")),
        # the first verify_scheme of a certificate is the hx table's
        ("schemes.verify_scheme_s", "s", lambda: first_s(h3, "schemes.verify_scheme")),
        ("schemes.verify_scheme_peak_mb", "MB", lambda: one(h3, "schemes.verify_scheme")[5]["peak_mb"]),
        ("schemes.products", "count", lambda: one(h3, "schemes.verify_scheme")[5]["products"]),
        ("schemes.product_gflop", "GFLOP",
         lambda: one(h3, "schemes.verify_scheme")[5]["flop"] / 1e9),
        ("schemes.eigen_krein_s", "s",
         lambda: sum(selfs[index[id(s)]] for s in spans(h3, *eigen))),
        ("schemes.srg_check_s", "s", lambda: dur(h3, "schemes.srg_check")),
        ("schemes.verify_scheme_fine_s", "s",
         lambda: first_s(h2, "schemes.verify_scheme", lambda s: s[5]["d"] > 3)),
        ("certify.total_s", "s", certify_total),
        ("certify.trace_overhead_s", "s", lambda: certify_total() - certify_s[2] - certify_s[3]),
        ("cli.graph6_s", "s", lambda: graph6_s),
        ("cli.overhead_s", "s", lambda: cli["wall_s"] - inprocess_s),
        ("cli.child_cpu_s", "s", lambda: cli["child_cpu_s"]),
    ] + [(f"{layer}.self_s", "s", functools.partial(self_s, layer)) for layer in LAYERS]
    out = {}
    for name, unit, fn in rows:
        value = ledger.op(f"metric {name}", fn, check=False)
        if value is not None:
            out[name] = metric(value, unit)
    return out
