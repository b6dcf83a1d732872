"""The conic-side classification of conjugate pairs at q = 4.

Points are the 120 unordered pairs {t, t^(q^2)} with t outside GF(q^2).
A cross-ratio-like invariant rho feeds the trace invariant
rhat = 1/(rho + rho^(-1)), and membership of rhat in three subsets of the
zero-trace elements of GF(q^2) assigns one of three classes.  The pairs
are also the passant lines of a conic.
"""

from collections import Counter

from hxpw import conic
from hxpw.fields import tower

ctx = tower(2)
reps = conic.pair_reps(ctx)
print(f"index set: {len(reps)} conjugate pairs, first few reps {reps[:6]}")

s, t = reps[0], reps[1]
r = conic.rho(ctx, s, t)
print(f"\nrho({s},{t}) = {r}; swapping a representative inverts it:",
      conic.rho(ctx, s, ctx.conj(t)) == ctx.inv(r))
print("rhat =", conic.rho_hat(ctx, s, t), "-> class", conic.classify(ctx, s, t))

bundle = conic.table_bundle(ctx)
row = Counter(bundle["table"][0].tolist())
row.pop(0)
print("\nvalencies of point 0:", dict(sorted(row.items())))
print("closed-form identity held on every pair:", bundle["closed_form_failure"] is None)

fine = bundle["fine_to_coarse"]
print(f"\nrefined scheme: {len(fine)} classes keyed by the value pair "
      "{rho, 1/rho}")
grouping = Counter(fine.values())
print("refined classes per coarse class:", dict(sorted(grouping.items())))

# the planar picture: the line through the two points of each pair misses
# the conic of PG(2, q^2), and every such passant is reached exactly once
a, b = conic.pair_lines(ctx)
print(f"\nline of pair 0: {a[0]} x0 + {b[0]} x1 + x2 = 0")
print("passants block:", conic.passants(ctx))
