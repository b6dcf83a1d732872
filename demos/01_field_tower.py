"""Tour of the binary field tower GF(q) < GF(q^2) < GF(q^4) at q = 4.

Everything lives in one ambient field GF(256); the subfields are the
fixed-point sets of Frobenius powers, so subfield membership and traces
need no change of representation.
"""

from hxpw.fields import tower

ctx = tower(2)
print(f"ambient field: GF(2^{ctx.degree}) with modulus {hex(ctx.modulus)}")
print(f"tower orders:  q = {ctx.q}, q^2 = {ctx.q2}, q^4 = {ctx.q4}")

print("\nsubfield sizes:", [len(ctx.subfield(m)) for m in (2, 4, 8)])
print("GF(4) inside GF(256):", ctx.subfield(2))

# the distinguished basis element of GF(q^4) over GF(q^2)
om = ctx.omega
print(f"\nomega = {om}: omega^(q^2) = {ctx.conj(om)} = omega + 1 ->",
      ctx.conj(om) == om ^ 1)
print("omega lies outside GF(q^2):", not ctx.in_subfield(om, 4))

# traces
x = 177
print(f"\nx = {x}")
print("absolute trace over the full field:", ctx.abs_trace(x, 8))
t = x ^ ctx.frob_q(x) ^ ctx.conj(x) ^ ctx.frobenius(x, 3 * ctx.h)
print(f"trace down to GF(q): {t}; fixed by x -> x^q:", ctx.frob_q(t) == t)

# the zero-trace set of GF(q^2) is the image of x -> x + x^2
t0 = sorted(x for x in ctx.subfield(4) if ctx.abs_trace(x, 4) == 0)
image = sorted({x ^ ctx.mul(x, x) for x in ctx.subfield(4)})
print(f"\nzero-trace subset of GF(16): {t0}")
print("equals the image of x + x^2:", t0 == image)
