"""Exact analytics of the 3-class scheme at q = 4.

Axiom verification counts two-step walks; everything after that is
Fraction-exact: eigenmatrices, multiplicities, Krein parameters, the
cometric ordering, and the strongly regular fusion graph.
"""

from hxpw import conic, schemes
from hxpw.fields import tower

ctx = tower(2)
table = conic.table_bundle(ctx)["table"]
an = schemes.verify_scheme(schemes.RelationTable(table, d=3))
print("intersection numbers are constant; valencies:", an.valencies)

P, Q, mult = an.eigenmatrix()
print("\nfirst eigenmatrix (valency row first):")
for row in P:
    print("  ", [int(x) for x in row])
print("multiplicities:", mult)
print("matches the family formula:",
      set(map(tuple, P)) == set(map(tuple, schemes.expected_p_matrix(4))))

an.krein()  # raises if any parameter were negative
print("\nKrein parameters all nonnegative")
print("cometric orderings:", an.q_polynomial_orderings())
print("metric orderings:", an.p_polynomial_orderings(), "(none: not distance-regular)")
print("primitive:", an.primitivity()["pass"])

res = an.srg_parameters([1, 2])
print("\nfusing classes 1 and 2 gives a strongly regular graph:",
      (res["v"], res["k"], res["lambda"], res["mu"]))
