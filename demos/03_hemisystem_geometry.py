"""The polar-space side at q = 4: lines, covering, spreads, Klein images.

The 120 hemisystem lines miss the symplectic substructure and cover every
external isotropic point exactly q/2 = 2 times.  Two disjoint lines are
distinguished by how many members their subtended spreads share (1 or
q+1), and the whole dictionary transfers to single bilinear-form values on
the Klein quadric side.
"""

from hxpw import geometry, hemisystem
from hxpw.fields import tower

ctx = tower(2)
lines = hemisystem.build_hemisystem(ctx)
print(f"built {len(lines)} pairwise-distinct totally isotropic lines")

report = hemisystem.verify_hemisystem(ctx, lines)
print(f"covering check: {report['external_points']} external points, "
      f"every one on exactly {report['cover']} lines ->", report["pass"])

spreads = hemisystem.spread_map(ctx, lines)
a, b = lines[0], lines[5]
print(f"\nsubtended spreads have {len(spreads[a.rep])} members each")
print("class of (line0, line5) by geometry:",
      hemisystem.geometric_class(ctx, a, b, spreads))
cls, b1, b2 = hemisystem.klein_class_scalar(ctx, a.rep, b.rep)
print(f"class by Klein pairings: {cls}  (bt values {b1}, {b2})")

w = geometry.klein_map(ctx, a.line)
print("\nKlein image of line0 matches its explicit 6-vector:",
      geometry.normalize_point(ctx, w) == geometry.normalize_point(ctx, a.w))

group = hemisystem.verify_automorphisms(ctx)
orbit = group["orbit"]
print(f"\ngroup orbit of PGL(2, q^2) on the lines: size {orbit['orbit_size']} "
      f"(= whole hemisystem, twin untouched) ->", orbit["pass"])
print("three generators commute with theta and keep both forms ->",
      group["automorphisms"]["pass"])

census = hemisystem.line_census(ctx, lines, hemisystem.tau_lines(ctx, lines))
print(f"line census: {census['total_lines']} isotropic lines = "
      f"{census['w_extended']} extended + {census['orbit']} + {census['tau_orbit']} ->",
      census["pass"])
