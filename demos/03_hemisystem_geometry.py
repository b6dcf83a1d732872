"""The polar-space side at q = 4: lines, covering, spreads, Klein images.

The 120 hemisystem lines miss the symplectic substructure and cover every
external isotropic point exactly q/2 = 2 times.  Two disjoint lines are
distinguished by how many members their subtended spreads share (1 or
q+1), and the whole dictionary transfers to single bilinear-form values on
the Klein quadric side.
"""

import numpy as np

from hxpw import geometry, hemisystem
from hxpw.fields import tower

ctx = tower(2)
lines = hemisystem.build_hemisystem(ctx)  # one dict of arrays, one row per line
print(f"built {len(lines['reps'])} pairwise-distinct totally isotropic lines, "
      f"{lines['codes'].shape[1]} points each")

report = hemisystem.verify_hemisystem(ctx, lines)
print(f"covering check: {report['external_points']} external points, "
      f"every one on exactly {report['cover']} lines ->", report["pass"])

S = hemisystem.spread_map(ctx, lines)  # S[i, l] = 1: extended line l is in the spread of line i
print(f"\nsubtended spreads have {int(S[0].sum())} members each")
points = [set(lines["codes"][i].tolist()) for i in (0, 5)]  # point codes
spread = [set(np.flatnonzero(S[i]).tolist()) for i in (0, 5)]  # spread members
print("class of (line0, line5) by geometry:",
      hemisystem.geometric_class(ctx, *points, *spread))
cls, b1, b2 = hemisystem.klein_class_scalar(ctx, *lines["reps"][[0, 5]].tolist())
print(f"class by Klein pairings: {cls}  (bt values {b1}, {b2})")

w = geometry.klein_map(ctx, tuple(map(tuple, lines["rows"][0].tolist())))
print("\nKlein image of line0 matches its explicit 6-vector:",
      geometry.normalize_point(ctx, w) == geometry.normalize_point(ctx, lines["w"][0].tolist()))

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
