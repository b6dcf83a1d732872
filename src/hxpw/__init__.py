"""Exact construction and cross-certification of two classical 3-class
association scheme families on conjugate pairs over GF(q^4), q = 2^h.

The conic-side family classifies pairs by a trace invariant of a
cross-ratio; the polar-space family classifies the corresponding
hemisystem lines of the hermitian generalized quadrangle by incidence and
subtended-spread intersections.  `certify` checks, in exact arithmetic,
that the two constructions produce the same relation table on the shared
index set, along with every structural property either side is supposed
to have.
"""

from .certify import canonical_hash, certify
from .conic import pair_reps, rho, rho_hat, classify, trace_sets
from .fields import FieldTower, tower
from .hemisystem import build_hemisystem, verify_automorphisms, verify_hemisystem
from .schemes import (RelationTable, SchemeAxiomError, expected_p_matrix, fuse,
                      srg_check, verify_scheme)

__version__ = "0.1.0"

__all__ = [
    "FieldTower", "RelationTable", "SchemeAxiomError", "build_hemisystem",
    "canonical_hash", "certify", "classify",
    "expected_p_matrix", "fuse", "pair_reps", "rho", "rho_hat", "srg_check",
    "tower", "trace_sets", "verify_automorphisms", "verify_hemisystem",
    "verify_scheme",
]
