"""Shared test helpers: random bounded inequality systems, the inner drop
cases as plain systems, and the rows and hulls the oracles compare."""

import numpy as np

from cifc_udc.inner import RATE_VARIABLES, _case_rows
from cifc_udc.polytope import LinearSystem, _nonnegative_rows, region_from_vertices


def random_bounded_system(rng, n_vars=None, with_equality=False):
    """A random system with cap rows so the feasible set stays bounded.

    Bounds are chosen with slack around a random interior point, so the
    system is nonempty by construction most of the time.
    """
    n = int(n_vars) if n_vars is not None else int(rng.integers(3, 7))
    labels = tuple(f"t{i}" for i in range(n))
    m = int(rng.integers(4, 13))
    coefs = rng.integers(-3, 4, size=(m, n)).astype(float)
    anchor = rng.uniform(0.0, 1.0, n)
    slack = rng.uniform(0.05, 2.0, m)
    bounds = coefs @ anchor + slack
    caps = rng.uniform(1.2, 3.0, n)

    ineqs = []
    for row, bound in zip(coefs, bounds):
        ineqs.append(({labels[i]: row[i] for i in range(n)}, float(bound)))
    for i in range(n):
        ineqs.append(({labels[i]: 1.0}, float(caps[i])))

    eqs = []
    if with_equality and n >= 3:
        row = rng.integers(-2, 3, size=n).astype(float)
        if np.all(row == 0):
            row[0] = 1.0
        eqs.append(({labels[i]: row[i] for i in range(n)}, float(row @ anchor)))

    return LinearSystem.from_rows(labels, ineqs, eqs, nonnegative=labels)


def materialized_rows(system):
    """All inequality rows with the nonnegativity set written out explicitly.

    For code that has no notion of the ``nonnegative`` shorthand (the
    brute-force oracle, mainly).  An infeasible system is the single
    contradictory row 0.x <= -1.
    """
    if not system.feasible:
        return np.zeros((1, len(system.variables))), np.array([-1.0])
    columns = [system.index_of(v) for v in sorted(system.nonnegative)]
    return _nonnegative_rows(system.ineq_coefs, system.ineq_bounds, columns)


def case_system(c, pinned=(), dropped=()):
    """Constraint system for one drop case of the rate-split region at the
    constants ``c``.  The ``pinned`` sub-rates are zero, so they are left
    out of the system's variables and of every row."""
    free = tuple(v for v in RATE_VARIABLES if v not in pinned)
    return LinearSystem.from_rows(free, *_case_rows(c, pinned, dropped), nonnegative=free)


def union_hull(regions):
    """The convex hull of every vertex of ``regions``: their union under
    time sharing.  Empty when every region is."""
    return region_from_vertices(np.concatenate([r.vertices for r in regions]))
