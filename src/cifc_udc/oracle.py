"""Brute-force reference implementations used only by the test suite.

Everything in this module recomputes a quantity the library already
provides, but by the most literal route available: explicit loops over
assignments, dictionary marginals, exhaustive vertex enumeration, lattice
scans.  Nothing here shares computational code with the production paths,
so agreement between the two is meaningful evidence.  None of it is
reachable from the command-line tool.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence

import numpy as np

from .errors import OverlappingGroups, TooLarge, UnknownLabel

# assignments of the conditioning group lighter than this are skipped; one
# adds at most its mass times log2 of the target alphabet size to a term
_SKIP = 1e-15


def _assignment_table(
    variables: Sequence[tuple[str, int]], probs
) -> list[tuple[tuple[int, ...], float]]:
    """Flatten a dense tensor into (assignment, probability) pairs."""
    cards = [int(c) for _, c in variables]
    flat = np.asarray(probs, dtype=float).reshape(-1)
    out = []
    for i, idx in enumerate(itertools.product(*[range(c) for c in cards])):
        p = float(flat[i])
        if p != 0.0:
            out.append((idx, p))
    return out


def _positions(
    variables: Sequence[tuple[str, int]], labels: Sequence[str]
) -> list[int]:
    order = [l for l, _ in variables]
    pos = []
    for label in labels:
        if label not in order:
            raise UnknownLabel(f"oracle: no variable {label!r}")
        pos.append(order.index(label))
    return pos


def oracle_conditional_mi(
    variables: Sequence[tuple[str, int]],
    probs,
    group_a: Sequence[str],
    group_b: Sequence[str],
    given: Sequence[str] = (),
) -> float:
    """I(A;B|C) in bits, straight from the definition.

    Accumulates dictionary marginals of (A,C), (B,C), (C) and sums
    p(a,b,c) * log2( p(a,b,c) p(c) / (p(a,c) p(b,c)) ) term by term.
    """
    all_labels = list(group_a) + list(group_b) + list(given)
    if len(set(all_labels)) != len(all_labels):
        raise OverlappingGroups(f"oracle: groups overlap: {all_labels}")
    pos_a = _positions(variables, group_a)
    pos_b = _positions(variables, group_b)
    pos_c = _positions(variables, given)

    cells = _assignment_table(variables, probs)
    p_abc: dict = {}
    p_ac: dict = {}
    p_bc: dict = {}
    p_c: dict = {}
    for idx, p in cells:
        a = tuple(idx[i] for i in pos_a)
        b = tuple(idx[i] for i in pos_b)
        c = tuple(idx[i] for i in pos_c)
        p_abc[(a, b, c)] = p_abc.get((a, b, c), 0.0) + p
        p_ac[(a, c)] = p_ac.get((a, c), 0.0) + p
        p_bc[(b, c)] = p_bc.get((b, c), 0.0) + p
        p_c[c] = p_c.get(c, 0.0) + p

    total = 0.0
    for (a, b, c), p in p_abc.items():
        if p_c[c] < _SKIP:
            continue
        total += p * math.log2(p * p_c[c] / (p_ac[(a, c)] * p_bc[(b, c)]))
    return total


def oracle_conditional_entropy(
    variables: Sequence[tuple[str, int]],
    probs,
    targets: Sequence[str],
    given: Sequence[str] = (),
) -> float:
    """H(T|G) in bits, straight from the definition."""
    all_labels = list(targets) + list(given)
    if len(set(all_labels)) != len(all_labels):
        raise OverlappingGroups(f"oracle: groups overlap: {all_labels}")
    pos_t = _positions(variables, targets)
    pos_g = _positions(variables, given)

    cells = _assignment_table(variables, probs)
    p_tg: dict = {}
    p_g: dict = {}
    for idx, p in cells:
        t = tuple(idx[i] for i in pos_t)
        g = tuple(idx[i] for i in pos_g)
        p_tg[(t, g)] = p_tg.get((t, g), 0.0) + p
        p_g[g] = p_g.get(g, 0.0) + p

    total = 0.0
    for (t, g), p in p_tg.items():
        if p_g[g] < _SKIP:
            continue
        total -= p * math.log2(p / p_g[g])
    return total


# ------------------------------------------------------- channel structure


def oracle_is_degraded(transition, tol: float = 1e-9) -> bool:
    """Literal enumeration of the Markov condition behind degradedness.

    For every pair of input assignments sharing the cooperative symbol
    and every realizable second-output value, the conditional law of the
    first output must agree.  Plain nested loops, no vectorization.
    """
    t = np.asarray(transition, dtype=float)
    n1, n2, n3, m1, m2 = t.shape
    for x3 in range(n3):
        for y2 in range(m2):
            rows = []
            for x1 in range(n1):
                for x2 in range(n2):
                    mass = 0.0
                    for y1 in range(m1):
                        mass += t[x1, x2, x3, y1, y2]
                    if mass <= tol:
                        continue
                    rows.append([t[x1, x2, x3, y1, y2] / mass for y1 in range(m1)])
            for row in rows[1:]:
                for a, b in zip(row, rows[0]):
                    if abs(a - b) > tol:
                        return False
    return True


# ----------------------------------------------------- polytope projection


def oracle_projected_vertices(
    ineq_coefs,
    ineq_bounds,
    eq_coefs,
    eq_values,
    coord_a: int,
    coord_b: int,
    tol: float = 1e-7,
    max_candidates: int = 2_000_000,
) -> list[tuple[float, float]]:
    """Vertices of {x : Ax <= b, Ex = v} projected to two coordinates.

    Enumerates every choice of n active constraints (all equalities plus
    enough inequality rows), solves the square systems in a batch, keeps
    the solutions feasible for the whole system, and projects.  The
    convex hull of the returned points is the projection of the polytope
    whenever the polytope is bounded.
    """
    A = np.asarray(ineq_coefs, dtype=float)
    b = np.asarray(ineq_bounds, dtype=float)
    E = np.asarray(eq_coefs, dtype=float)
    v = np.asarray(eq_values, dtype=float)
    n = A.shape[1] if A.size else E.shape[1]
    k = E.shape[0] if E.size else 0
    need = n - k
    if need < 0:
        raise TooLarge("more equalities than dimensions")
    m = A.shape[0]
    count = math.comb(m, need)
    if count > max_candidates:
        raise TooLarge(f"{count} candidate bases exceed the oracle guard")
    if count == 0:
        return []

    combos = np.array(list(itertools.combinations(range(m), need)), dtype=int)
    if need:
        mats = A[combos]            # (S, need, n)
        rhs = b[combos]             # (S, need)
    else:
        mats = np.zeros((1, 0, n))
        rhs = np.zeros((1, 0))
    if k:
        eq_block = np.broadcast_to(E, (mats.shape[0], k, n))
        eq_rhs = np.broadcast_to(v, (mats.shape[0], k))
        mats = np.concatenate([mats, eq_block], axis=1)
        rhs = np.concatenate([rhs, eq_rhs], axis=1)

    dets = np.linalg.det(mats)
    ok = np.abs(dets) > 1e-9
    if not ok.any():
        return []
    sols = np.linalg.solve(mats[ok], rhs[ok][..., None])[..., 0]  # (S', n)
    feas = np.ones(sols.shape[0], dtype=bool)
    if m:
        feas &= np.all(sols @ A.T <= b[None, :] + tol, axis=1)
    if k:
        feas &= np.all(np.abs(sols @ E.T - v[None, :]) <= tol, axis=1)
    pts = sols[feas][:, [coord_a, coord_b]]
    return [(float(x), float(y)) for x, y in pts]

def oracle_assemble_joint(chain):
    """Multiply a chain of conditional tables by looping over assignments.

    ``chain`` is a sequence of ``(targets, given, table)`` triples where
    targets/given are (label, cardinality) pairs and the table carries the
    conditioning axes first.  Returns ``(variables, probs)`` with variables
    ordered by first appearance as a target.
    """
    variables: list[tuple[str, int]] = []
    for targets, given, _ in chain:
        for label, card in given:
            known = dict(variables)
            if label not in known:
                raise UnknownLabel(f"oracle: {label!r} conditioned on before defined")
            if known[label] != card:
                raise TooLarge(f"oracle: cardinality clash on {label!r}")
        variables.extend(targets)
    order = [l for l, _ in variables]
    cards = [c for _, c in variables]
    probs = np.zeros(cards)
    for full in itertools.product(*[range(c) for c in cards]):
        value = dict(zip(order, full))
        p = 1.0
        for targets, given, table in chain:
            idx = tuple(value[l] for l, _ in given) + tuple(
                value[l] for l, _ in targets
            )
            p *= float(np.asarray(table)[idx])
            if p == 0.0:
                break
        probs[full] = p
    return tuple(variables), probs


# ------------------------------------------------------------- grid regions


def _compositions(total: int, parts: int):
    """All nonnegative integer tuples of length ``parts`` summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _own_hull(points):
    """Andrew's monotone chain, local to the oracle module."""
    pts = sorted({(round(x, 12), round(y, 12)) for x, y in points})
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 1e-12:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 1e-12:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _cap_corner_points(r1: float, r2: float, s: float):
    """Extreme points of {0<=R1<=r1, 0<=R2<=r2, R1+R2<=s}."""
    if min(r1, r2, s) < -1e-12:
        return [(0.0, 0.0)]
    r1 = max(0.0, min(r1, s))
    r2 = max(0.0, min(r2, s))
    return [
        (0.0, 0.0),
        (r1, 0.0),
        (0.0, r2),
        (r1, max(0.0, min(r2, s - r1))),
        (max(0.0, min(r1, s - r2)), r2),
    ]


GRID_FORMULAS = ("converse", "degraded-z", "semidet-hi", "reduced")


def grid_region_oracle(
    channel,
    formula: str,
    resolution: int,
    card_v12: int = 2,
    card_v2: int = 2,
):
    """Exhaustive lattice approximation of a union-over-distributions region.

    Scans every pmf whose entries are multiples of 1/resolution, evaluates
    the named rate formula with the definition-sum information measures,
    and hulls the resulting corner points.  A lower reference: the true
    union can only be larger.
    """
    from .errors import GridTooLarge, ParseError
    from .polytope import region_from_vertices

    cx1 = channel.card("x1")
    cx2 = channel.card("x2")
    cx3 = channel.card("x3")
    cy1 = channel.card("y1")
    cy2 = channel.card("y2")
    if formula == "degraded-z":
        in_vars = [("x1", cx1), ("x2", cx2), ("x3", cx3)]
    elif formula in ("converse", "semidet-hi"):
        in_vars = [("x1", cx1), ("v12", card_v12), ("x2", cx2), ("x3", cx3)]
    elif formula == "reduced":
        in_vars = [
            ("x1", cx1), ("v12", card_v12), ("v2", card_v2),
            ("x2", cx2), ("x3", cx3),
        ]
    else:
        raise ParseError(f"unknown grid formula {formula!r}")
    if resolution < 1:
        raise ParseError("resolution must be a positive integer")

    cells = 1
    for _, c in in_vars:
        cells *= c
    count = math.comb(resolution + cells - 1, cells - 1)
    if count > 10**7:
        raise GridTooLarge(
            f"{count} lattice points over {cells} cells exceeds the guard"
        )

    variables = tuple(in_vars) + (("y1", cy1), ("y2", cy2))
    in_cards = [c for _, c in in_vars]
    x_positions = [
        [l for l, _ in in_vars].index(n) for n in ("x1", "x2", "x3")
    ]
    t = np.asarray(channel.transition, dtype=float)

    points = [(0.0, 0.0)]
    for comp in _compositions(resolution, cells):
        probs = np.zeros([c for _, c in variables])
        flat_idx = 0
        for in_idx in itertools.product(*[range(c) for c in in_cards]):
            w = comp[flat_idx] / resolution
            flat_idx += 1
            if w == 0.0:
                continue
            x_idx = tuple(in_idx[p] for p in x_positions)
            probs[in_idx] = w * t[x_idx]
        v, p = variables, probs
        if formula == "degraded-z":
            r1 = oracle_conditional_mi(v, p, ["y1"], ["x1", "x3"])
            r2 = oracle_conditional_mi(v, p, ["y2"], ["x2"], ["x1", "x3"])
            s = oracle_conditional_mi(v, p, ["y2"], ["x1", "x2"], ["x3"])
        elif formula == "converse":
            r1 = min(
                oracle_conditional_mi(v, p, ["y1"], ["x1", "x2", "x3"]),
                oracle_conditional_mi(v, p, ["y1"], ["x1", "v12", "x3"]),
            )
            r2 = oracle_conditional_mi(v, p, ["y2"], ["x2"], ["x1", "x3"])
            s = min(
                oracle_conditional_mi(v, p, ["y1", "y2"], ["x1", "x2"], ["x3"]),
                oracle_conditional_mi(v, p, ["x2"], ["y2"], ["x1", "v12", "x3"])
                + oracle_conditional_mi(v, p, ["x1", "v12", "x3"], ["y1"]),
            )
        elif formula == "semidet-hi":
            r1 = oracle_conditional_mi(v, p, ["y1"], ["x1", "v12", "x3"])
            r2 = oracle_conditional_entropy(v, p, ["y2"], ["x1", "x3"])
            s = r1 + oracle_conditional_entropy(
                v, p, ["y2"], ["x1", "v12", "x3"]
            )
        else:
            a = oracle_conditional_mi(v, p, ["y1"], ["x1", "v12", "x3"])
            b = oracle_conditional_mi(v, p, ["y2"], ["v2"], ["x1", "x3"])
            delta = oracle_conditional_mi(v, p, ["y1"], ["v12"], ["x1", "x3"])
            n = oracle_conditional_mi(v, p, ["v12"], ["v2"], ["x1", "x3"])
            k2 = oracle_conditional_mi(v, p, ["y2"], ["x1", "v2"], ["x3"])
            r1 = a
            r2 = min(b, b + delta - n)
            s = min(delta + k2 - n, a + b - n)
        points.extend(_cap_corner_points(r1, r2, s))

    return region_from_vertices(_own_hull(points))
