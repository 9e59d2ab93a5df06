"""Linear inequality systems over named rate variables and 2D rate polygons.

A :class:`LinearSystem` holds rows ``a . x <= b`` and ``a . x = v`` over an
ordered tuple of variable labels, plus a set of variables pinned to be
nonnegative.  ``_eliminate``, the one front end behind
:func:`project_to_plane` and :func:`project_parametric`, removes every
variable but the two plotted rates one column at a time, by Fourier-Motzkin
elimination.  One clip of a working box by the survivor's rows
(:func:`polygon_points`) gives the polygon they cut out of the nonnegative
quadrant.  :func:`region_from_vertices` is the one route from points to a
:class:`Region2D`: the hull's counter-clockwise vertices and one halfplane
per hull edge.  :func:`polygon_extract` is that hull of one clip.

All arithmetic is floating point.  Rows are normalized to max-abs
coefficient one, coefficients below ``SNAP`` are snapped to zero, and
duplicate or pairwise-dominated rows are dropped after every elimination
step, where the bounds are numbers, to keep elimination's growth in check.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    EmptyRegion,
    LeftoverVariables,
    NumericsError,
    ShapeMismatch,
    UnknownVariable,
    ZeroDirection,
)
from .pmf import _number

SNAP = 1e-12        # coefficients smaller than this are treated as zero
ROW_TOL = 1e-9      # row-comparison and trivial-row tolerance
VERTEX_TOL = 1e-7   # vertices must satisfy halfplanes this tightly
BOX_LIMIT = 1e4     # working box for clipping; far above any desk-scale rate
UNBOUNDED_AT = 1e3  # a vertex out here means the system had no cap rows


def _per_row(values: np.ndarray, block: np.ndarray) -> np.ndarray:
    """``values``, one per row, shaped to broadcast against ``block``."""
    return values.reshape(values.shape + (1,) * (block.ndim - 1))


def _contradicts(trivial: np.ndarray, trivial_eq: np.ndarray) -> bool:
    """Whether trivial rows 0 <= b and 0 = v rule out every point."""
    return bool((trivial < -ROW_TOL).any() or (np.abs(trivial_eq) > ROW_TOL).any())


def _key_order(coefs: np.ndarray, *ties: np.ndarray):
    """The rows' stable order by coefficients rounded to ``ROW_TOL``, then by
    ``ties``; and whether each row in that order starts a new rounded row."""
    keys = np.round(coefs / ROW_TOL).astype(np.int64)
    order = np.lexsort(ties + tuple(keys.T[::-1]))
    first = np.ones(order.size, dtype=bool)
    first[1:] = np.any(keys[order[1:]] != keys[order[:-1]], axis=1)
    return order, first


def _tidy(coefs: np.ndarray, bounds: np.ndarray, equalities: bool = False):
    """The row normal form: snap, scale to max-abs 1, drop trivial rows.

    ``bounds`` is a vector, or a block with one row of bound multipliers
    per row (see :func:`project_parametric`), which has no order and is not
    pruned.  Inequalities with a vector of bounds keep only the smallest
    bound of each group of rows equal to ``ROW_TOL`` (:func:`_key_order`).
    Returns (coefs, bounds, bounds of the trivial rows, indices of the
    surviving input rows, in input order); :func:`_contradicts` reads the
    trivial bounds.
    """
    coefs = np.where(np.abs(coefs) < SNAP, 0.0, coefs)
    scale = np.max(np.abs(coefs), axis=1, initial=0.0)
    trivial = bounds[scale == 0.0]
    keep = np.flatnonzero(scale > 0.0)
    coefs, bounds = coefs[keep] / scale[keep, None], bounds[keep] / _per_row(scale[keep], bounds)
    if not equalities and bounds.ndim == 1 and keep.size > 1:
        order, first = _key_order(coefs, bounds)  # first of a group is tightest
        idx = np.sort(order[first])
        keep, coefs, bounds = keep[idx], coefs[idx], bounds[idx]
    return coefs, bounds, trivial, keep


def _substitute(ic, ib, ec, ev, k: int):
    """Substitute variable ``k`` out of every row through one equality.

    The equality with the largest coefficient on ``k`` (the first of
    equals) gives var = val - rest.x; it is spent, and column ``k`` of
    every remaining row is zeroed.
    """
    hits = np.abs(ec[:, k]) > SNAP
    pick = int(np.argmax(np.where(hits, np.abs(ec[:, k]), 0.0)))
    c = ec[pick, k]
    rest = ec[pick] / c
    val = ev[pick] / c
    rest[k] = 0.0
    others = np.arange(ec.shape[0]) != pick
    icol, ecol = ic[:, k], ec[others, k]
    ic, ib = ic - np.outer(icol, rest), ib - _per_row(icol, ib) * val
    ec, ev = ec[others] - np.outer(ecol, rest), ev[others] - _per_row(ecol, ev) * val
    ic[:, k] = 0.0
    ec[:, k] = 0.0
    return ic, ib, ec, ev


def _combine(coefs, bounds, k: int, ancestors, limit: int):
    """One Fourier-Motzkin step on variable ``k``.

    Rows without ``k`` pass through; every upper bound is then paired
    with every lower bound (upper rows outer, lower rows inner) so that
    ``k`` cancels, and column ``k`` is zeroed.  ``bounds`` may be a
    multiplier block.  ``ancestors`` is a boolean matrix (rows x
    original rows); a pair whose merged ancestors number more than
    ``limit`` is provably redundant and is left out (Imbert's acceleration
    theorem).  Returns (coefs, bounds, ancestors).
    """
    col = coefs[:, k]
    pos, neg = col > SNAP, col < -SNAP
    zero = ~pos & ~neg
    up, low = np.flatnonzero(pos), np.flatnonzero(neg)
    i, j = np.repeat(up, low.size), np.tile(low, up.size)
    union = ancestors[i] | ancestors[j]
    fit = union.sum(axis=1) <= limit
    i, j = i[fit], j[fit]
    ancestors = np.concatenate([ancestors[zero], union[fit]])

    def pairs(block):
        return _per_row(-col[j], block) * block[i] + _per_row(col[i], block) * block[j]

    coefs, bounds = (
        np.concatenate([coefs[zero], pairs(coefs)]),
        np.concatenate([bounds[zero], pairs(bounds)]),
    )
    coefs[:, k] = 0.0
    return coefs, bounds, ancestors


def _nonnegative_rows(coefs, bounds, columns):
    """Append a -x <= 0 row for each of the listed ``columns``."""
    extra = np.zeros((len(columns), coefs.shape[1]))
    extra[np.arange(len(columns)), columns] = -1.0
    zeros = np.zeros((len(columns),) + bounds.shape[1:])
    return np.vstack([coefs, extra]), np.concatenate([bounds, zeros])


def _row_arrays(variables: tuple, pairs: Iterable[tuple], width: int | None = None):
    """(coefficient matrix, bounds) of (coefficient dict, bound) pairs.  Given
    a ``width``, each bound is a row of that many multipliers, or 0; another
    bare number cannot say which entry it is, and raises ``ShapeMismatch``."""
    index = {v: i for i, v in enumerate(variables)}
    pairs = list(pairs)
    coefs = np.zeros((len(pairs), len(variables)))
    vals = np.zeros((len(pairs),) if width is None else (len(pairs), width))
    for i, (mapping, bound) in enumerate(pairs):
        for label, coef in mapping.items():
            if label not in index:
                raise UnknownVariable(f"row mentions unknown {label!r}")
            coefs[i, index[label]] = coef
        if width is not None and np.ndim(bound) == 0 and bound:
            raise ShapeMismatch(f"bound {bound!r} is not a row of {width} multipliers")
        vals[i] = bound
    return coefs, vals


@dataclasses.dataclass(frozen=True, eq=False)
class LinearSystem:
    """Rows a.x <= b and a.x = v over named variables.

    ``nonnegative`` lists variables additionally constrained >= 0; the
    constraint is materialized as a row only when the variable is
    eliminated or plotted.  ``feasible`` is cleared when a contradictory
    constant row (0 <= b, b < 0) is detected; an infeasible system keeps
    its variables but carries no rows.  NaN or infinite coefficients or
    bounds raise ``ShapeMismatch``.
    """

    variables: tuple[str, ...]
    ineq_coefs: np.ndarray
    ineq_bounds: np.ndarray
    eq_coefs: np.ndarray
    eq_values: np.ndarray
    nonnegative: frozenset
    feasible: bool = True

    def __post_init__(self):
        variables = tuple(str(v) for v in self.variables)
        if len(set(variables)) != len(variables):
            raise ShapeMismatch(f"duplicate variables in {variables}")
        n = len(variables)
        ib = np.asarray(self.ineq_bounds, dtype=np.float64).reshape(-1)
        ev = np.asarray(self.eq_values, dtype=np.float64).reshape(-1)
        # over no variables (-1, 0) names no shape: there are as many rows as bounds
        ic = np.asarray(self.ineq_coefs, dtype=np.float64).reshape(-1 if n else ib.size, n)
        ec = np.asarray(self.eq_coefs, dtype=np.float64).reshape(-1 if n else ev.size, n)
        if ic.shape[0] != ib.shape[0] or ec.shape[0] != ev.shape[0]:
            raise ShapeMismatch("coefficient rows and bounds disagree in count")
        if not all(np.isfinite(a).all() for a in (ic, ib, ec, ev)):
            raise ShapeMismatch("a coefficient or bound is NaN or an infinity")
        bad = frozenset(self.nonnegative) - set(variables)
        if bad:
            raise UnknownVariable(f"nonnegative set mentions unknown {sorted(bad)}")

        ic, ib, trivial, _ = _tidy(ic, ib)
        ec, ev, trivial_eq, _ = _tidy(ec, ev, equalities=True)
        feasible = bool(self.feasible) and not _contradicts(trivial, trivial_eq)
        if not feasible:
            ic, ib = ic[:0], ib[:0]
            ec, ev = ec[:0], ev[:0]
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "ineq_coefs", ic)
        object.__setattr__(self, "ineq_bounds", ib)
        object.__setattr__(self, "eq_coefs", ec)
        object.__setattr__(self, "eq_values", ev)
        object.__setattr__(self, "nonnegative", frozenset(self.nonnegative))
        object.__setattr__(self, "feasible", feasible)

    @classmethod
    def from_rows(
        cls,
        variables: Sequence[str],
        inequalities: Iterable[tuple[Mapping[str, float], float]] = (),
        equalities: Iterable[tuple[Mapping[str, float], float]] = (),
        nonnegative: Iterable[str] = (),
    ) -> "LinearSystem":
        """Build from (coefficient dict, bound) pairs keyed by label."""
        variables = tuple(variables)
        ic, ib = _row_arrays(variables, inequalities)
        ec, ev = _row_arrays(variables, equalities)
        return cls(variables, ic, ib, ec, ev, frozenset(nonnegative))

    def index_of(self, var: str) -> int:
        try:
            return self.variables.index(var)
        except ValueError:
            raise UnknownVariable(f"no variable {var!r} in {self.variables}") from None


def _eliminate(variables, ic, ib, ec, ev, nonnegative, r1, r2, order=None):
    """Remove every column but those of ``r1`` and ``r2`` from the rows.

    Equalities go first: each round substitutes out the first doomed
    column an equality touches.  Fourier-Motzkin then runs with ancestor
    tracking: a combined row built from more original rows than
    eliminated variables plus one is provably redundant and is dropped
    before it can feed the quadratic blowup.  ``order`` pins the sequence
    of the Fourier-Motzkin steps; it must name every doomed variable.  By
    default the column that makes the fewest new rows goes next.  A
    doomed variable in ``nonnegative`` contributes its -x <= 0 row before
    it goes.  ``ib`` and ``ev`` may be multiplier blocks.  Returns the
    rows over (``r1``, ``r2``) and the bounds of the trivial inequality
    and equality rows met on the way, which decide feasibility.
    """
    if not {r1, r2} <= set(variables):
        raise UnknownVariable(f"{r1!r} or {r2!r} is not one of {variables}")
    keep = [variables.index(r1), variables.index(r2)]
    doomed = [k for k in range(len(variables)) if k not in keep]
    if order is not None:
        expect = sorted(variables[k] for k in doomed)
        if set(order) != set(expect):
            raise UnknownVariable(f"order {order} does not cover exactly {expect}")
        order = [variables.index(v) for v in order]
    nonnegative = {k for k in doomed if variables[k] in nonnegative}
    trivial, trivial_eq = [ib[:0]], [ev[:0]]
    while hits := [k for k in doomed if np.any(np.abs(ec[:, k]) > SNAP)]:
        k = hits[0]
        doomed.remove(k)
        if k in nonnegative:
            ic, ib = _nonnegative_rows(ic, ib, [k])
        ic, ib, ec, ev = _substitute(ic, ib, ec, ev, k)
        ic, ib, t, _ = _tidy(ic, ib)
        ec, ev, t_eq, _ = _tidy(ec, ev, equalities=True)
        trivial.append(t)
        trivial_eq.append(t_eq)

    ic, ib = _nonnegative_rows(ic, ib, [k for k in doomed if k in nonnegative])
    ancestors = np.eye(ic.shape[0], dtype=bool)
    steps = 0
    while doomed:
        if order is not None:
            k = next(k for k in order if k in doomed)
        else:
            pos = np.sum(ic[:, doomed] > SNAP, axis=0)
            neg = np.sum(ic[:, doomed] < -SNAP, axis=0)
            k = doomed[int(np.argmin(pos * neg - (pos + neg)))]
        doomed.remove(k)
        steps += 1
        ic, ib, ancestors = _combine(ic, ib, k, ancestors, steps + 1)
        ic, ib, t, rows = _tidy(ic, ib)
        ancestors = ancestors[rows]
        trivial.append(t)
    trivial, trivial_eq = np.concatenate(trivial), np.concatenate(trivial_eq)
    return ic[:, keep], ib, ec[:, keep], ev, trivial, trivial_eq


def project_to_plane(
    system: LinearSystem, r1: str, r2: str, order: Sequence[str] | None = None
) -> LinearSystem:
    """Eliminate every variable except ``r1`` and ``r2`` (see ``_eliminate``).

    ``order`` pins the elimination sequence (mostly for order-independence
    tests).  The result is over (``r1``, ``r2``); an infeasible system
    carries no rows and projects to an infeasible one.
    """
    ic, ib, ec, ev, trivial, trivial_eq = _eliminate(
        system.variables, system.ineq_coefs, system.ineq_bounds,
        system.eq_coefs, system.eq_values, system.nonnegative, r1, r2, order,
    )
    return LinearSystem(
        (r1, r2), ic, ib, ec, ev, system.nonnegative & {r1, r2},
        system.feasible and not _contradicts(trivial, trivial_eq),
    )


@dataclasses.dataclass(frozen=True, eq=False)
class ParametricPlane:
    """Rows over two variables whose bounds are affine in parameters.

    At parameters theta, direction i reads ``directions[i] . x <= b``,
    where b is the least of its forms ``forms[j] . (theta, 1)``, j from
    ``starts[i]`` up to the next direction's start.  ``trivial`` holds the
    forms of rows left with no coefficients, each read ``0 <= form``: the
    system is empty at theta where one of them fails.  Built by
    :func:`project_parametric`; :meth:`at` evaluates it.
    """

    directions: np.ndarray
    forms: np.ndarray
    starts: np.ndarray
    trivial: np.ndarray

    def at(self, theta: Sequence[float]) -> tuple | None:
        """The rows (directions, bounds) at parameters ``theta``, or None
        where a trivial row fails there and the system is empty."""
        point = np.append(np.asarray(theta, dtype=np.float64), 1.0)
        if (self.trivial @ point < -ROW_TOL).any():
            return None
        return self.directions, np.minimum.reduceat(self.forms @ point, self.starts)


def project_parametric(
    variables: Sequence[str],
    inequalities: Iterable[tuple],
    equalities: Iterable[tuple],
    size: int,
    r1: str,
    r2: str,
    nonnegative: Iterable[str] = (),
) -> ParametricPlane:
    """Project a family of systems onto (``r1``, ``r2``) once for all
    parameters.

    The rows are (coefficient dict, bound) pairs, as
    :meth:`LinearSystem.from_rows` takes them, whose bounds are affine in
    a parameter vector theta of length ``size``: each bound is a row of
    ``size + 1`` multipliers over (theta, 1), or 0.  The coefficients do
    not depend on theta.  :func:`project_to_plane`'s elimination runs on
    the multipliers, an equality then is two opposing rows, and rows are
    grouped by direction (:func:`_key_order`), so ``.at(theta)`` cuts out
    the polygon of ``project_to_plane`` on the system at theta.
    """
    variables = tuple(variables)
    ic, im = _row_arrays(variables, inequalities, size + 1)
    ec, em = _row_arrays(variables, equalities, size + 1)
    ic, im, trivial, _ = _tidy(ic, im)
    ec, em, trivial_eq, _ = _tidy(ec, em, equalities=True)
    ic, im, ec, em, more, more_eq = _eliminate(
        variables, ic, im, ec, em, frozenset(nonnegative), r1, r2
    )
    ic, im = np.vstack([ic, ec, -ec]), np.vstack([im, em, -em])
    order, first = _key_order(ic)
    trivial = np.concatenate([trivial, more, trivial_eq, more_eq, -trivial_eq, -more_eq])
    arrays = ic[order[first]], im[order], np.flatnonzero(first), trivial
    for array in arrays:  # a cached plane is shared by every caller
        array.setflags(write=False)
    return ParametricPlane(*arrays)


# ---------------------------------------------------------------- 2D geometry


def _clip(points: list, hp: tuple) -> list:
    """Sutherland-Hodgman: keep the part of a convex polygon with a.x <= c."""
    a, b, c = hp
    dist = [a * x + b * y - c for x, y in points]
    out = []
    for i, cur in enumerate(points):
        prev, d_prev, d_cur = points[i - 1], dist[i - 1], dist[i]
        if (d_cur <= SNAP) != (d_prev <= SNAP):
            t = d_prev / (d_prev - d_cur)
            out.append(
                (prev[0] + t * (cur[0] - prev[0]), prev[1] + t * (cur[1] - prev[1]))
            )
        if d_cur <= SNAP:
            out.append(cur)
    return out


def _dedupe_points(points: Sequence, tol: float = 1e-9) -> list:
    """The points in order, less each one within ``tol`` in both
    coordinates of a point kept before it.

    Kept points are filed by cell of side 2 * tol, so a match lies in the
    3 x 3 cells around a point's own even where the division rounds.
    """
    out, cells = [], {}
    for p in points:
        x, y = float(p[0]), float(p[1])
        cx, cy = math.floor(x / (2 * tol)), math.floor(y / (2 * tol))
        near = (
            q
            for i in (cx - 1, cx, cx + 1)
            for j in (cy - 1, cy, cy + 1)
            for q in cells.get((i, j), ())
        )
        if all(abs(x - q[0]) > tol or abs(y - q[1]) > tol for q in near):
            out.append((x, y))
            cells.setdefault((cx, cy), []).append((x, y))
    return out


HULL_QUANT = 1e-10  # hull coordinates are snapped to this grid


def convex_hull(points: Sequence) -> list:
    """Monotone-chain hull, counter-clockwise; handles 1- and 2-point hulls.

    Coordinates are snapped to a fine grid and the orientation tests run
    in exact integer arithmetic, so clusters of points that differ only
    by floating-point jitter cannot confuse the chain.
    """
    snapped = sorted(
        {(round(float(x) / HULL_QUANT), round(float(y) / HULL_QUANT)) for x, y in points}
    )
    if len(snapped) <= 2:
        return [(x * HULL_QUANT, y * HULL_QUANT) for x, y in snapped]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in snapped:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(snapped):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    return [(x * HULL_QUANT, y * HULL_QUANT) for x, y in hull]


NONNEG_HALFPLANES = ((-1.0, 0.0, 0.0), (0.0, -1.0, 0.0))


def _normalize_halfplane(hp: tuple) -> tuple | None:
    a, b, c = (float(v) for v in hp)
    a = 0.0 if abs(a) < SNAP else a
    b = 0.0 if abs(b) < SNAP else b
    s = max(abs(a), abs(b))
    if s == 0.0:
        return None  # trivial or contradictory, caller decides
    return (a / s, b / s, c / s)


@dataclasses.dataclass(frozen=True, eq=False)
class Region2D:
    """A bounded convex rate region in the nonnegative quadrant.

    ``halfplanes`` are (alpha, beta, gamma) rows meaning
    alpha*R1 + beta*R2 <= gamma, in bits.  The constructor is the one
    place that normalizes them to max-abs coefficient one, drops rows
    without coefficients, and appends R1 >= 0 and R2 >= 0 where no row
    within ``ROW_TOL`` says so.  ``vertices`` walk the polygon
    counter-clockwise.  ``empty`` regions carry no vertices.
    """

    halfplanes: tuple
    vertices: np.ndarray
    empty: bool = False

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 2)
        # before normalization, which drops a (0, NaN, c) row as trivial
        raw = np.asarray(self.halfplanes, dtype=np.float64)
        if not (np.isfinite(raw).all() and np.isfinite(verts).all()):
            raise ShapeMismatch("region holds NaN or an infinity")
        planes = []
        for hp in self.halfplanes:
            norm = _normalize_halfplane(hp)
            if norm is not None:
                planes.append(norm)
        for hp in NONNEG_HALFPLANES:
            if not any(
                abs(hp[0] - p[0]) <= ROW_TOL
                and abs(hp[1] - p[1]) <= ROW_TOL
                and abs(hp[2] - p[2]) <= ROW_TOL
                for p in planes
            ):
                planes.append(hp)
        if self.empty and verts.shape[0]:
            raise ShapeMismatch("empty region cannot carry vertices")
        if not self.empty:
            if verts.shape[0] == 0:
                raise ShapeMismatch("nonempty region needs at least one vertex")
            worst = max(
                float(a * v[0] + b * v[1] - c)
                for (a, b, c) in planes
                for v in verts
            )
            if worst > VERTEX_TOL:
                raise NumericsError(
                    f"vertex violates a halfplane by {worst!r}"
                )
        object.__setattr__(self, "halfplanes", tuple(planes))
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "empty", bool(self.empty))

    def is_point(self) -> bool:
        return not self.empty and self.vertices.shape[0] == 1


def _edges_to_halfplanes(hull: list) -> list:
    """Outward halfplanes of a CCW hull, raw (``Region2D`` normalizes
    them); degenerate hulls get box planes."""
    if len(hull) == 1:
        (x, y) = hull[0]
        return [(1.0, 0.0, x), (-1.0, 0.0, -x), (0.0, 1.0, y), (0.0, -1.0, -y)]
    if len(hull) == 2:
        (x1, y1), (x2, y2) = hull
        dx, dy = x2 - x1, y2 - y1
        planes = [(a, b, a * x1 + b * y1) for a, b in ((dy, -dx), (-dy, dx))]
        for a, b in ((dx, dy), (-dx, -dy)):
            planes.append((a, b, max(a * x1 + b * y1, a * x2 + b * y2)))
        return planes
    planes = []
    m = len(hull)
    for i in range(m):
        x1, y1 = hull[i]
        x2, y2 = hull[(i + 1) % m]
        a, b = y2 - y1, -(x2 - x1)  # outward for CCW order
        planes.append((a, b, a * x1 + b * y1))
    return planes


def region_from_vertices(points: Sequence) -> Region2D:
    """Convex hull of the given points as a Region2D: its counter-clockwise
    vertices and one halfplane per edge.  A NaN or an infinity among the
    points raises ``ShapeMismatch``."""
    xy = np.asarray(points, dtype=float).reshape(-1, 2)
    if not np.isfinite(xy).all():
        raise ShapeMismatch("region holds NaN or an infinity")
    # exact repeats go first, each first copy kept in order: the greedy
    # pass would drop every later copy, since either the first copy was
    # kept or a point kept before it lies within tol of both, and a
    # dropped point changes none of the pass's later choices
    pts = _dedupe_points(dict.fromkeys(map(tuple, xy.tolist())))
    if not pts:
        return Region2D((), np.zeros((0, 2)), empty=True)
    hull = convex_hull(pts)
    return Region2D(tuple(_edges_to_halfplanes(hull)), np.array(hull))


def polygon_points(ic, ib, ec=(), ev=()) -> list:
    """The polygon that rows ``ic . x <= ib`` and ``ec . x = ev`` cut out of
    the nonnegative quadrant, over the two plotted rates.

    The working box is clipped by the inequalities, then by each equality
    as two opposing rows, each normalized first, since the clip's ``SNAP``
    test reads normalized distances.  The points walk the polygon
    counter-clockwise; there are none when the rows cut nothing out of the
    box.
    """
    rows = [(1.0, row, bound) for row, bound in zip(ic, ib)]
    rows += [(sign, row, value) for row, value in zip(ec, ev) for sign in (1.0, -1.0)]
    points = [(0.0, 0.0), (BOX_LIMIT, 0.0), (BOX_LIMIT, BOX_LIMIT), (0.0, BOX_LIMIT)]
    for sign, (a, b), bound in rows:
        hp = _normalize_halfplane((sign * a, sign * b, sign * bound))
        if hp is not None:
            points = _clip(points, hp)
    if points and max(max(abs(x), abs(y)) for x, y in points) > UNBOUNDED_AT:
        raise NumericsError(
            "projected system is unbounded; add cap rows before extracting"
        )
    return points


def polygon_extract(system: LinearSystem, r1: str, r2: str) -> Region2D:
    """Turn a two-variable system into a Region2D.

    The system must contain exactly the plotted variables; project first.
    One clip of the box by its rows (:func:`polygon_points`) gives the
    polygon, and :func:`region_from_vertices` its hull: the vertices, and
    one halfplane per hull edge, which every vertex meets to roundoff.
    """
    if set(system.variables) != {r1, r2}:
        raise LeftoverVariables(
            f"system still has variables {system.variables}, expected ({r1}, {r2})"
        )
    cols = [system.index_of(r1), system.index_of(r2)]
    points = polygon_points(
        system.ineq_coefs[:, cols], system.ineq_bounds,
        system.eq_coefs[:, cols], system.eq_values,
    ) if system.feasible else []
    return region_from_vertices(points)


def _check_tolerance(tol: float) -> None:
    """A comparison tolerance must be a finite number >= 0; else ``ShapeMismatch``."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ShapeMismatch(f"tolerance must be a finite number >= 0, not {tol!r}")


def region_contains(outer: Region2D, inner: Region2D, tol: float = 1e-9) -> bool:
    """True iff every inner vertex satisfies every outer halfplane within
    tol, a finite number >= 0 (see ``_check_tolerance``)."""
    _check_tolerance(tol)
    if inner.empty:
        return True
    if outer.empty:
        return False
    for a, b, c in outer.halfplanes:
        slack = a * inner.vertices[:, 0] + b * inner.vertices[:, 1] - c
        if float(np.max(slack)) > tol:
            return False
    return True


def regions_close(first: Region2D, second: Region2D, tol: float = 1e-7) -> bool:
    """Mutual containment within tol."""
    return region_contains(first, second, tol) and region_contains(second, first, tol)


def support(region: Region2D, direction: Sequence[float]) -> float:
    """Largest value of direction . (R1,R2) over the region."""
    if region.empty:
        raise EmptyRegion("support of an empty region")
    d1, d2 = float(direction[0]), float(direction[1])
    if not (math.isfinite(d1) and math.isfinite(d2)):
        raise ShapeMismatch("support direction holds NaN or an infinity")
    if abs(d1) < SNAP and abs(d2) < SNAP:
        raise ZeroDirection("support direction is zero")
    return float(np.max(d1 * region.vertices[:, 0] + d2 * region.vertices[:, 1]))


# ------------------------------------------------------------- serialization


def region_to_dict(region: Region2D) -> dict:
    return {
        "halfplanes": [[float(a), float(b), float(c)] for a, b, c in region.halfplanes],
        "vertices": [[float(x), float(y)] for x, y in region.vertices],
        "empty": bool(region.empty),
    }


def region_from_dict(doc: Mapping) -> Region2D:
    """Inverse of ``region_to_dict``.  A malformed document raises
    ``ShapeMismatch``, and so do a string, a boolean or an array where a
    number belongs and an "empty" that is no boolean."""
    try:
        planes = tuple(tuple(float(v) for v in row) for row in doc["halfplanes"])
        points = tuple(tuple(float(v) for v in row) for row in doc["vertices"])
        numbers = [v for key in ("halfplanes", "vertices") for row in doc[key] for v in row]
        empty = doc["empty"]
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ShapeMismatch(f"malformed region document: {exc}") from exc
    if not all(map(_number, numbers)) or not isinstance(empty, (bool, np.bool_)):
        raise ShapeMismatch('a region document needs numbers and a boolean "empty"')
    if any(len(row) != 3 for row in planes):
        raise ShapeMismatch("halfplane rows must have three entries")
    if any(len(row) != 2 for row in points):
        raise ShapeMismatch("vertex rows must have two entries")
    return Region2D(planes, points, empty=bool(empty))
