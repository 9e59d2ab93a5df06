"""Converse-side outer bound.

For a fixed joint p(x1,v12,x2,x3) the converse gives five linear rate
bounds; the channel-level outer estimate maximizes the support function of
those polygons over sampled joints along a fan of directions and intersects
the resulting halfplanes.  Under-sampling can only make the estimate
smaller, never larger, so the caveat record travels with every result.

The sampled-search path lives here too, shared with the capacity classes:
the input-law type, the bounds of a batch of laws through the channel, the
seeded pool and the per-direction coordinate ascent.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .channel import ChannelSpec
from .errors import CardinalityMismatch, ShapeMismatch
from .pmf import (
    Information,
    _cardinalities,
    _normalized,
    _settings,
    check_cells,
    clip_information,
    point_mass,
)
from .polytope import SNAP, Region2D, polygon_points, region_from_vertices

@dataclass(frozen=True)
class InputLaw:
    """Input-side law p(x1, [aux...], x2, x3) of a sampled search.

    The first axis is x1 and the last two are x2 and x3; any axes between
    them are auxiliaries.  Subclasses fix the number of axes in ``arity``.
    """

    arity: ClassVar[int | None] = None

    cards: tuple[int, ...]
    pmf: np.ndarray

    def __post_init__(self):
        what = f"need {self.arity or 'at least three'} positive integer cardinalities"
        cards = _cardinalities(self.cards, what, self.arity)
        if len(cards) < 3:
            raise ShapeMismatch(f"{what}, got {cards}")
        object.__setattr__(self, "cards", cards)
        object.__setattr__(self, "pmf", _normalized(self.pmf, cards, 0, "input law"))

    @classmethod
    def uniform(cls, cards):
        cards = _cardinalities(cards, "need positive integer cardinalities")
        return cls(cards, np.full(cards, 1.0 / int(np.prod(cards))))

    @classmethod
    def random(cls, cards, rng: np.random.Generator):
        cards = _cardinalities(cards, "need positive integer cardinalities")
        return cls(cards, rng.dirichlet(np.ones(math.prod(cards))).reshape(cards))


class V12Joint(InputLaw):
    """Input-side joint p(x1, v12, x2, x3) with the converse auxiliary."""

    arity = 4


def check_input_cards(cards, channel: ChannelSpec) -> None:
    """Raise ``CardinalityMismatch`` unless a law's x1, x2, x3 fit the channel."""
    if (cards[0], cards[-2], cards[-1]) != channel.cards[:3]:
        raise CardinalityMismatch(
            f"input cards {tuple(cards)} do not match channel {channel.cards[:3]}"
        )


# cap on the q cells (rows x n / |X2| * |Y1||Y2|) of one law_bounds chunk
_Q_CELLS = 1 << 15


def law_bounds(bounds, rows, cards, channel: ChannelSpec, labels: str) -> np.ndarray:
    """``bounds`` of the laws ``rows`` over ``cards``, concatenated along the rows.

    Each chunk of at most ``_Q_CELLS`` q cells (one row at least) becomes
    one ``Information.of_laws`` table named ``labels``.  ``bounds`` maps a
    table to an array with one entry per row, and each row's entry does
    not depend on the rows beside it, so the chunking moves no byte.
    """
    check_input_cards(cards, channel)
    cells = math.prod(cards) // cards[-2] * channel.card("y1") * channel.card("y2")
    chunk = max(1, _Q_CELLS // cells)
    return np.concatenate([
        bounds(Information.of_laws(rows[lo:lo + chunk], cards, labels, channel))
        for lo in range(0, len(rows), chunk)
    ])


# ---------------------------------------------------------------------------
# bound evaluation on an Information table of a batch of laws; V12_AXES
# names a V12Joint's axes, then y1 and y2
V12_AXES = "x1 v12 x2 x3 y1 y2"


def five_bounds(info: Information) -> np.ndarray:
    """The five converse rate bounds of a table named ``V12_AXES``, in bits,
    on a last axis: two R1 caps, the R2 cap, two sum caps.
    """
    # the sum caps first: they ask for the widest marginals, which then
    # serve every later term without another pass over a root
    sum_caps = [
        info.mi("x1 x2", "y1 y2", "x3"),
        info.mi("x2", "y2", "x1 v12 x3") + info.mi("x1 v12 x3", "y1"),
    ]
    bounds = [
        info.mi("x1 x2 x3", "y1"),
        info.mi("x1 v12 x3", "y1"),
        info.mi("x2", "y2", "x1 x3"),
    ]
    return clip_information(np.stack(bounds + sum_caps, axis=-1))


def _cap_corners(r1, r2, s) -> list:
    """The five (R1, R2) corners of the ``cap_vertices`` polygon, in its
    order, as pairs of arrays of the caps' broadcast shape."""
    r1, r2, s = np.broadcast_arrays(r1, r2, s)
    r1, r2 = np.minimum(r1, s), np.minimum(r2, s)
    x_top = np.maximum(np.minimum(r1, s - r2), 0.0)
    y_right = np.maximum(np.minimum(r2, s - r1), 0.0)
    zero = np.zeros(r1.shape)
    return [(zero, zero), (r1, zero), (r1, y_right), (x_top, r2), (zero, r2)]


def cap_vertices(r1, r2, s) -> np.ndarray:
    """Corners of {R1, R2 >= 0, R1 <= r1, R2 <= r2, R1+R2 <= s} for caps
    that broadcast: shape (..., 5, 2), counter-clockwise from the origin.
    A polygon with fewer than five corners repeats some of them."""
    return np.moveaxis(np.array(_cap_corners(r1, r2, s)), (0, 1), (-2, -1))


def cap_polygon(r1, r2, s) -> Region2D:
    """The ``cap_vertices`` polygon of one law's caps, empty when a cap lies
    below -``SNAP``."""
    if min(r1, r2, s) < -SNAP:
        return Region2D((), np.zeros((0, 2)), empty=True)
    return region_from_vertices(cap_vertices(r1, r2, s))


def outer_polygon(d: V12Joint, channel: ChannelSpec) -> Region2D:
    """Per-distribution converse polygon."""
    (bounds,) = law_bounds(five_bounds, d.pmf[None], d.cards, channel, V12_AXES)
    return cap_polygon(*_caps(bounds))


# ---------------------------------------------------------------------------
# support search machinery (shared with the capacity-class searches)

def _caps(bounds: np.ndarray):
    """Collapse the five bounds to (R1 cap, R2 cap, sum cap)."""
    r1 = np.minimum(bounds[..., 0], bounds[..., 1])
    r2 = bounds[..., 2]
    s = np.minimum(bounds[..., 3], bounds[..., 4])
    return r1, r2, s


def support_of_caps(r1, r2, s, direction) -> np.ndarray:
    """max lam . (R1,R2) over the ``cap_vertices`` polygon; ``direction`` is
    one (lam1, lam2) or an array of them broadcasting against the caps."""
    direction = np.asarray(direction, dtype=float)
    la, lb = direction[..., 0], direction[..., 1]
    # corner by corner, so that a few arrays of the heights' size live at
    # once; elementwise, not a matrix product: a fused multiply-add would
    # move the last bits of heights that the ascent compares and the
    # documents hold
    heights = (la * x + lb * y for x, y in _cap_corners(r1, r2, s))
    return functools.reduce(np.maximum, heights)


def _project_rows(rows: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of ``rows`` onto the probability
    simplex, written over ``rows``: the bytes of the textbook formula
    (sort, cumsum, threshold tau), with two temporaries of its size."""
    n = rows.shape[1]
    u = np.sort(rows, axis=1)[:, ::-1]
    # (cumsum - 1) / k, once for the threshold test and for tau; for
    # doubles u - c > 0 exactly when u > c
    css = np.cumsum(u, axis=1)
    css -= 1.0
    css /= np.arange(1, n + 1)
    rho = n - 1 - np.argmax((u > css)[:, ::-1], axis=1)
    rows -= css[np.arange(len(rows)), rho][:, None]
    return np.maximum(rows, 0.0, out=rows)


def fan_directions(count: int) -> np.ndarray:
    angles = np.linspace(0.0, np.pi / 2.0, count)
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


# cap on the candidate entries (distinct walks x n x n) that one evaluation
# of a lockstep sweep scores; every fan of the benchmark's searches fits in
# one (law_bounds caps the tables)
_BLOCK_CELLS = 1 << 16

# entries of the pieces in which a block's candidates are projected, so
# that the projection's temporaries stay piece-sized
_PIECE_CELLS = 1 << 13

# a walk moves, and counts as improved, only on a gain above this
ASCENT_GAIN = 1e-12

# search effort: walks start from the REFINE_STARTS best pool rows, with a
# first step of REFINE_STEP, for at most REFINE_SWEEPS sweeps
REFINE_STARTS = 5
REFINE_STEP = 0.05
REFINE_SWEEPS = 50


def lockstep_ascent(starts, values, evaluate) -> tuple[np.ndarray, np.ndarray]:
    """Greedy coordinate ascents, one per row of ``starts``, in lockstep.

    ``values`` holds each start's score.  ``evaluate(rows, take, owner)``
    scores the walks ``owner``: it returns an array shaped like ``take``,
    whose entry [k, i] scores the row ``take[k, i]``, walk ``owner[k]``'s
    candidate i.  Walks at the same point with the same step, compared
    bytewise (-0.0 is not 0.0), share their rows.  Each sweep bumps every
    entry of every live walk by its own step, first ``REFINE_STEP``,
    projects onto the simplex and keeps the walk's first candidate within
    ``ASCENT_GAIN`` of its best if that gains over ``ASCENT_GAIN``, else
    halves the step.  A sweep scores its distinct walks' candidates in
    blocks of at most max(``_BLOCK_CELLS``, n * n) entries, one
    ``evaluate`` call each; the blocks split no walk's path.  A walk ends
    at a step below 1e-3 or after ``REFINE_SWEEPS`` sweeps.  Returns
    (values, points).
    """
    x = np.array(starts, dtype=float)
    values = np.array(values, dtype=float)
    walks, n = x.shape
    live = np.arange(walks)
    steps = np.full(walks, float(REFINE_STEP))
    block = max(1, _BLOCK_CELLS // (n * n))
    piece = max(1, _PIECE_CELLS // n)
    for _ in range(REFINE_SWEEPS):
        if not live.size:
            break
        # walks whose (point, step) bytes match share rows: those of the
        # first such walk, found by np.unique
        keys = np.column_stack([x[live], steps])
        keys = keys.view(np.dtype((np.void, keys.itemsize * (n + 1))))[:, 0]
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        # walks ordered by key, so that a block's walks are one slice
        by_key = np.argsort(inverse, kind="stable")
        sorted_keys = inverse[by_key]
        for lo in range(0, len(first), block):
            heads = first[lo:lo + block]
            mine = by_key[slice(*np.searchsorted(sorted_keys, [lo, lo + block]))]
            owner = live[mine]
            # walk w's candidate i is its point with entry i bumped by its step
            candidates = np.repeat(x[live[heads]], n, axis=0)
            candidates.reshape(-1, n, n)[:, range(n), range(n)] += steps[heads, None]
            for at in range(0, len(candidates), piece):
                _project_rows(candidates[at:at + piece])
            take = (inverse[mine, None] - lo) * n + np.arange(n)
            scores = evaluate(candidates, take, owner)
            # the first candidate within ASCENT_GAIN of the best, so that exact
            # ties (v12 relabelings) do not split on the last bits of a sum
            top = np.max(scores, axis=1, keepdims=True)
            best = np.argmax(scores >= top - ASCENT_GAIN, axis=1)
            top = scores[np.arange(mine.size), best]
            up = top > values[owner] + ASCENT_GAIN
            x[owner[up]] = candidates[take[up, best[up]]]
            values[owner[up]] = top[up]
            steps[mine[~up]] *= 0.5
        live, steps = live[steps >= 1e-3], steps[steps >= 1e-3]
    return values, x


@dataclass(frozen=True)
class SearchConfig:
    """Deterministic sampling plan for support searches (ascents: ``REFINE_*``)."""

    seed: int = 0
    num_samples: int = 0
    card_v12: int = 0  # 0 means min(|X1||X2|, |X2| + 1): see v12_cards
    fan: int = 64

    def __post_init__(self):
        # a fan holds at least the two axis directions
        _settings(self, {"seed": 0, "num_samples": 0, "card_v12": 0, "fan": 2})


def check_ascent_budget(cards, channel: ChannelSpec) -> None:
    """Raise ``TooLarge`` when the n candidates of one ascent walk over laws
    on ``cards`` (n their product) would have more than ``pmf.JOINT_CELL_LIMIT``
    joint cells in all, n * |Y1||Y2| each.  The searches hold less: a
    ``law_bounds`` table at most max(``_Q_CELLS``, n / |X2| * |Y1||Y2|) q cells
    beside its laws, the block a ``lockstep_ascent`` sweep scores at once
    max(``_BLOCK_CELLS``, n * n) candidate entries, both within the limit
    once this check passes.  The block's projection holds temporaries of
    pieces of ``_PIECE_CELLS`` entries (n at least) only."""
    n = math.prod(cards)
    cells = n * n * channel.card("y1") * channel.card("y2")
    check_cells(cells, f"an ascent sweep over {n} input cells")


def v12_cards(channel: ChannelSpec, cfg: SearchConfig) -> tuple[int, int, int, int]:
    """(|X1|, |V12|, |X2|, |X3|) of a search; card_v12 = 0 means min(|X1||X2|,
    |X2| + 1), the size that keeps every V12 term (support lemma; README).
    Raises ``TooLarge`` through ``check_ascent_budget``."""
    cx1, cx2, cx3 = channel.cards[:3]
    cards = (cx1, cfg.card_v12 or min(cx1 * cx2, cx2 + 1), cx2, cx3)
    check_ascent_budget(cards, channel)
    return cards


def _distinct(tensors) -> list[np.ndarray]:
    """First occurrence of each tensor, compared bytewise."""
    out, seen = [], set()
    for t in tensors:
        key = t.tobytes()
        if key not in seen:
            seen.add(key)
            out.append(t)
    return out


def input_corners(cards: tuple[int, int, int]) -> list[np.ndarray]:
    """Distinct product laws over (x1, x2, x3) whose three factors are
    each uniform or a point mass at symbol 0; the all-uniform law first."""
    margins = [(np.full(card, 1.0 / card), point_mass(0, card)) for card in cards]
    return _distinct(
        np.einsum(m1, [0], m2, [1], m3, [2], [0, 1, 2])
        for m1, m2, m3 in itertools.product(*margins)
    )


def wire_v12(base: np.ndarray, card_v12: int) -> list[np.ndarray]:
    """Embed p(x1, x2, x3) as p(x1, v12, x2, x3) four ways: v12 = 0, x1,
    x2 and x1*|X2| + x2, each taken mod |V12|."""
    cx1, cx2, _ = base.shape
    x1, x2 = np.indices((cx1, cx2), sparse=True)
    return [
        np.einsum(base, [0, 2, 3], point_mass(rule % card_v12, card_v12), [0, 2, 1],
                  [0, 1, 2, 3], order="C")
        for rule in np.broadcast_arrays(0, x1, x2, x1 * cx2 + x2)
    ]


def _corner_joints(cards: tuple[int, int, int, int]) -> list[np.ndarray]:
    """Structured starting joints: independent inputs, v12 wired four ways."""
    cx1, cv12, cx2, cx3 = cards
    base = input_corners((cx1, cx2, cx3))[0]
    return [np.full(cards, 1.0 / int(np.prod(cards)))] + wire_v12(base, cv12)


def sample_pool(
    cards: tuple[int, ...],
    cfg: SearchConfig,
    corners,
    extra: tuple[InputLaw, ...] = (),
) -> np.ndarray:
    """The laws a search evaluates, one flat law per row.

    The corners come first, then ``cfg.num_samples`` Dirichlet(1) draws
    over ``cards`` seeded by (cfg.seed, i), then the extra laws.  The draws
    are checked and normalized as one table, each row by the same sum and
    division as ``InputLaw.random``'s law.  Raises ``TooLarge``, before
    any draw, when they would hold more than ``pmf.JOINT_CELL_LIMIT`` cells.
    """
    for d in extra:
        if d.cards != cards:
            raise CardinalityMismatch(
                f"extra distribution cards {d.cards} do not match {cards}"
            )
    n = math.prod(cards)
    rows = len(corners) + cfg.num_samples + len(extra)
    check_cells(rows * n, f"a pool of {rows} laws")
    draws = np.zeros((0, n))
    if cfg.num_samples:  # _normalized names its worst row, which 0 rows lack
        draws = _normalized([
            np.random.default_rng([cfg.seed, i]).dirichlet(np.ones(n))
            for i in range(cfg.num_samples)
        ], (cfg.num_samples, n), 1, "input law")
    return np.concatenate([
        np.reshape(corners, (-1, n)), draws, np.reshape([d.pmf for d in extra], (-1, n))
    ])


def fan_search(
    flats: np.ndarray, caps_of, cfg: SearchConfig, extra: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Support search over ``flats`` along each fan direction, with ascents.

    ``caps_of`` maps a batch of flat laws to (R1 cap, R2 cap, sum cap).
    Returns (heights, rows): for each direction of ``fan_directions(cfg.fan)``
    the larger of the best support over ``flats`` and every ascent's end;
    and ``flats``, then each ascent end that gains over its start by more
    than ``ASCENT_GAIN``, direction by direction, then in start order
    (duplicates kept).

    Ascents start from the ``REFINE_STARTS`` best rows but the last
    ``extra``, then from the ``REFINE_STARTS`` best of those ``extra``
    rows.  So an extra row never displaces a start the search makes
    without it, and every row among the ``REFINE_STARTS`` best of all
    still starts one.  All ascents of the fan run together in one
    ``lockstep_ascent``, direction by direction, from their starts'
    supports.  After the pool, ``caps_of`` sees each distinct walk's
    candidates once; a row that two walks reach from different points may
    be scored twice.  Raises ``TooLarge`` first when the supports, one per
    direction and row, would hold more than ``pmf.JOINT_CELL_LIMIT`` cells.
    """
    check_cells(cfg.fan * len(flats), f"a fan of {cfg.fan} over {len(flats)} laws")
    directions = fan_directions(cfg.fan)
    supports = support_of_caps(*caps_of(flats), directions[:, None, :])
    cut = len(flats) - extra
    order = np.concatenate([
        lo + np.argsort(-supports[:, lo:hi], axis=1, kind="stable")[:, :REFINE_STARTS]
        for lo, hi in ((0, cut), (cut, len(flats)))
    ], axis=1)
    starts = np.take_along_axis(supports, order, axis=1)
    lam = np.repeat(directions, order.shape[1], axis=0)

    def evaluate(rows: np.ndarray, take: np.ndarray, owner: np.ndarray) -> np.ndarray:
        # caps do not depend on the direction: each walk reads its rows'
        # caps, in chunks of at most max(_BLOCK_CELLS, n) entries
        caps, out = caps_of(rows), np.empty(take.shape)
        chunk = max(1, _BLOCK_CELLS // take.shape[1])
        for lo in range(0, len(take), chunk):
            at = slice(lo, lo + chunk)
            out[at] = support_of_caps(*(c[take[at]] for c in caps), lam[owner[at], None])
        return out

    reached, ends = lockstep_ascent(flats[order.reshape(-1)], starts.reshape(-1), evaluate)
    reached = reached.reshape(order.shape)
    heights = np.max(np.hstack([supports, reached]), axis=1)
    gained = ends[(reached > starts + ASCENT_GAIN).reshape(-1)]
    return heights, np.concatenate([flats, gained])


def outer_region_estimate(
    channel: ChannelSpec,
    cfg: SearchConfig,
    extra_distributions: tuple[V12Joint, ...] = (),
) -> tuple[Region2D, dict]:
    """Convex support-function envelope of the per-distribution polygons.

    Contains the converse polygon of every joint it evaluated; the caveat
    record documents the sampling effort because the true bound may demand
    joints the search never saw.
    """
    cards = v12_cards(channel, cfg)
    flats = sample_pool(cards, cfg, _corner_joints(cards), extra_distributions)

    def caps_of(rows: np.ndarray):
        return _caps(law_bounds(five_bounds, rows, cards, channel, V12_AXES))

    heights, _ = fan_search(flats, caps_of, cfg, extra=len(extra_distributions))
    if not np.isfinite(heights).all():  # the clip would drop a NaN row's points
        raise ShapeMismatch("a fan height is NaN or an infinity")
    region = region_from_vertices(polygon_points(fan_directions(cfg.fan), heights))
    caveat = {
        "kind": "support-envelope estimate",
        "note": (
            "numerical estimate: under-sampling can only shrink it, "
            "never enlarge it"
        ),
        "samples": int(cfg.num_samples),
        "extra_distributions": len(extra_distributions),
        "seed": int(cfg.seed),
        "card_v12": int(cards[1]),
        "fan": int(cfg.fan),
    }
    return region, caveat
