"""Capacity regions for two solvable channel classes.

Degraded Z-geometry channels have a three-bound capacity formula over
p(x1,x2,x3).  Semi-deterministic channels in the high-interference regime
have a three-bound formula over p(x1,v12,x2,x3) whose premise is a
universally quantified inequality pair; that premise is never assumed
here.  A falsification search runs first and its report travels with
every region it guards.  The module also carries the achievability chain
connecting the general inner bound to the five-bound reduced region via
a copy-factor specialization.
"""

import functools
from dataclasses import asdict, dataclass

import numpy as np

from .channel import ChannelSpec, classify
from .errors import (
    HiRegimeFalsified,
    NotDegraded,
    NotSemiDeterministic,
    NotZChannel,
    NumericsError,
)
from .inner import InnerFactorization, _factorization, _signature_pairs
from .outer import (
    REFINE_STARTS,
    V12_AXES,
    InputLaw,
    SearchConfig,
    V12Joint,
    _corner_joints,
    _distinct,
    cap_polygon,
    cap_vertices,
    check_ascent_budget,
    check_input_cards,
    fan_search,
    input_corners,
    law_bounds,
    lockstep_ascent,
    sample_pool,
    v12_cards,
    wire_v12,
)
from .pmf import Information, _mode_table, clip_information, point_mass
from .polytope import Region2D, region_from_vertices

VIOLATION_TOL = 1e-9
DROP_CONSISTENCY_TOL = 1e-8
# reduction_factorization fills rows of conditioning assignments lighter than this
MASS_SKIP = 1e-15

CONDITION_A = "I(Y2;X1|X3) >= I(Y1;X1,X3)"
CONDITION_B = "I(Y1;V12|X1,X3) >= I(Y2;V12|X1,X3)"


class InputJoint(InputLaw):
    """Joint p(x1, x2, x3) over the physical channel inputs."""

    arity = 3


class V12V2Joint(InputLaw):
    """Joint p(x1, v12, v2, x2, x3) with both reduced-region auxiliaries."""

    arity = 5


# ---------------------------------------------------------------------------
# bound evaluators: each takes an Information table of a batch of laws,
# named as it names its axes, and returns its terms on a last axis

# an InputJoint's axes, then y1 and y2
INPUT_AXES = "x1 x2 x3 y1 y2"


def degraded_z_bounds(info: Information) -> np.ndarray:
    """Rate caps (R1, R2, R1+R2) for the degraded Z class.

    Axes: (x1, x2, x3, y1, y2).
    """
    return clip_information(np.stack([
        info.mi("x1 x3", "y1"),
        info.mi("x2", "y2", "x1 x3"),
        info.mi("x1 x2", "y2", "x3"),
    ], axis=-1))


def semidet_hi_bounds(info: Information) -> np.ndarray:
    """Rate caps (R1, R2, R1+R2) for the semi-deterministic class.

    Axes: (x1, v12, x2, x3, y1, y2).
    """
    a = info.mi("x1 v12 x3", "y1")
    # x1 v12 x3 y2 first, so that x1 x3 y2 sums from it, not from a root
    total = a + info.cond("y2", "x1 v12 x3")
    return clip_information(np.stack([
        a,
        info.cond("y2", "x1 x3"),
        total,
    ], axis=-1))


def _reduced_terms_v2(info: Information) -> np.ndarray:
    """Information terms (a, b, delta, n, k2) of the five-bound reduced
    region, each clipped at zero.

    Axes: (x1, v12, v2, x2, x3, y1, y2).
    """
    return clip_information(np.stack([
        info.mi("x1 v12 x3", "y1"),
        info.mi("v2", "y2", "x1 x3"),
        info.mi("v12", "y1", "x1 x3"),
        info.mi("v12", "v2", "x1 x3"),
        info.mi("x1 v2", "y2", "x3"),
    ], axis=-1))


def _reduced_terms_y2(info: Information) -> np.ndarray:
    """Reduced-region terms (a, h2, delta, m, h3) with the second auxiliary
    set to the y2 output, each clipped at zero.

    Axes: (x1, v12, x2, x3, y1, y2).
    """
    return clip_information(np.stack([
        info.mi("x1 v12 x3", "y1"),
        info.cond("y2", "x1 x3"),
        info.mi("v12", "y1", "x1 x3"),
        info.mi("v12", "y2", "x1 x3"),
        info.cond("y2", "x3"),
    ], axis=-1))


def _gaps(info: Information) -> np.ndarray:
    """High-interference premise gaps (gap_a, gap_b) on a last axis, where
    gap_a = I(Y1;X1,X3) - I(Y2;X1|X3) and
    gap_b = I(Y2;V12|X1,X3) - I(Y1;V12|X1,X3); positive means the premise
    fails.  Axes: (x1, v12, x2, x3, y1, y2)."""
    return np.stack([
        info.mi("x1 x3", "y1") - info.mi("x1", "y2", "x3"),
        info.mi("v12", "y2", "x1 x3") - info.mi("v12", "y1", "x1 x3"),
    ], axis=-1)


# ---------------------------------------------------------------------------
# per-distribution polygons

def _require_degraded_z(channel: ChannelSpec):
    report = classify(channel)
    if not report.is_z:
        raise NotZChannel(
            "the first output must not depend on the second sender's input"
        )
    if not report.is_degraded:
        raise NotDegraded(
            "the first output must be conditionally determined by "
            "(second output, helper input)"
        )


def _require_semidet(channel: ChannelSpec):
    if not classify(channel).is_semi_deterministic:
        raise NotSemiDeterministic(
            "the second output must be a deterministic function of the inputs"
        )


def degraded_z_polygon(
    d: InputJoint, channel: ChannelSpec, force: bool = False
) -> Region2D:
    """Capacity-formula polygon for one input distribution."""
    if not force:
        _require_degraded_z(channel)
    (caps,) = law_bounds(degraded_z_bounds, d.pmf[None], d.cards, channel, INPUT_AXES)
    return cap_polygon(*caps)


def semidet_hi_polygon(d: V12Joint, channel: ChannelSpec) -> Region2D:
    """Capacity-formula polygon for one auxiliary-carrying distribution."""
    _require_semidet(channel)
    (caps,) = law_bounds(semidet_hi_bounds, d.pmf[None], d.cards, channel, V12_AXES)
    return cap_polygon(*caps)


def violation_gaps(d: V12Joint, channel: ChannelSpec) -> tuple[float, float]:
    """The premise gaps (gap_a, gap_b) of one law, as ``_gaps`` defines them."""
    ((gap_a, gap_b),) = law_bounds(_gaps, d.pmf[None], d.cards, channel, V12_AXES)
    return gap_a, gap_b


def _reduced_caps(a, b, delta, n, k):
    """(R1 cap, R2 cap, sum cap) of the five-bound reduced region's
    information terms, one law's or arrays of them."""
    return a, np.minimum(b, b + delta - n), np.minimum(delta + k - n, a + b - n)


def _reduced_polygon(a, b, delta, n, k) -> Region2D:
    """Five-bound reduced polygon of its information terms."""
    region = cap_polygon(*_reduced_caps(a, b, delta, n, k))
    # binning penalties can empty the raw polygon; zero rates stay achievable
    if region.empty:
        return region_from_vertices([(0.0, 0.0)])
    return region


def reduced_region(d: V12V2Joint, channel: ChannelSpec) -> Region2D:
    """Five-bound achievable polygon over p(x1, v12, v2, x2, x3)."""
    (terms,) = law_bounds(_reduced_terms_v2, d.pmf[None], d.cards, channel,
                         "x1 v12 v2 x2 x3 y1 y2")
    return _reduced_polygon(*terms)


def reduced_region_semidet(d: V12Joint, channel: ChannelSpec) -> Region2D:
    """Reduced polygon with the second auxiliary fixed to the y2 output."""
    _require_semidet(channel)
    (terms,) = law_bounds(_reduced_terms_y2, d.pmf[None], d.cards, channel, V12_AXES)
    return _reduced_polygon(*terms)


def y2_output_map(channel: ChannelSpec) -> np.ndarray:
    """The deterministic input-to-y2 map of a semi-deterministic channel."""
    _require_semidet(channel)
    return np.argmax(channel.output2_given_inputs, axis=-1)


def v2_equals_y2_lift(d: V12Joint, channel: ChannelSpec) -> V12V2Joint:
    """Embed p(x1,v12,x2,x3) as p(x1,v12,v2,x2,x3) with v2 = y2(x1,x2,x3)."""
    check_input_cards(d.cards, channel)
    wiring = point_mass(y2_output_map(channel), channel.card("y2"))
    pmf = np.einsum(d.pmf, [0, 1, 3, 4], wiring, [0, 3, 4, 2], [0, 1, 2, 3, 4],
                    order="C")
    return V12V2Joint(pmf.shape, pmf)


# ---------------------------------------------------------------------------
# specialization of the general inner bound onto the reduced region

def _prefix_conditional(p: np.ndarray, given: int, keep: int) -> np.ndarray:
    """p(axes given..keep-1 | axes 0..given-1) of a joint tensor ``p``; a
    conditioning assignment lighter than ``MASS_SKIP`` gets a uniform row."""
    joint = p.sum(axis=tuple(range(keep, p.ndim)))
    mass = joint.sum(axis=tuple(range(given, keep)), keepdims=True)
    heavy = mass >= MASS_SKIP
    uniform = 1.0 / (joint.size // mass.size)
    return np.where(heavy, joint / np.where(heavy, mass, 1.0), uniform)


def reduction_factorization(
    d: V12V2Joint, channel: ChannelSpec
) -> InnerFactorization:
    """Build the auxiliary factorization that specializes to d.

    Collapses v1, u2p, u2 and the quantizer to constants, wires u1p to x3
    and u1 to x1 through deterministic copy factors, and distributes
    (v12, v2, x2) per d, so the generic inner pipeline reproduces the
    five-bound reduced region.
    """
    cx1, cv12, cv2, cx2, cx3 = d.cards
    check_input_cards(d.cards, channel)
    cards = dict(u1p=cx3, u1=cx1, v1=1, u2p=1, u2=1, v12=cv12, v2=cv2, yh2=1,
                 x1=cx1, x2=cx2, x3=cx3, y2=channel.card("y2"))
    mode = lambda i, m: _mode_table(*_signature_pairs(i, cards), m)
    # (x3, x1, v12, v2, x2): each conditional conditions on a prefix
    p = d.pmf.transpose(4, 0, 1, 2, 3)
    tables = (
        _prefix_conditional(p, 0, 1),
        _prefix_conditional(p, 1, 2),
        mode(2, "const"),
        mode(3, "const"),
        _prefix_conditional(p, 2, 4).reshape(cx3, cx1, 1, 1, 1, cv12, cv2),
        mode(5, ("copy", "u1")),
        _prefix_conditional(p, 4, 5).reshape(cx3, cx1, 1, 1, 1, cv12, cv2, cx2),
        mode(7, ("copy", "u1p")),
        mode(8, "const"),
    )
    return _factorization(cards, tables)


# ---------------------------------------------------------------------------
# high-interference falsification search

@dataclass(frozen=True)
class HiRegimeReport:
    """Outcome of the premise falsification search."""

    status: str  # "falsified" or "no-violation-found"
    samples: int
    probes: int
    seed: int
    card_v12: int
    margin: float
    condition: str | None = None
    witness_cards: tuple[int, int, int, int] | None = None
    witness_pmf: tuple[float, ...] | None = None

    @property
    def falsified(self) -> bool:
        return self.status == "falsified"

    def witness(self) -> V12Joint | None:
        if self.witness_pmf is None:
            return None
        return V12Joint(
            self.witness_cards,
            np.array(self.witness_pmf).reshape(self.witness_cards),
        )

    def to_dict(self) -> dict:
        doc = asdict(self)
        for key in ("witness_cards", "witness_pmf"):
            if doc[key] is not None:
                doc[key] = list(doc[key])
        return doc


@functools.lru_cache(maxsize=8)
def _falsifier_probes(cards: tuple[int, int, int, int]) -> tuple[np.ndarray, ...]:
    """Degenerate joints that make premise violations hand-checkable:
    read-only, and held for the last eight cards tuples, so a process
    builds them once per cards."""
    cx1, cv12, cx2, cx3 = cards
    wired = [
        d for base in input_corners((cx1, cx2, cx3)) for d in wire_v12(base, cv12)
    ]
    probes = _distinct(wired + [np.full(cards, 1.0 / int(np.prod(cards)))])
    for probe in probes:
        probe.setflags(write=False)
    return tuple(probes)


def _falsified(cfg, cards, probes, flat, gap_a, gap_b) -> HiRegimeReport:
    """Falsified report with witness ``flat`` and its premise gaps."""
    return HiRegimeReport(
        status="falsified",
        samples=cfg.num_samples,
        probes=probes,
        seed=cfg.seed,
        card_v12=cards[1],
        margin=float(max(gap_a, gap_b)),
        condition=CONDITION_A if gap_a >= gap_b else CONDITION_B,
        witness_cards=cards,
        witness_pmf=tuple(float(v) for v in flat),
    )


def hi_regime_falsify(channel: ChannelSpec, cfg: SearchConfig) -> HiRegimeReport:
    """Search for a distribution violating the high-interference premise.

    A falsified report carries the witness and which inequality failed; a
    no-violation report is evidence from the declared search effort, not
    proof of class membership.
    """
    cards = v12_cards(channel, cfg)
    corners = _falsifier_probes(cards)
    probes = len(corners)
    flats = sample_pool(cards, cfg, corners)
    gap_a, gap_b = law_bounds(_gaps, flats, cards, channel, V12_AXES).T
    worst = np.maximum(gap_a, gap_b)
    i = next(iter(np.flatnonzero(worst > VIOLATION_TOL)), None)
    if i is not None:
        return _falsified(cfg, cards, probes, flats[i], gap_a[i], gap_b[i])

    # no direct hit: walk the best starts (ties to the larger other gap, as
    # constant-v12 probes tie on a gap_b = 0 plateau) uphill together and
    # take the first, in start order, that crosses the tolerance
    def evaluate(rows: np.ndarray, take: np.ndarray, owner: np.ndarray) -> np.ndarray:
        return np.max(law_bounds(_gaps, rows, cards, channel, V12_AXES), axis=-1)[take]

    order = np.lexsort((-np.minimum(gap_a, gap_b), -worst))[:REFINE_STARTS]
    values, refined = lockstep_ascent(flats[order], worst[order], evaluate)
    i = next(iter(np.flatnonzero(values > VIOLATION_TOL)), None)
    if i is not None:
        ((ga, gb),) = law_bounds(_gaps, refined[i:i + 1], cards, channel, V12_AXES)
        return _falsified(cfg, cards, probes, refined[i], ga, gb)

    return HiRegimeReport(
        status="no-violation-found",
        samples=cfg.num_samples,
        probes=probes,
        seed=cfg.seed,
        card_v12=cards[1],
        margin=float(max([np.max(worst), *values])),
    )


# ---------------------------------------------------------------------------
# sampled capacity regions

def capacity_degraded_z(
    channel: ChannelSpec, cfg: SearchConfig
) -> tuple[Region2D, np.ndarray]:
    """Sampled capacity region of a degraded Z-geometry channel.

    Returns the polygon union and the laws whose polygons entered it, as
    the (rows, n) array of flat laws over (|X1|, |X2|, |X3|) it scored, so
    callers can replay the same sample set elsewhere.
    """
    _require_degraded_z(channel)
    cards = channel.cards[:3]
    check_ascent_budget(cards, channel)

    def caps_of(rows: np.ndarray):
        return law_bounds(degraded_z_bounds, rows, cards, channel, INPUT_AXES).T

    pool = sample_pool(cards, cfg, input_corners(cards))
    _, rows = fan_search(pool, caps_of, cfg)
    caps = caps_of(rows)
    # the hull of the union is the hull of every row's corners
    region = region_from_vertices(cap_vertices(*caps).reshape(-1, 2))
    return region, rows


def capacity_semidet_hi(
    channel: ChannelSpec,
    cfg: SearchConfig,
    force: bool = False,
) -> tuple[Region2D, HiRegimeReport, np.ndarray]:
    """Sampled capacity region of a semi-deterministic hi-regime channel.

    Runs the premise falsifier first and refuses falsified channels unless
    forced.  Every evaluated distribution is re-screened against the
    premise, and the formula's caps are checked against the full five-bound
    reduced caps at each of them (the two extra bounds must be redundant
    wherever the premise holds).  Returns the region, the falsifier's
    report and the evaluated laws as the (rows, n) array of flat laws over
    ``v12_cards`` it scored.
    """
    _require_semidet(channel)
    report = hi_regime_falsify(channel, cfg)
    if report.falsified and not force:
        raise HiRegimeFalsified(
            f"high-interference premise falsified: {report.condition} "
            f"fails by {report.margin:.6g}",
            report,
        )

    cards = v12_cards(channel, cfg)

    def caps_of(rows: np.ndarray):
        return law_bounds(semidet_hi_bounds, rows, cards, channel, V12_AXES).T

    pool = sample_pool(cards, cfg, _corner_joints(cards))
    _, rows = fan_search(pool, caps_of, cfg)

    def screen(info) -> np.ndarray:
        """Per row: the formula's three caps, summed first as in
        ``caps_of``, the two premise gaps, then the five reduced terms."""
        parts = (semidet_hi_bounds(info), _gaps(info), _reduced_terms_y2(info))
        return np.concatenate(parts, axis=-1)

    table = law_bounds(screen, rows, cards, channel, V12_AXES).T
    caps, (gap_a, gap_b), terms = table[:3], table[3:5], table[5:]
    worst = np.maximum(gap_a, gap_b)
    i = next(iter(np.flatnonzero(worst > VIOLATION_TOL)), None)
    if not force and i is not None:
        late = _falsified(cfg, cards, report.probes, rows[i], gap_a[i], gap_b[i])
        raise HiRegimeFalsified(
            "high-interference premise falsified during region sampling: "
            f"{late.condition} fails by {late.margin:.6g}",
            late,
        )

    # under the premise the reduced caps equal the formula's (v2 = y2):
    # delta >= m makes the R2 cap h2, and premise A makes a + h2 - m the
    # smaller sum cap, which is a + H(Y2|X1,V12,X3)
    off = np.abs(np.array(_reduced_caps(*terms)) - caps).max(axis=0)
    bad = np.flatnonzero((worst <= VIOLATION_TOL) & (off > DROP_CONSISTENCY_TOL))
    if bad.size:
        raise NumericsError(
            f"dropping the premise-redundant bounds changed a cap at sample {bad[0]}"
        )
    region = region_from_vertices(cap_vertices(*caps).reshape(-1, 2))
    return region, report, rows
