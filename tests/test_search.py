"""The shared sampled-search path against the formulas it replaced.

Each reference below is the per-class code the searches used before they
shared ``InputLaw``, ``sample_pool``, the corner helpers, the lockstep
ascent and the ``Information`` evaluators; the shared path must reproduce
it bit for bit, except the information terms: those sum each marginal
from a smaller held one, not from the full tensor, or come from the law
and q = sum over x2 of p * T without the lift (``Information.of_laws``),
and must stay within 1e-12 bits of the references on the lifted tensor.
"""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cifc_udc import capacity, outer, pmf
from cifc_udc.capacity import (
    INPUT_AXES,
    VIOLATION_TOL,
    HiRegimeReport,
    InputJoint,
    V12V2Joint,
    _falsified,
    _gaps,
    _reduced_terms_v2,
    _reduced_terms_y2,
    _falsifier_probes,
    capacity_degraded_z,
    capacity_semidet_hi,
    degraded_z_bounds,
    hi_regime_falsify,
    semidet_hi_bounds,
)
from cifc_udc.channel import ChannelSpec, load_channel
from cifc_udc.errors import (
    CardinalityMismatch,
    MissingVariable,
    NumericsError,
    ShapeMismatch,
    UnknownLabel,
)
from cifc_udc.outer import (
    V12_AXES,
    InputLaw,
    SearchConfig,
    V12Joint,
    _caps,
    _corner_joints,
    _project_rows,
    fan_directions,
    fan_search,
    five_bounds,
    input_corners,
    law_bounds,
    lockstep_ascent,
    sample_pool,
    support_of_caps,
    v12_cards,
)
from cifc_udc.pmf import Information, clip_information
from _law_reference import bumped, lift, reduce_v12, same_bytes, unique_rows

CHANNELS = Path(__file__).resolve().parents[1] / "channels"


def noisy_channel(cards, seed):
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(cards[3] * cards[4]), size=cards[:3])
    return ChannelSpec(cards, rows.reshape(cards))


# ------------------------------------------------------------ references

def ref_product_corners(cards):
    margins = []
    for card in cards:
        point = np.zeros(card)
        point[0] = 1.0
        margins.append((np.full(card, 1.0 / card), point))
    corners, seen = [], set()
    for m1 in margins[0]:
        for m2 in margins[1]:
            for m3 in margins[2]:
                d = np.einsum(m1, [0], m2, [1], m3, [2], [0, 1, 2])
                key = d.tobytes()
                if key not in seen:
                    seen.add(key)
                    corners.append(d)
    return corners


def ref_corner_joints(cards):
    cx1, cv12, cx2, cx3 = cards
    u1 = np.full(cx1, 1.0 / cx1)
    u2 = np.full(cx2, 1.0 / cx2)
    u3 = np.full(cx3, 1.0 / cx3)
    base = np.einsum(u1, [0], u2, [2], u3, [3], [0, 2, 3])
    out = [np.full(cards, 1.0 / int(np.prod(cards)))]

    def with_v12(rule):
        d = np.zeros(cards)
        for x1 in range(cx1):
            for x2 in range(cx2):
                d[x1, rule(x1, x2) % cv12, x2, :] = base[x1, x2, :]
        return d

    out.append(with_v12(lambda x1, x2: 0))
    out.append(with_v12(lambda x1, x2: x1))
    out.append(with_v12(lambda x1, x2: x2))
    out.append(with_v12(lambda x1, x2: x1 * cx2 + x2))
    return out


def ref_falsifier_probes(cards):
    cx1, cv12, cx2, cx3 = cards
    margins = []
    for card in (cx1, cx2, cx3):
        point = np.zeros(card)
        point[0] = 1.0
        margins.append((np.full(card, 1.0 / card), point))
    rules = (
        lambda x1, x2: 0,
        lambda x1, x2: x1,
        lambda x1, x2: x2,
        lambda x1, x2: x1 * cx2 + x2,
    )
    probes, seen = [], set()
    for m1 in margins[0]:
        for m2 in margins[1]:
            for m3 in margins[2]:
                base = np.einsum(m1, [0], m2, [1], m3, [2], [0, 1, 2])
                for rule in rules:
                    d = np.zeros(cards)
                    for x1 in range(cx1):
                        for x2 in range(cx2):
                            d[x1, rule(x1, x2) % cv12, x2, :] = base[x1, x2, :]
                    key = d.tobytes()
                    if key not in seen:
                        seen.add(key)
                        probes.append(d)
    uniform = np.full(cards, 1.0 / int(np.prod(cards)))
    if uniform.tobytes() not in seen:
        probes.append(uniform)
    return probes


def ref_pool(law, cards, cfg, corners, extra=()):
    pool = list(corners)
    for i in range(cfg.num_samples):
        rng = np.random.default_rng([cfg.seed, i])
        pool.append(law.random(cards, rng).pmf)
    pool.extend(d.pmf for d in extra)
    return np.stack([p.reshape(-1) for p in pool], axis=0)


# ------------------------------------------------------------------ lift

CHANNEL_CARDS = [(2, 2, 2, 2, 2), (3, 2, 1, 2, 3), (2, 3, 2, 3, 2)]


@pytest.mark.parametrize("ch_cards", CHANNEL_CARDS)
def test_lift_matches_the_replaced_formulas(ch_cards):
    ch = noisy_channel(ch_cards, seed=sum(ch_cards))
    t = ch.transition
    cx1, cx2, cx3 = ch_cards[:3]
    rng = np.random.default_rng(11)

    d3 = InputJoint.random((cx1, cx2, cx3), rng)
    assert np.array_equal(lift(d3.pmf, d3.cards, ch)[0], d3.pmf[..., None, None] * t)

    d4 = V12Joint.random((cx1, 3, cx2, cx3), rng)
    assert np.array_equal(
        lift(d4.pmf, d4.cards, ch)[0],
        np.einsum(d4.pmf, [0, 1, 2, 3], t, [0, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5]),
    )

    d5 = V12V2Joint.random((cx1, 2, 3, cx2, cx3), rng)
    assert np.array_equal(
        lift(d5.pmf, d5.cards, ch)[0],
        np.einsum(
            d5.pmf, [0, 1, 2, 3, 4], t, [0, 3, 4, 5, 6], [0, 1, 2, 3, 4, 5, 6]
        ),
    )

    # batched: the searches' flat rows
    rows3 = np.stack([InputJoint.random(d3.cards, rng).pmf.reshape(-1)
                      for _ in range(4)])
    old3 = rows3.reshape((-1,) + d3.cards)[..., None, None] * t
    assert np.array_equal(lift(rows3, d3.cards, ch), old3)
    rows4 = np.stack([V12Joint.random(d4.cards, rng).pmf.reshape(-1)
                      for _ in range(4)])
    old4 = np.einsum(
        rows4.reshape((-1,) + d4.cards), [6, 0, 1, 2, 3],
        t, [0, 2, 3, 4, 5], [6, 0, 1, 2, 3, 4, 5],
    )
    assert np.array_equal(lift(rows4, d4.cards, ch), old4)


def test_lift_checks_cardinalities():
    # the reference lift and the library's law_bounds take the same check
    ch = noisy_channel((2, 2, 2, 2, 2), seed=1)
    rows = np.full((1, 8), 1 / 8)
    with pytest.raises(CardinalityMismatch):
        lift(rows, (2, 2, 2, 1), ch)
    with pytest.raises(CardinalityMismatch):
        law_bounds(five_bounds, rows, (2, 2, 2, 1), ch, V12_AXES)
    with pytest.raises(CardinalityMismatch):
        law_bounds(degraded_z_bounds, np.full((1, 12), 1 / 12), (2, 3, 2), ch, INPUT_AXES)


def test_input_law_takes_any_number_of_auxiliaries():
    ch = noisy_channel((2, 2, 2, 2, 2), seed=2)
    d = InputLaw.random((2, 3, 2, 2, 2, 2), np.random.default_rng(4))
    j = lift(d.pmf, d.cards, ch)
    assert j.shape == (1, 2, 3, 2, 2, 2, 2, 2, 2)
    assert np.allclose(j.sum(axis=(7, 8))[0], d.pmf)
    labels = "x1 a b c x2 x3 y1 y2"
    groups = ("x1 a y1", "b x3 y1 y2", "x1 c x2 x3 y2", "x1 a b c x2 x3 y1 y2")
    table = Information.of_laws(d.pmf[None], d.cards, labels, ch)
    assert_close_terms(tuple(table.h(*groups)), tuple(Information(j, labels).h(*groups)))


# ------------------------------------------------------------------ pool

V12_CARDS = [(2, 4, 2, 2), (2, 1, 2, 2), (3, 2, 1, 2), (1, 3, 2, 1)]


@pytest.mark.parametrize("cards", V12_CARDS)
def test_corner_sets_match_the_replaced_loops(cards):
    for new, old in (
        (_corner_joints(cards), ref_corner_joints(cards)),
        (_falsifier_probes(cards), ref_falsifier_probes(cards)),
        (input_corners((cards[0], cards[2], cards[3])),
         ref_product_corners((cards[0], cards[2], cards[3]))),
    ):
        assert len(new) == len(old)
        for a, b in zip(new, old):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("cards", V12_CARDS)
@pytest.mark.parametrize("with_corners", [True, False])
def test_sample_pool_matches_the_replaced_loops(cards, with_corners):
    cfg = SearchConfig(seed=5, num_samples=6)
    cards3 = (cards[0], cards[2], cards[3])
    for law, law_cards, corners in (
        (V12Joint, cards, ref_corner_joints(cards)),
        (V12Joint, cards, ref_falsifier_probes(cards)),
        (InputJoint, cards3, ref_product_corners(cards3)),
    ):
        corners = corners if with_corners else []
        got = sample_pool(law_cards, cfg, corners)
        assert np.array_equal(got, ref_pool(law, law_cards, cfg, corners))
    extra = (V12Joint.uniform(cards),)
    got = sample_pool(cards, cfg, ref_corner_joints(cards), extra)
    want = ref_pool(V12Joint, cards, cfg, ref_corner_joints(cards), extra)
    assert np.array_equal(got, want)


def test_sample_pool_guards():
    cards = (2, 2, 2, 2)
    with pytest.raises(CardinalityMismatch):
        sample_pool(cards, SearchConfig(), _corner_joints(cards),
                    (V12Joint.uniform((2, 3, 2, 2)),))


# ---------------------------------------------------------- lockstep ascent
# references: the sequential ascent, fan loop and early-exit falsifier that
# ran one walk at a time before the walks moved in lockstep

def ref_ascent_refine(start, evaluate, step=0.05, sweeps=50):
    x = np.asarray(start, dtype=float).reshape(-1).copy()
    n = x.size
    current = float(evaluate(x[None, :])[0])
    for _ in range(sweeps):
        candidates = _project_rows(x[None, :] + step * np.eye(n))
        values = evaluate(candidates)
        best = int(np.argmax(values >= np.max(values) - 1e-12))
        if values[best] > current + 1e-12:
            x = candidates[best]
            current = float(values[best])
        else:
            step *= 0.5
            if step < 1e-3:
                break
    return current, x


def fan_result(flats, per_direction):
    """(heights, rows) of a fan search from its per-direction
    (best pool support, [(start, reached, end) of each ascent])."""
    heights = np.array([max([best] + [reached for _, reached, _ in ascents])
                        for best, ascents in per_direction])
    rows = np.stack(list(flats) + [
        end for _, ascents in per_direction
        for start, reached, end in ascents if reached > start + outer.ASCENT_GAIN
    ])
    return heights, rows


def ref_fan_ascents(flats, caps_of, cfg):
    r1, r2, s = caps_of(flats)
    out = []
    for lam in fan_directions(cfg.fan):
        supports = support_of_caps(r1, r2, s, lam)
        ascents = []

        def evaluate(rows):
            return support_of_caps(*caps_of(rows), lam)

        order = np.argsort(-supports, kind="stable")[: outer.REFINE_STARTS]
        for idx in order:
            reached, row = ref_ascent_refine(
                flats[int(idx)], evaluate, outer.REFINE_STEP, outer.REFINE_SWEEPS
            )
            ascents.append((float(supports[int(idx)]), reached, row))
        out.append((float(np.max(supports)), ascents))
    return fan_result(flats, out)


def gaps_of(rows, cards, channel):
    """The premise gaps of the laws ``rows``, as the falsifier scores them."""
    return tuple(law_bounds(_gaps, rows, cards, channel, V12_AXES).T)


def ref_hi_regime_falsify(channel, cfg):
    cards = v12_cards(channel, cfg)
    corners = _falsifier_probes(cards)
    probes = len(corners)
    flats = sample_pool(cards, cfg, corners)
    gap_a, gap_b = gaps_of(flats, cards, channel)
    worst = np.maximum(gap_a, gap_b)

    for i in range(flats.shape[0]):
        if worst[i] > VIOLATION_TOL:
            return _falsified(cfg, cards, probes, flats[i], gap_a[i], gap_b[i])

    def evaluate(rows):
        return np.maximum(*gaps_of(rows, cards, channel))

    best_margin = float(np.max(worst))
    # best worst gap first, ties to the larger other gap, then pool order
    order = sorted(range(flats.shape[0]),
                   key=lambda i: (-worst[i], -min(gap_a[i], gap_b[i])))
    order = order[: capacity.REFINE_STARTS]
    for idx in order:
        value, refined = ref_ascent_refine(
            flats[int(idx)], evaluate, outer.REFINE_STEP, outer.REFINE_SWEEPS
        )
        best_margin = max(best_margin, value)
        if value > VIOLATION_TOL:
            ga, gb = gaps_of(refined[None, :], cards, channel)
            return _falsified(cfg, cards, probes, refined, ga[0], gb[0])

    return HiRegimeReport(
        status="no-violation-found",
        samples=cfg.num_samples,
        probes=probes,
        seed=cfg.seed,
        card_v12=cards[1],
        margin=best_margin,
    )


def fixture(name):
    return load_channel((CHANNELS / f"{name}.json").read_text())


# a seeded dense channel at |X| = (3,3,2,3,3) and the benchmark's outer search
# on such a channel: n = 54, so a block of 2^14 entries holds 5 of its 15
# walks, and the default block all of them
DENSE_CFG = SearchConfig(seed=3, num_samples=10, card_v12=3, fan=3)


def search_of(name, cfg):
    """Pool and caps of the search that runs on a fixture channel, or of
    the outer search on the "dense" channel."""
    ch = noisy_channel((3, 3, 2, 3, 3), seed=25) if name == "dense" else fixture(name)
    if name == "degraded_z":
        cards = ch.cards[:3]
        pool = sample_pool(cards, cfg, input_corners(cards))

        def caps_of(rows):
            return tuple(law_bounds(degraded_z_bounds, rows, cards, ch, INPUT_AXES).T)
    elif name == "hi_in_class":
        cards = v12_cards(ch, cfg)
        pool = sample_pool(cards, cfg, _corner_joints(cards))

        def caps_of(rows):
            return tuple(law_bounds(semidet_hi_bounds, rows, cards, ch, V12_AXES).T)
    else:
        cards = v12_cards(ch, cfg)
        pool = sample_pool(cards, cfg, _corner_joints(cards))

        def caps_of(rows):
            return _caps(law_bounds(five_bounds, rows, cards, ch, V12_AXES))
    return pool, caps_of


def assert_same_fan(got, want):
    """Two (heights, rows) fan-search results agree bit for bit."""
    (heights, rows), (ref_heights, ref_rows) = got, want
    assert np.array_equal(heights, ref_heights)
    assert np.array_equal(rows, ref_rows)


def assert_same_report(got, want):
    assert got == want
    assert got.to_dict() == want.to_dict()


def quantized_targets(rows, take, owner, targets):
    """Squared distance of each walk's rows to its target, rounded so that
    ties and stalls happen: the ``lockstep_ascent`` callback."""
    return np.round(-np.sum((rows[take] - targets[owner][:, None]) ** 2, axis=-1), 3)


def start_values(starts, evaluate):
    """Each start's score by the ``lockstep_ascent`` callback ``evaluate``,
    one walk per start."""
    walks = np.arange(len(starts))
    return evaluate(starts, walks[:, None], walks)[:, 0]


def one_walk(targets, w):
    """The ``ref_ascent_refine`` score of walk ``w``'s rows."""
    return lambda r: quantized_targets(r, np.arange(len(r))[None], np.array([w]), targets)[0]


@pytest.mark.parametrize("walks,n,sweeps", [(1, 3, 50), (7, 5, 50),
                                            (40, 8, 50), (13, 6, 3), (5, 4, 0)])
def test_lockstep_ascent_matches_sequential_walks(walks, n, sweeps, monkeypatch):
    rng = np.random.default_rng(walks * 100 + n)
    starts = rng.dirichlet(np.ones(n), size=walks)
    targets = rng.dirichlet(np.full(n, 0.5), size=walks)
    # each start twice more, shuffled: once chasing a new target, so that
    # walks share a point and a step but not a target, and once its own,
    # so that two walks share every sweep
    again = rng.permutation(walks)
    starts = np.concatenate([starts, starts[again], starts[again]])
    targets = np.concatenate([
        targets, rng.dirichlet(np.full(n, 0.5), size=walks), targets[again]])
    monkeypatch.setattr(outer, "REFINE_SWEEPS", sweeps)
    for step in (0.05, 0.3):
        monkeypatch.setattr(outer, "REFINE_STEP", step)
        def evaluate(r, t, o):
            return quantized_targets(r, t, o, targets)

        values, rows = lockstep_ascent(starts, start_values(starts, evaluate), evaluate)
        assert values.shape == (3 * walks,) and rows.shape == (3 * walks, n)
        for w in range(3 * walks):
            ref_value, ref_row = ref_ascent_refine(
                starts[w], one_walk(targets, w), step, sweeps
            )
            assert values[w] == ref_value
            assert np.array_equal(rows[w], ref_row)


def test_walks_apart_by_the_sign_of_a_zero_share_no_rows():
    # walk 1 starts at walk 0's point but for a -0.0 in place of a 0.0; walk
    # 2 starts at walk 0's point exactly
    starts = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, -0.0], [0.5, 0.5, 0.0]])
    targets = np.array([[0.2, 0.3, 0.5], [0.2, 0.3, 0.5], [0.6, 0.1, 0.3]])
    calls = []

    def evaluate(rows, take, owner):
        calls.append((rows.copy(), take.copy(), owner.copy()))
        return quantized_targets(rows, take, owner, targets)

    values = start_values(starts, lambda r, t, o: quantized_targets(r, t, o, targets))
    values, ends = lockstep_ascent(starts, values, evaluate)
    # the first sweep: walk 2 reads walk 0's rows, walk 1 rows of its own,
    # the bump of its point; walk w's rows are those of its entry in owner
    rows, take, owner = calls[0]
    take = take[np.argsort(owner)]
    assert np.array_equal(take[2], take[0])
    assert not set(take[1].tolist()) & set(take[0].tolist())
    assert same_bytes(rows[take[1]], bumped(starts[1:2], np.array([outer.REFINE_STEP])))
    for w in range(3):
        ref_value, ref_row = ref_ascent_refine(starts[w], one_walk(targets, w))
        assert values[w] == ref_value
        assert same_bytes(ends[w], ref_row)


def test_lockstep_ascent_without_walks():
    values, rows = lockstep_ascent(np.empty((0, 4)), np.empty(0), None)
    assert values.shape == (0,) and rows.shape == (0, 4)


def test_ascent_ties_go_to_the_first_candidate():
    # bumping x1 or x2 scores the same: the walk takes x1 each time, and a
    # 1e-15 nudge toward x2 candidates, far below ASCENT_GAIN, changes nothing
    def tied(rows, take, owner):
        return (rows[:, 1] + rows[:, 2])[take]

    def nudged(rows, take, owner):
        return (rows[:, 1] + rows[:, 2] + 1e-15 * (rows[:, 2] > rows[:, 1]))[take]

    start = np.full((1, 3), 1 / 3)
    values, ends = lockstep_ascent(start, start_values(start, tied), tied)
    assert np.array_equal(ends, [[0.0, 1.0, 0.0]])
    nudged_values, nudged_ends = lockstep_ascent(start, start_values(start, nudged), nudged)
    assert np.array_equal(nudged_ends, ends)
    assert np.array_equal(nudged_values, values)


# each a config and the search-effort constants it patches into ``outer``
FAN_CFGS = [
    (SearchConfig(seed=3, num_samples=5, fan=8), {}),
    (SearchConfig(seed=11, num_samples=3, fan=5),
     {"REFINE_STARTS": 2, "REFINE_SWEEPS": 7, "REFINE_STEP": 0.2}),
    (SearchConfig(seed=1, num_samples=2, fan=3), {"REFINE_SWEEPS": 0}),
]


@pytest.mark.parametrize("name", ["clean", "degraded_z", "hi_in_class"])
@pytest.mark.parametrize("cfg", FAN_CFGS)
def test_fan_ascents_match_the_per_direction_loop(name, cfg, monkeypatch):
    cfg, constants = cfg
    for constant, value in constants.items():
        monkeypatch.setattr(outer, constant, value)
    pool, caps_of = search_of(name, cfg)
    assert_same_fan(fan_search(pool, caps_of, cfg),
                    ref_fan_ascents(pool, caps_of, cfg))


def sparse_channel(seed, alpha):
    """A channel on which no corner violates the high-interference premise
    but ascents from some do, with the default SearchConfig."""
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.full(4, alpha), size=(2, 2, 1))
    return ChannelSpec((2, 2, 1, 2, 2), rows.reshape(2, 2, 1, 2, 2))


FALSIFIER_CASES = {
    "hi_falsified": lambda: fixture("hi_falsified"),
    "hi_degenerate": lambda: fixture("hi_degenerate"),
    "semidet": lambda: fixture("semidet"),
    # walks 0, 2, 3 and 4 cross the tolerance, walk 3 the farthest
    "ascent_hit_first": lambda: sparse_channel(23, 0.2),
    # only the last of the five walks crosses it
    "ascent_hit_last": lambda: sparse_channel(107, 0.2),
    # only walk 2 crosses it, from a probe that ties at a worst gap of 0
    # with probes whose gap_b = 0 plateau holds their walks
    "ascent_hit_tie": lambda: sparse_channel(9, 0.5),
}


# each a config and the number of ascent starts the falsifier takes
@pytest.mark.parametrize("case", sorted(FALSIFIER_CASES))
@pytest.mark.parametrize("cfg", [(SearchConfig(seed=3, num_samples=20), 5),
                                 (SearchConfig(seed=11, num_samples=2), 5),
                                 (SearchConfig(seed=0), 5),
                                 (SearchConfig(seed=0), 0)])
def test_falsifier_matches_the_early_exit_loop(case, cfg, monkeypatch):
    cfg, starts = cfg
    monkeypatch.setattr(capacity, "REFINE_STARTS", starts)
    ch = FALSIFIER_CASES[case]()
    assert_same_report(hi_regime_falsify(ch, cfg), ref_hi_regime_falsify(ch, cfg))


@pytest.mark.parametrize("case", ["ascent_hit_first", "ascent_hit_last", "ascent_hit_tie"])
def test_the_ascent_hit_cases_reach_their_witness_by_ascent(case):
    ch, cfg = FALSIFIER_CASES[case](), SearchConfig(seed=0)
    cards = v12_cards(ch, cfg)
    pool = sample_pool(cards, cfg, _falsifier_probes(cards))
    gap_a, gap_b = gaps_of(pool, cards, ch)
    assert np.max(np.maximum(gap_a, gap_b)) <= VIOLATION_TOL
    assert hi_regime_falsify(ch, cfg).falsified


def test_one_walk_per_block_matches_the_default_block(monkeypatch):
    cfg = SearchConfig(seed=3, num_samples=5, fan=8)
    cfgs = {"clean": cfg, "degraded_z": cfg, "hi_in_class": cfg, "dense": DENSE_CFG}
    pools = {name: search_of(name, c) for name, c in cfgs.items()}
    fans = {name: fan_search(pool, caps_of, cfgs[name])
            for name, (pool, caps_of) in pools.items()}
    reports = {case: hi_regime_falsify(make(), cfg)
               for case, make in FALSIFIER_CASES.items()}
    # one walk per block, and a fan split into blocks (5 walks of 15 on
    # "dense") at the block size before whole fans
    for cells in (1, 1 << 14):
        monkeypatch.setattr(outer, "_BLOCK_CELLS", cells)
        for name, (pool, caps_of) in pools.items():
            assert_same_fan(fan_search(pool, caps_of, cfgs[name]), fans[name])
        for case, make in FALSIFIER_CASES.items():
            assert_same_report(hi_regime_falsify(make(), cfg), reports[case])


@pytest.mark.parametrize("cells", [None, 1 << 14, 100])
@pytest.mark.parametrize("name", ["dense", "hi_in_class"])
def test_no_evaluation_holds_more_than_a_block(name, cells, monkeypatch):
    cfg = DENSE_CFG if name == "dense" else SearchConfig(seed=1, num_samples=20, fan=64)
    pool, caps_of = search_of(name, cfg)
    if cells is not None:
        monkeypatch.setattr(outer, "_BLOCK_CELLS", cells)
    n = pool.shape[1]
    sweeps = []

    def counting_ascent(starts, values, evaluate):
        def counted(rows, take, owner):
            # the candidate rows of a block's distinct walks, n entries each;
            # a sweep's blocks own disjoint walks, and a sweep's first block
            # owns a walk of the sweep before
            assert rows.shape[1] == n
            if not sweeps or sweeps[-1][1] & set(owner.tolist()):
                sweeps.append(([], set()))
            sweeps[-1][0].append(rows.size)
            sweeps[-1][1].update(owner.tolist())
            return evaluate(rows, take, owner)
        return lockstep_ascent(starts, values, counted)

    monkeypatch.setattr(outer, "lockstep_ascent", counting_ascent)
    fan_search(pool, caps_of, cfg)
    budget = max(outer._BLOCK_CELLS, n * n)
    # within the budget, and a sweep splits only into blocks that, but its
    # last, fill more than half of it
    sizes = [size for entries, _ in sweeps for size in entries]
    assert max(sizes) <= budget
    assert all(budget // 2 < size for entries, _ in sweeps for size in entries[:-1])
    # hi_in_class's fan has 11 distinct walks (1584 entries): it fills more
    # than half a block only at a block of one walk
    assert (budget // 2 < max(sizes)) == (name == "dense" or cells == 100)


def test_fan_supports_are_scored_a_chunk_at_a_time(monkeypatch):
    """With a block of one distinct walk, every support computation after
    the pool's holds at most max(``_BLOCK_CELLS``, n) entries, though a
    walk's key is shared by more than two walks, and no height moves."""
    cfg = SearchConfig(seed=1, num_samples=5, fan=16)
    pool, caps_of = search_of("clean", cfg)
    n = pool.shape[1]
    want = fan_search(pool, caps_of, cfg)
    sizes, support = [], outer.support_of_caps

    def recorded(r1, r2, s, direction):
        sizes.append(np.size(r1))
        return support(r1, r2, s, direction)

    monkeypatch.setattr(outer, "_BLOCK_CELLS", 2 * n)
    monkeypatch.setattr(outer, "support_of_caps", recorded)
    heights, rows = fan_search(pool, caps_of, cfg)
    assert len(sizes) > 1 and max(sizes[1:]) <= 2 * n
    assert heights.tobytes() == want[0].tobytes()
    assert rows.tobytes() == want[1].tobytes()


# the benchmark's fan searches: (search, config, walks x n x n entries)
BENCHMARK_FANS = [
    ("dense", DENSE_CFG, 15 * 54 ** 2),
    ("clean", SearchConfig(seed=1, num_samples=50, fan=8), 40 * 24 ** 2),
    ("degraded_z", SearchConfig(seed=1, num_samples=20), 320 * 8 ** 2),
    ("hi_in_class", SearchConfig(seed=1, num_samples=20), 320 * 12 ** 2),
]


@pytest.mark.parametrize("name,cfg,entries", BENCHMARK_FANS,
                         ids=[name for name, _, _ in BENCHMARK_FANS])
def test_each_benchmark_fan_runs_as_one_block(name, cfg, entries, monkeypatch):
    pool, caps_of = search_of(name, cfg)
    n = pool.shape[1]
    sizes, distinct = [], []

    def counting_ascent(starts, values, evaluate):
        distinct.append(len({row.tobytes() for row in starts}))

        def counted(rows, take, owner):
            sizes.append((take.size * n, rows.size))
            return evaluate(rows, take, owner)
        return lockstep_ascent(starts, values, counted)

    monkeypatch.setattr(outer, "lockstep_ascent", counting_ascent)
    fan_search(pool, caps_of, cfg)
    # at most one call per sweep, the first holding every walk and building
    # the candidates of each distinct start once
    assert len(sizes) <= outer.REFINE_SWEEPS
    assert sizes[0] == (entries, distinct[0] * n * n)
    assert distinct[0] * n * n < entries <= outer._BLOCK_CELLS


def distinct_row_cases():
    """Start points of every kind the walk keys must get right; "pieces"
    holds more rows than three projection pieces of the default size, and
    more walks than a block."""
    rng = np.random.default_rng(12)
    n = 6
    base = rng.integers(0, 3, size=(40, n)) / 4.0
    repeats = base[rng.integers(0, 40, size=300)]
    signed = repeats.copy()
    signed[(rng.random(signed.shape) < 0.3) & (signed == 0.0)] = -0.0
    nans = repeats.copy()
    nans[nans == 0.5] = np.nan
    many = np.repeat(base, outer._PIECE_CELLS // n // 10, axis=0)[
        rng.permutation(40 * (outer._PIECE_CELLS // n // 10))]
    return {
        "repeats": repeats,
        "minus-zero": signed,
        "nan": nans,
        "one-row": base[:1],
        "all-equal": np.repeat(base[:1], 50, axis=0),
        "no-rows": np.empty((0, n)),
        "pieces": many,
        "strided": repeats[::3, ::2],
    }


@pytest.mark.parametrize("cells", [None, 13])
@pytest.mark.parametrize("case", sorted(distinct_row_cases()))
def test_distinct_rows_are_those_of_np_unique(case, cells, monkeypatch):
    """The walks of a block that share rows in their first sweep are those
    of ``np.unique`` over the bytes of (point, step)."""
    rows = distinct_row_cases()[case]
    n = rows.shape[1]
    if case == "pieces":
        assert len(rows) > 3 * (outer._PIECE_CELLS // n)
        assert len(rows) > outer._BLOCK_CELLS // (n * n)
    if cells is not None:
        # projection pieces of a few rows
        monkeypatch.setattr(outer, "_PIECE_CELLS", cells)
    monkeypatch.setattr(outer, "REFINE_SWEEPS", 1)
    calls = []

    def record(points, take, owner):
        calls.append((points.copy(), take.copy(), owner.copy()))
        return np.zeros(take.shape)

    lockstep_ascent(rows, np.zeros(len(rows)), record)
    keys = np.column_stack([rows, np.full(len(rows), outer.REFINE_STEP)])
    assert len(calls) == -(-len(unique_rows(keys)[0]) // (outer._BLOCK_CELLS // (n * n)))
    for candidates, take, owner in calls:
        first, inverse = unique_rows(keys[owner])
        # the bump of each distinct walk's point, by the ascent's projection
        bump = rows[owner][first][:, None, :] + outer.REFINE_STEP * np.eye(n)
        assert same_bytes(candidates, outer._project_rows(bump.reshape(-1, n)))
        assert candidates.shape == (len(first) * n, n)
        assert np.array_equal(take, inverse[:, None] * n + np.arange(n))
        if case == "minus-zero":
            # -0.0 and 0.0 stay apart: more distinct walks than distinct floats
            assert len(first) > len(np.unique(rows[owner], axis=0))


def test_one_row_lift_chunk_matches_the_default_chunk(monkeypatch):
    cfg = SearchConfig(seed=3, num_samples=5, fan=8)
    pools = {name: search_of(name, cfg)
             for name in ("clean", "degraded_z", "hi_in_class")}
    fans = {name: fan_search(pool, caps_of, cfg)
            for name, (pool, caps_of) in pools.items()}
    reports = {case: hi_regime_falsify(make(), cfg)
               for case, make in FALSIFIER_CASES.items()}

    def regions():
        return [capacity_degraded_z(fixture("degraded_z"), cfg)[0],
                capacity_semidet_hi(fixture("hi_in_class"), cfg)[0]]

    chunked = regions()
    monkeypatch.setattr(outer, "_Q_CELLS", 1)
    for name, (pool, caps_of) in pools.items():
        assert_same_fan(fan_search(pool, caps_of, cfg), fans[name])
    for case, make in FALSIFIER_CASES.items():
        assert_same_report(hi_regime_falsify(make(), cfg), reports[case])
    for got, want in zip(regions(), chunked):
        assert got.halfplanes == want.halfplanes
        assert np.array_equal(got.vertices, want.vertices)


def ref_lockstep_fan(flats, caps_of, cfg):
    """``fan_search`` with an ``evaluate`` that scores every walk's
    candidates apart, sharing no row between walks."""
    directions = fan_directions(cfg.fan)
    supports = support_of_caps(*caps_of(flats), directions[:, None, :])
    order = np.argsort(-supports, axis=1, kind="stable")[:, :outer.REFINE_STARTS]
    lam = np.repeat(directions, order.shape[1], axis=0)

    def evaluate(rows, take, owner):
        caps = caps_of(rows[take].reshape(-1, rows.shape[1]))
        return support_of_caps(*(c.reshape(take.shape) for c in caps), lam[owner, None])

    starts = flats[order.reshape(-1)]
    reached, rows = lockstep_ascent(starts, start_values(starts, evaluate), evaluate)
    reached = reached.reshape(order.shape)
    rows = rows.reshape(order.shape + flats.shape[1:])
    return fan_result(flats, [
        (float(np.max(sup)), [(float(sup[i]), float(v), row)
                              for i, v, row in zip(idx, got, ends)])
        for sup, idx, got, ends in zip(supports, order, reached, rows)
    ])


@pytest.mark.parametrize("name", ["clean", "degraded_z", "hi_in_class"])
def test_shared_walk_scoring_matches_scoring_every_walk(name):
    cfg = SearchConfig(seed=1, num_samples=20, fan=64)
    pool, caps_of = search_of(name, cfg)
    assert_same_fan(fan_search(pool, caps_of, cfg),
                    ref_lockstep_fan(pool, caps_of, cfg))


def test_caps_of_sees_each_distinct_walk_once(monkeypatch):
    cfg = SearchConfig(seed=1, num_samples=20, fan=64)
    pool, caps_of = search_of("hi_in_class", cfg)
    n = pool.shape[1]
    calls, walk_rows = [], []

    def recording_caps(rows):
        calls.append(rows.copy())
        return caps_of(rows)

    def counting_ascent(starts, values, evaluate):
        def counted(rows, take, owner):
            walk_rows.append(take.size)
            return evaluate(rows, take, owner)
        return lockstep_ascent(starts, values, counted)

    monkeypatch.setattr(outer, "lockstep_ascent", counting_ascent)
    fan_search(pool, recording_caps, cfg)
    # the first call scores the pool and every later one an ascent evaluation:
    # the n candidates of each distinct walk
    assert calls[0].shape == pool.shape and len(calls) == len(walk_rows) + 1
    for rows, size in zip(calls[1:], [n] * len(calls)):
        assert len({rows[i:i + size].tobytes() for i in range(0, len(rows), size)}) * size == len(rows)
    assert sum(len(rows) for rows in calls[1:]) <= 0.25 * sum(walk_rows)


def test_no_evaluation_scores_a_start(monkeypatch):
    """The searches hand ``lockstep_ascent`` their starts' scores: every
    ``evaluate`` call scores the n candidates of its walks."""
    widths = []

    def counting_ascent(*args):
        # every argument but the last, evaluate, passes through as given
        *given, evaluate = args

        def counted(rows, take, owner):
            widths.append((take.shape[1], rows.shape[1]))
            return evaluate(rows, take, owner)
        return lockstep_ascent(*given, counted)

    monkeypatch.setattr(outer, "lockstep_ascent", counting_ascent)
    monkeypatch.setattr(capacity, "lockstep_ascent", counting_ascent)
    cfg = SearchConfig(seed=3, num_samples=5, fan=8)
    for name in ("clean", "degraded_z", "hi_in_class"):
        fan_search(*search_of(name, cfg), cfg)
    for case in ("ascent_hit_first", "ascent_hit_last", "ascent_hit_tie"):
        hi_regime_falsify(FALSIFIER_CASES[case](), SearchConfig(seed=0))
    assert widths and all(width == n for width, n in widths)


def test_caps_of_sees_the_same_rows_at_every_block_size(monkeypatch):
    """Every sweep keys all live walks at once, so the block size decides
    only how a sweep's candidates are split, not which rows are scored."""
    cfg = SearchConfig(seed=1, num_samples=20, fan=64)
    pool, caps_of = search_of("clean", cfg)
    n = pool.shape[1]
    seen = {}
    for cells in (1 << 16, 1 << 12, n * n):
        monkeypatch.setattr(outer, "_BLOCK_CELLS", cells)
        rows = []

        def recording_caps(batch):
            rows.extend(row.tobytes() for row in batch)
            return caps_of(batch)

        fan_search(pool, recording_caps, cfg)
        seen[cells] = sorted(rows)
    assert seen[1 << 12] == seen[1 << 16] and seen[n * n] == seen[1 << 16]


# ------------------------------------------------------- information terms
# references: the hand-indexed entropy tables the evaluators used before
# they named each bound as a mutual information through ``Information``;
# they sum every marginal from the full tensor

# largest bits an information term may move when summed along the lattice
LATTICE_TOL = 1e-12

_X1, _V12, _X2, _X3, _Y1, _Y2 = range(6)


def root_entropies(j, groups, ndim=6):
    """H of each group of axes of ``j`` (one extra leading axis a batch),
    each from a fresh ``Information`` table, so that every marginal sums
    straight from ``j``; shape (batch?, len(groups))."""
    names = [f"a{i}" for i in range(ndim)]
    return np.stack([
        Information(j, " ".join(names)).h(" ".join(names[a] for a in g))[0]
        for g in groups
    ], axis=-1)


def ref_five_bounds(j):
    groups = (
        (_X1, _X2, _X3),                 # 0
        (_Y1,),                          # 1
        (_X1, _X2, _X3, _Y1),            # 2
        (_X1, _V12, _X3),                # 3
        (_X1, _V12, _X3, _Y1),           # 4
        (_X1, _X3),                      # 5
        (_X1, _X2, _X3, _Y2),            # 6
        (_X1, _X3, _Y2),                 # 7
        (_X3,),                          # 8
        (_X3, _Y1, _Y2),                 # 9
        (_X1, _X2, _X3, _Y1, _Y2),       # 10
        (_X1, _V12, _X2, _X3),           # 11
        (_X1, _V12, _X3, _Y2),           # 12
        (_X1, _V12, _X2, _X3, _Y2),      # 13
    )
    h = root_entropies(j, groups)
    b1 = h[..., 0] + h[..., 1] - h[..., 2]
    b2 = h[..., 3] + h[..., 1] - h[..., 4]
    b3 = h[..., 0] + h[..., 7] - h[..., 5] - h[..., 6]
    b4 = h[..., 0] + h[..., 9] - h[..., 8] - h[..., 10]
    b5 = (
        h[..., 11] + h[..., 12] - h[..., 3] - h[..., 13]
        + h[..., 3] + h[..., 1] - h[..., 4]
    )
    return np.clip(np.stack([b1, b2, b3, b4, b5], axis=-1), 0.0, None)


def ref_degraded_z_bounds(j):
    groups = (
        (0, 2),            # 0: x1 x3
        (3,),              # 1: y1
        (0, 2, 3),         # 2: x1 x3 y1
        (0, 1, 2),         # 3: x1 x2 x3
        (0, 2, 4),         # 4: x1 x3 y2
        (0, 1, 2, 4),      # 5: x1 x2 x3 y2
        (2,),              # 6: x3
        (2, 4),            # 7: x3 y2
    )
    h = root_entropies(j, groups, ndim=5)
    a = h[..., 0] + h[..., 1] - h[..., 2]
    b = h[..., 3] + h[..., 4] - h[..., 0] - h[..., 5]
    c = h[..., 3] + h[..., 7] - h[..., 6] - h[..., 5]
    return np.clip(np.stack([a, b, c], axis=-1), 0.0, None)


def ref_semidet_hi_bounds(j):
    groups = (
        (0, 1, 3),         # 0: x1 v12 x3
        (4,),              # 1: y1
        (0, 1, 3, 4),      # 2: x1 v12 x3 y1
        (0, 3, 5),         # 3: x1 x3 y2
        (0, 3),            # 4: x1 x3
        (0, 1, 3, 5),      # 5: x1 v12 x3 y2
    )
    h = root_entropies(j, groups, ndim=6)
    a = h[..., 0] + h[..., 1] - h[..., 2]
    h2 = h[..., 3] - h[..., 4]
    hv = h[..., 5] - h[..., 0]
    return np.clip(np.stack([a, h2, a + hv], axis=-1), 0.0, None)


def ref_reduced_terms_v2(j):
    groups = (
        (0, 1, 4),         # 0: x1 v12 x3
        (5,),              # 1: y1
        (0, 1, 4, 5),      # 2: x1 v12 x3 y1
        (0, 4),            # 3: x1 x3
        (0, 4, 5),         # 4: x1 x3 y1
        (0, 2, 4),         # 5: x1 v2 x3
        (0, 4, 6),         # 6: x1 x3 y2
        (0, 2, 4, 6),      # 7: x1 v2 x3 y2
        (0, 1, 2, 4),      # 8: x1 v12 v2 x3
        (4,),              # 9: x3
        (4, 6),            # 10: x3 y2
    )
    h = root_entropies(j, groups, ndim=7)
    a = h[..., 0] + h[..., 1] - h[..., 2]
    delta = h[..., 0] + h[..., 4] - h[..., 3] - h[..., 2]
    b = h[..., 5] + h[..., 6] - h[..., 3] - h[..., 7]
    n = h[..., 0] + h[..., 5] - h[..., 3] - h[..., 8]
    k2 = h[..., 5] + h[..., 10] - h[..., 9] - h[..., 7]
    return np.clip(np.stack([a, b, delta, n, k2], axis=-1), 0.0, None)


def ref_reduced_terms_y2(j):
    groups = (
        (0, 1, 3),         # 0: x1 v12 x3
        (4,),              # 1: y1
        (0, 1, 3, 4),      # 2: x1 v12 x3 y1
        (0, 3),            # 3: x1 x3
        (0, 3, 4),         # 4: x1 x3 y1
        (0, 3, 5),         # 5: x1 x3 y2
        (0, 1, 3, 5),      # 6: x1 v12 x3 y2
        (3,),              # 7: x3
        (3, 5),            # 8: x3 y2
    )
    h = root_entropies(j, groups, ndim=6)
    a = h[..., 0] + h[..., 1] - h[..., 2]
    delta = h[..., 0] + h[..., 4] - h[..., 3] - h[..., 2]
    m = h[..., 0] + h[..., 5] - h[..., 3] - h[..., 6]
    h2 = h[..., 5] - h[..., 3]
    h3 = h[..., 8] - h[..., 7]
    return np.clip(np.stack([a, h2, delta, m, h3], axis=-1), 0.0, None)


def ref_violation_gaps(j):
    groups = (
        (0, 3),            # 0: x1 x3
        (3, 5),            # 1: x3 y2
        (3,),              # 2: x3
        (0, 3, 5),         # 3: x1 x3 y2
        (4,),              # 4: y1
        (0, 3, 4),         # 5: x1 x3 y1
        (0, 1, 3),         # 6: x1 v12 x3
        (0, 1, 3, 4),      # 7: x1 v12 x3 y1
        (0, 1, 3, 5),      # 8: x1 v12 x3 y2
    )
    h = root_entropies(j, groups, ndim=6)
    i_y2_x1 = h[..., 0] + h[..., 1] - h[..., 2] - h[..., 3]
    i_y1_x1x3 = h[..., 0] + h[..., 4] - h[..., 5]
    i_y1_v12 = h[..., 6] + h[..., 5] - h[..., 0] - h[..., 7]
    i_y2_v12 = h[..., 6] + h[..., 3] - h[..., 0] - h[..., 8]
    return np.stack([i_y1_x1x3 - i_y2_x1, i_y2_v12 - i_y1_v12], axis=-1)


# evaluator, its hand-indexed reference, and the axis count of its tensor;
# "violation_gaps" names the premise gaps, which _gaps scores for a table
EVALUATORS = {
    "five_bounds": (five_bounds, ref_five_bounds, 6),
    "degraded_z_bounds": (degraded_z_bounds, ref_degraded_z_bounds, 5),
    "semidet_hi_bounds": (semidet_hi_bounds, ref_semidet_hi_bounds, 6),
    "_reduced_terms_v2": (_reduced_terms_v2, ref_reduced_terms_v2, 7),
    "_reduced_terms_y2": (_reduced_terms_y2, ref_reduced_terms_y2, 6),
    "violation_gaps": (_gaps, ref_violation_gaps, 6),
}

# the axes each evaluator names, by the axis count of its tensor
AXES_OF = {5: INPUT_AXES, 6: V12_AXES, 7: "x1 v12 v2 x2 x3 y1 y2"}


def assert_close_terms(got, want):
    if not isinstance(want, tuple):
        got, want = (got,), (want,)
    assert isinstance(got, tuple) and len(got) == len(want)
    for g, w in zip(got, want):
        assert np.shape(g) == np.shape(w)
        assert np.max(np.abs(g - w), initial=0.0) <= LATTICE_TOL


def fixture_lifts(ndim):
    """Batched lifts of seeded pools, corners first, on every fixture."""
    for path in sorted(CHANNELS.glob("*.json")):
        ch = load_channel(path.read_text())
        cx1, cx2, cx3 = ch.cards[:3]
        if ndim == 5:
            cards = (cx1, cx2, cx3)
            corners = input_corners(cards)
        elif ndim == 6:
            cards = (cx1, 3, cx2, cx3)
            corners = _corner_joints(cards)
        else:
            cards = (cx1, 2, 3, cx2, cx3)
            corners = [np.full(cards, 1.0 / int(np.prod(cards)))]
        cfg = SearchConfig(seed=7, num_samples=6)
        yield lift(sample_pool(cards, cfg, corners), cards, ch)


def random_tensors(ndim, seed):
    """Seeded joint tensors with about a third of their cells zero."""
    rng = np.random.default_rng(seed)
    shape = tuple(rng.integers(1, 4, size=ndim))
    batch = rng.dirichlet(np.ones(int(np.prod(shape))), size=4)
    batch[rng.random(batch.shape) < 0.35] = 0.0
    batch[:, 0] += 1e-3  # no row is all zero
    batch /= batch.sum(axis=1, keepdims=True)
    return batch.reshape((4,) + shape)


@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_information_evaluators_match_the_hand_indexed_tables(name):
    evaluate, reference, ndim = EVALUATORS[name]
    stacks = list(fixture_lifts(ndim))
    stacks += [random_tensors(ndim, seed) for seed in range(6)]
    for stack in stacks:
        for j in [stack, *stack]:
            assert_close_terms(evaluate(Information(j, AXES_OF[ndim])), reference(j))


def sparse(rng, size, count):
    """``count`` laws over ``size`` cells: dense, with zero cells, or one
    point mass, as the rng picks."""
    laws = rng.dirichlet(np.full(size, 0.7), size=count)
    laws[rng.random(laws.shape) < 0.3] = 0.0
    laws[np.arange(count), rng.integers(size, size=count)] += 1e-3
    points = rng.random(count) < 0.25
    laws[points] = np.eye(size)[rng.integers(size, size=int(points.sum()))]
    return laws / laws.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("name", sorted(EVALUATORS))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       ch_cards=st.tuples(*[st.integers(1, 3)] * 5),
       aux=st.tuples(st.integers(1, 3), st.integers(1, 3)))
def test_law_table_matches_the_lifted_table(name, seed, ch_cards, aux):
    """Each evaluator on ``Information.of_laws`` against the same evaluator
    on the lifted tensor, over cards of 1, laws with zero cells and point
    masses, and channels with zero transitions."""
    evaluate, _, ndim = EVALUATORS[name]
    rng = np.random.default_rng(seed)
    ch = ChannelSpec(ch_cards, sparse(rng, ch_cards[3] * ch_cards[4],
                                      math.prod(ch_cards[:3])).reshape(ch_cards))
    cx1, cx2, cx3 = ch_cards[:3]
    cards = (cx1, *aux[:ndim - 5], cx2, cx3)
    rows = sparse(rng, math.prod(cards), int(rng.integers(1, 5)))
    table = Information.of_laws(rows, cards, AXES_OF[ndim], ch)
    want = evaluate(Information(lift(rows, cards, ch), AXES_OF[ndim]))
    assert_close_terms(evaluate(table), want)


# derandomized: the largest move of p(x1,x2,x3) over 20000 random laws was
# 4.4e-16, near enough the 1e-15 bound that fresh draws should not gate a run
@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       ch_cards=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 2),
                          st.integers(1, 3), st.integers(1, 3)),
       surplus=st.integers(1, 4))
def test_v12_reduces_to_x2_plus_two_symbols_keeping_every_term(seed, ch_cards, surplus):
    """The per-slice Carathéodory reduction takes a law with |V12| > |X2| + 2
    to |X2| + 2 symbols; every V12 evaluator's terms stay within 1e-12 and
    p(x1, x2, x3) within 1e-15, so a search at that size loses nothing."""
    rng = np.random.default_rng(seed)
    ch = ChannelSpec(ch_cards, sparse(rng, ch_cards[3] * ch_cards[4],
                                      math.prod(ch_cards[:3])).reshape(ch_cards))
    cx1, cx2, cx3 = ch_cards[:3]
    cards = (cx1, cx2 + 2 + surplus, cx2, cx3)
    law = V12Joint(cards, sparse(rng, math.prod(cards), 1).reshape(cards))
    reduced = reduce_v12(law, ch)
    assert reduced.cards == (cx1, cx2 + 2, cx2, cx3)
    assert np.max(np.abs(reduced.pmf.sum(axis=1) - law.pmf.sum(axis=1))) <= 1e-15
    for evaluate in (five_bounds, semidet_hi_bounds, _gaps, _reduced_terms_y2):
        before, after = (law_bounds(evaluate, d.pmf.reshape(1, -1), d.cards, ch, V12_AXES)
                         for d in (law, reduced))
        assert np.max(np.abs(after - before)) <= 1e-12, evaluate.__name__


def test_law_table_groups_without_a_source_raise():
    ch = noisy_channel((2, 2, 2, 2, 2), seed=6)
    rows = np.random.default_rng(6).dirichlet(np.ones(24), size=2)
    table = Information.of_laws(rows, (2, 3, 2, 2), V12_AXES, ch)
    for group in ("x2 y1", "x1 x2 y2", "v12 x2 x3 y1 y2"):
        with pytest.raises(MissingVariable):
            table.h(group)
    # with x1, x2 and x3 the chain rule serves the group
    (h,) = table.h("x1 x2 x3 y1")
    (want,) = Information(lift(rows, (2, 3, 2, 2), ch), V12_AXES).h("x1 x2 x3 y1")
    assert_close_terms(h, want)
    # a table has no axis its labels do not name
    with pytest.raises(UnknownLabel):
        _reduced_terms_v2(table)
    with pytest.raises(ShapeMismatch):
        Information.of_laws(rows, (2, 3, 2, 2), INPUT_AXES, ch)


@pytest.mark.parametrize("ndim", [5, 6, 7])
def test_lattice_matches_full_tensor_sums(ndim):
    """Every marginal entropy, asked for in shuffled batches, against the
    kernel summing it straight from the full tensor."""
    names = [f"a{i}" for i in range(ndim)]
    groups = [g for size in range(1, ndim + 1)
              for g in itertools.combinations(range(ndim), size)]
    rng = np.random.default_rng(ndim)
    stacks = list(fixture_lifts(ndim))
    stacks += [random_tensors(ndim, seed) for seed in range(6)]
    for stack in stacks:
        for j in [stack, *stack]:
            order = rng.permutation(len(groups))
            info, got = Information(j, " ".join(names)), []
            for batch in np.array_split(order, 5):
                got += info.h(*(" ".join(names[a] for a in groups[i])
                                for i in batch))
            want = root_entropies(j, [groups[i] for i in order], ndim)
            assert np.shape(got[0]) == np.shape(want[..., 0])
            assert np.max(np.abs(np.stack(got, axis=-1) - want)) <= LATTICE_TOL


def test_information_names_its_axes():
    j = random_tensors(6, seed=9)[0]
    info = Information(j, "x1 v12 x2 x3 y1 y2")
    # marginals held without y1 leave the tensor its only source
    info.h("x1 x3", "v12 x2 y2")
    (h_y1,) = info.h("y1")
    assert np.array_equal(h_y1, root_entropies(j, [(4,)])[0])
    # group order and spacing do not matter; each marginal is computed once
    assert info.h("x3 x1", " x1  x3 ") == info.h("x1 x3", "x1 x3")
    assert np.array_equal(info.cond("y2", "x1 x3"), info.h("x1 x3 y2")[0]
                          - info.h("x1 x3")[0])
    assert np.array_equal(info.mi("x1", "y1"), info.h("x1")[0] + info.h("y1")[0]
                          - info.h("x1 y1")[0])


def test_information_checks_its_axis_count():
    # as many axes as labels, or one more for a batch
    with pytest.raises(ShapeMismatch):
        Information(np.ones((2, 2, 2, 2)) / 16, "a b")
    with pytest.raises(ShapeMismatch):
        Information(np.ones(2) / 2, "a b")
    (h,) = Information(np.ones((3, 2, 2)) / 4, "a b").h("a")
    assert np.array_equal(h, [1.0, 1.0, 1.0])


def test_information_rejects_an_unknown_label():
    info = Information(np.ones((2, 2)) / 4, "a b")
    with pytest.raises(UnknownLabel):
        info.h("a c")
    with pytest.raises(UnknownLabel):
        info.mi("a", "b", "c")


def test_each_marginal_entropy_is_computed_once(monkeypatch):
    seen, sources = [], []
    marginal_sum = pmf._sum_out

    class Recorded(dict):
        """A table's entropies, recording each group as it is stored."""

        def __setitem__(self, key, value):
            seen.append(key)
            super().__setitem__(key, value)

    def recorded(a, axes):
        sources.append(a)
        return marginal_sum(a, axes)

    def root_sums(roots):
        """How many marginals were summed straight from one of ``roots``."""
        return sum(any(a is root for root in roots) for a in sources)

    j = random_tensors(6, seed=4)
    want = ref_five_bounds(j)
    monkeypatch.setattr(pmf, "_sum_out", recorded)
    table = Information(j, V12_AXES)
    table._h = Recorded()
    assert_close_terms(five_bounds(table), want)
    assert len(seen) == len(set(seen)) == 14
    # each from its held marginal
    assert set(seen) <= set(table._marginals)
    # only x1 v12 x3 y1 and the two five-axis marginals need the full tensor
    assert 0 < root_sums([j]) <= 3

    # a law table: the four groups that hold x1, x2, x3 and an output come
    # by the chain rule, one sum of p(x) H(S | x) for each of their three S
    ch = noisy_channel((2, 2, 2, 2, 2), seed=4)
    rows = np.random.default_rng(4).dirichlet(np.ones(16), size=3)
    want = ref_five_bounds(lift(rows, (2, 2, 2, 2), ch))
    table = Information.of_laws(rows, (2, 2, 2, 2), V12_AXES, ch)
    table._h = Recorded()
    roots = list(table._marginals.values())
    seen.clear()
    sources.clear()
    assert_close_terms(five_bounds(table), want)
    assert len(seen) == len(set(seen)) == 14
    # ten from held marginals, the other four by the chain rule
    assert sum(key in table._marginals for key in seen) == 10
    assert len(table._expected) == 3
    # the law gives x1 x2 x3 and x1 v12 x3, and q the three groups with
    # v12 or both outputs; every other marginal sums from a smaller one
    assert root_sums(roots) == 5


class FullTensorInformation(Information):
    """The table before the lattice and before the lift-free roots: the new
    marginals of each call summed straight from the full lifted tensor."""

    def __init__(self, j, labels):
        self.j, self.names, self._h = j, tuple(labels.split()), {}

    def h(self, *groups):
        keys = [pmf._axis_set(self.names, g) for g in groups]
        new = [k for k in dict.fromkeys(keys) if k not in self._h]
        if new:
            values = root_entropies(self.j, [sorted(k) for k in new], len(self.names))
            self._h.update(zip(new, values.T))
        return [self._h[k] for k in keys]


def assert_close_regions(got, want):
    assert got.empty == want.empty
    assert_close_terms(
        (got.vertices, np.array(got.halfplanes)),
        (want.vertices, np.array(want.halfplanes)),
    )


def lifted_bounds(bounds, rows, cards, channel, labels):
    """``law_bounds`` through the lift and a ``FullTensorInformation``."""
    return bounds(FullTensorInformation(lift(rows, cards, channel), labels))


def test_searches_match_the_full_tensor_table(monkeypatch):
    cfg = SearchConfig(seed=3, num_samples=10, fan=16)
    runs = {
        "outer": lambda: outer.outer_region_estimate(fixture("clean"), cfg)[0],
        "degraded-z": lambda: capacity_degraded_z(fixture("degraded_z"), cfg)[0],
        "semidet-hi": lambda: capacity_semidet_hi(fixture("hi_in_class"), cfg)[0],
    }
    got = {name: run() for name, run in runs.items()}
    reports = {case: hi_regime_falsify(make(), cfg)
               for case, make in FALSIFIER_CASES.items()}
    monkeypatch.setattr(outer, "law_bounds", lifted_bounds)
    monkeypatch.setattr(capacity, "law_bounds", lifted_bounds)
    for name, run in runs.items():
        assert_close_regions(got[name], run())
    for case, make in FALSIFIER_CASES.items():
        got_report, want = reports[case], hi_regime_falsify(make(), cfg)
        assert (got_report.status, got_report.condition) == (want.status, want.condition)
        assert_close_terms(
            (np.float64(got_report.margin), np.array(got_report.witness_pmf or ())),
            (np.float64(want.margin), np.array(want.witness_pmf or ())),
        )


# ------------------------------------------------------------ guard

@pytest.mark.parametrize("name", sorted(set(EVALUATORS) - {"violation_gaps"}))
def test_negative_information_raises(name):
    evaluate, _, ndim = EVALUATORS[name]
    # no pmf: at total mass 2 every unconditional information is -2 bits
    j = np.full((2,) * ndim, 2.0 / 2**ndim)
    with pytest.raises(NumericsError):
        evaluate(Information(j, AXES_OF[ndim]))
    with pytest.raises(NumericsError):
        evaluate(Information(np.stack([j / 2, j]), AXES_OF[ndim]))


def test_violation_gaps_stay_unclipped():
    j = np.full((2,) * 6, 2.0 / 2**6)
    gap_a, gap_b = _gaps(Information(j, V12_AXES))
    assert gap_a == pytest.approx(-2.0) and gap_b == pytest.approx(0.0)


def test_clip_information_band():
    got = clip_information(np.array([-1e-12, -1e-9, 0.0, 0.25]))
    assert np.array_equal(got, [0.0, 0.0, 0.0, 0.25])
    assert clip_information(np.empty(0)).size == 0
    with pytest.raises(NumericsError):
        clip_information(np.array([0.5, -1.1e-9]))
