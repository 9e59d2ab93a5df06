"""The shared sampled-search path against the formulas it replaced.

Each reference below is the per-class code the searches used before they
shared ``InputLaw``, ``lift_rows``, ``sample_pool``, the corner helpers
and the lockstep ascent; the shared path must reproduce it bit for bit.
"""

from pathlib import Path

import numpy as np
import pytest

from cifc_udc import outer
from cifc_udc.capacity import (
    VIOLATION_TOL,
    HiRegimeReport,
    InputJoint,
    V12V2Joint,
    _falsified,
    _falsifier_probes,
    degraded_z_bounds,
    hi_regime_falsify,
    semidet_hi_bounds,
    violation_gaps,
)
from cifc_udc.channel import ChannelSpec, load_channel
from cifc_udc.errors import CardinalityMismatch, EmptyList
from cifc_udc.outer import (
    InputLaw,
    SearchConfig,
    V12Joint,
    _caps,
    _corner_joints,
    fan_ascents,
    fan_directions,
    five_bounds,
    input_corners,
    lift_rows,
    lockstep_ascent,
    project_to_simplex,
    sample_pool,
    support_of_caps,
    v12_cards,
)

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
    pool = list(corners) if cfg.include_corners else []
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
    assert np.array_equal(d3.lifted(ch), d3.pmf[..., None, None] * t)

    d4 = V12Joint.random((cx1, 3, cx2, cx3), rng)
    assert np.array_equal(
        d4.lifted(ch),
        np.einsum(d4.pmf, [0, 1, 2, 3], t, [0, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5]),
    )

    d5 = V12V2Joint.random((cx1, 2, 3, cx2, cx3), rng)
    assert np.array_equal(
        d5.lifted(ch),
        np.einsum(
            d5.pmf, [0, 1, 2, 3, 4], t, [0, 3, 4, 5, 6], [0, 1, 2, 3, 4, 5, 6]
        ),
    )

    # batched: the searches' flat rows
    rows3 = np.stack([InputJoint.random(d3.cards, rng).pmf.reshape(-1)
                      for _ in range(4)])
    old3 = rows3.reshape((-1,) + d3.cards)[..., None, None] * t
    assert np.array_equal(lift_rows(rows3, d3.cards, ch), old3)
    rows4 = np.stack([V12Joint.random(d4.cards, rng).pmf.reshape(-1)
                      for _ in range(4)])
    old4 = np.einsum(
        rows4.reshape((-1,) + d4.cards), [6, 0, 1, 2, 3],
        t, [0, 2, 3, 4, 5], [6, 0, 1, 2, 3, 4, 5],
    )
    assert np.array_equal(lift_rows(rows4, d4.cards, ch), old4)


def test_lift_checks_cardinalities():
    ch = noisy_channel((2, 2, 2, 2, 2), seed=1)
    with pytest.raises(CardinalityMismatch):
        lift_rows(np.full((1, 8), 1 / 8), (2, 2, 2, 1), ch)
    with pytest.raises(CardinalityMismatch):
        InputLaw.uniform((2, 3, 2)).lifted(ch)


def test_input_law_takes_any_number_of_auxiliaries():
    ch = noisy_channel((2, 2, 2, 2, 2), seed=2)
    d = InputLaw.random((2, 3, 2, 2, 2, 2), np.random.default_rng(4))
    j = d.lifted(ch)
    assert j.shape == (2, 3, 2, 2, 2, 2, 2, 2)
    assert np.allclose(j.sum(axis=(6, 7)), d.pmf)


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
@pytest.mark.parametrize("include_corners", [True, False])
def test_sample_pool_matches_the_replaced_loops(cards, include_corners):
    cfg = SearchConfig(seed=5, num_samples=6, include_corners=include_corners)
    cards3 = (cards[0], cards[2], cards[3])
    for law, law_cards, corners in (
        (V12Joint, cards, ref_corner_joints(cards)),
        (V12Joint, cards, ref_falsifier_probes(cards)),
        (InputJoint, cards3, ref_product_corners(cards3)),
    ):
        got = sample_pool(law, law_cards, cfg, corners)
        assert np.array_equal(got, ref_pool(law, law_cards, cfg, corners))
    extra = (V12Joint.uniform(cards),)
    got = sample_pool(V12Joint, cards, cfg, ref_corner_joints(cards), extra)
    want = ref_pool(V12Joint, cards, cfg, ref_corner_joints(cards), extra)
    assert np.array_equal(got, want)


def test_sample_pool_guards():
    cards = (2, 2, 2, 2)
    with pytest.raises(EmptyList):
        sample_pool(V12Joint, cards, SearchConfig(include_corners=False), [])
    with pytest.raises(CardinalityMismatch):
        sample_pool(V12Joint, cards, SearchConfig(), _corner_joints(cards),
                    (V12Joint.uniform((2, 3, 2, 2)),))


# ---------------------------------------------------------- lockstep ascent
# references: the sequential ascent, fan loop and early-exit falsifier that
# ran one walk at a time before the walks moved in lockstep

def ref_ascent_refine(start, evaluate, step=0.05, sweeps=50):
    x = np.asarray(start, dtype=float).reshape(-1).copy()
    n = x.size
    current = float(evaluate(x[None, :])[0])
    for _ in range(sweeps):
        candidates = project_to_simplex(x[None, :] + step * np.eye(n))
        values = evaluate(candidates)
        best = int(np.argmax(values))
        if values[best] > current + 1e-12:
            x = candidates[best]
            current = float(values[best])
        else:
            step *= 0.5
            if step < 1e-3:
                break
    return current, x


def ref_fan_ascents(flats, caps_of, cfg):
    r1, r2, s = caps_of(flats)
    out = []
    for lam in fan_directions(cfg.fan):
        supports = support_of_caps(r1, r2, s, lam)
        ascents = []
        if cfg.refine_starts and cfg.refine_sweeps:
            def evaluate(rows):
                return support_of_caps(*caps_of(rows), lam)

            order = np.argsort(-supports, kind="stable")[: cfg.refine_starts]
            for idx in order:
                reached, row = ref_ascent_refine(
                    flats[int(idx)], evaluate, cfg.refine_step, cfg.refine_sweeps
                )
                ascents.append((float(supports[int(idx)]), reached, row))
        out.append((float(np.max(supports)), ascents))
    return out


def ref_hi_regime_falsify(channel, cfg):
    cards = v12_cards(channel, cfg)
    corners = _falsifier_probes(cards)
    probes = len(corners) if cfg.include_corners else 0
    flats = sample_pool(V12Joint, cards, cfg, corners)
    gap_a, gap_b = violation_gaps(lift_rows(flats, cards, channel))
    worst = np.maximum(gap_a, gap_b)

    for i in range(flats.shape[0]):
        if worst[i] > VIOLATION_TOL:
            return _falsified(cfg, cards, probes, flats[i], gap_a[i], gap_b[i])

    def evaluate(rows):
        ga, gb = violation_gaps(lift_rows(rows, cards, channel))
        return np.maximum(ga, gb)

    best_margin = float(np.max(worst))
    order = np.argsort(-worst, kind="stable")[: cfg.refine_starts]
    for idx in order:
        value, refined = ref_ascent_refine(
            flats[int(idx)], evaluate, cfg.refine_step, cfg.refine_sweeps
        )
        best_margin = max(best_margin, value)
        if value > VIOLATION_TOL:
            ga, gb = violation_gaps(lift_rows(refined[None, :], cards, channel))
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


def search_of(name, cfg):
    """Pool and caps of the search that runs on a fixture channel."""
    ch = fixture(name)
    if name == "degraded_z":
        cards = ch.cards[:3]
        pool = sample_pool(InputJoint, cards, cfg, input_corners(cards))

        def caps_of(rows):
            b = degraded_z_bounds(lift_rows(rows, cards, ch))
            return b[..., 0], b[..., 1], b[..., 2]
    elif name == "hi_in_class":
        cards = v12_cards(ch, cfg)
        pool = sample_pool(V12Joint, cards, cfg, _corner_joints(cards))

        def caps_of(rows):
            b = semidet_hi_bounds(lift_rows(rows, cards, ch))
            return b[..., 0], b[..., 1], b[..., 2]
    else:
        cards = v12_cards(ch, cfg)
        pool = sample_pool(V12Joint, cards, cfg, _corner_joints(cards))

        def caps_of(rows):
            return _caps(five_bounds(lift_rows(rows, cards, ch)))
    return pool, caps_of


def assert_same_fan(got, want):
    assert len(got) == len(want)
    for (best, ascents), (ref_best, ref_ascents) in zip(got, want):
        assert best == ref_best
        assert len(ascents) == len(ref_ascents)
        for (start, reached, row), (r_start, r_reached, r_row) in zip(
            ascents, ref_ascents
        ):
            assert start == r_start and reached == r_reached
            assert np.array_equal(row, r_row)


def assert_same_report(got, want):
    assert got == want
    assert got.to_dict() == want.to_dict()


def quantized_targets(rows, owner, targets):
    """Squared distance to each walk's target, rounded so that ties and
    stalls happen."""
    return np.round(-np.sum((rows - targets[owner]) ** 2, axis=1), 3)


@pytest.mark.parametrize("walks,n,sweeps", [(1, 3, 50), (7, 5, 50),
                                            (40, 8, 50), (13, 6, 3), (5, 4, 0)])
def test_lockstep_ascent_matches_sequential_walks(walks, n, sweeps):
    rng = np.random.default_rng(walks * 100 + n)
    starts = rng.dirichlet(np.ones(n), size=walks)
    targets = rng.dirichlet(np.full(n, 0.5), size=walks)
    for step in (0.05, 0.3):
        values, rows = lockstep_ascent(
            starts, lambda r, o: quantized_targets(r, o, targets), step, sweeps
        )
        assert values.shape == (walks,) and rows.shape == (walks, n)
        for w in range(walks):
            ref_value, ref_row = ref_ascent_refine(
                starts[w],
                lambda r: quantized_targets(r, np.full(len(r), w), targets),
                step, sweeps,
            )
            assert values[w] == ref_value
            assert np.array_equal(rows[w], ref_row)


def test_lockstep_ascent_without_walks():
    values, rows = lockstep_ascent(np.empty((0, 4)), None)
    assert values.shape == (0,) and rows.shape == (0, 4)


FAN_CFGS = [
    SearchConfig(seed=3, num_samples=5, fan=8),
    SearchConfig(seed=11, num_samples=3, fan=5, refine_starts=2,
                 refine_sweeps=7, refine_step=0.2),
    SearchConfig(seed=1, num_samples=2, fan=3, refine_sweeps=0),
]


@pytest.mark.parametrize("name", ["clean", "degraded_z", "hi_in_class"])
@pytest.mark.parametrize("cfg", FAN_CFGS)
def test_fan_ascents_match_the_per_direction_loop(name, cfg):
    pool, caps_of = search_of(name, cfg)
    assert_same_fan(fan_ascents(pool, caps_of, cfg),
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
    # walks 0, 1, 2 and 4 cross the tolerance, walk 2 the farthest
    "ascent_hit_first": lambda: sparse_channel(23, 0.2),
    # only the last of the five walks crosses it
    "ascent_hit_last": lambda: sparse_channel(9, 0.5),
}


@pytest.mark.parametrize("case", sorted(FALSIFIER_CASES))
@pytest.mark.parametrize("cfg", [SearchConfig(seed=3, num_samples=20),
                                 SearchConfig(seed=11, num_samples=2),
                                 SearchConfig(seed=0),
                                 SearchConfig(seed=0, refine_starts=0)])
def test_falsifier_matches_the_early_exit_loop(case, cfg):
    ch = FALSIFIER_CASES[case]()
    assert_same_report(hi_regime_falsify(ch, cfg), ref_hi_regime_falsify(ch, cfg))


@pytest.mark.parametrize("case", ["ascent_hit_first", "ascent_hit_last"])
def test_the_ascent_hit_cases_reach_their_witness_by_ascent(case):
    ch, cfg = FALSIFIER_CASES[case](), SearchConfig(seed=0)
    cards = v12_cards(ch, cfg)
    pool = sample_pool(V12Joint, cards, cfg, _falsifier_probes(cards))
    gap_a, gap_b = violation_gaps(lift_rows(pool, cards, ch))
    assert np.max(np.maximum(gap_a, gap_b)) <= VIOLATION_TOL
    assert hi_regime_falsify(ch, cfg).falsified


def test_one_walk_per_block_matches_the_default_block(monkeypatch):
    cfg = SearchConfig(seed=3, num_samples=5, fan=8)
    pools = {name: search_of(name, cfg)
             for name in ("clean", "degraded_z", "hi_in_class")}
    fans = {name: fan_ascents(pool, caps_of, cfg)
            for name, (pool, caps_of) in pools.items()}
    reports = {case: hi_regime_falsify(make(), cfg)
               for case, make in FALSIFIER_CASES.items()}
    monkeypatch.setattr(outer, "_BLOCK_CELLS", 1)
    for name, (pool, caps_of) in pools.items():
        assert_same_fan(fan_ascents(pool, caps_of, cfg), fans[name])
    for case, make in FALSIFIER_CASES.items():
        assert_same_report(hi_regime_falsify(make(), cfg), reports[case])
