"""The shared sampled-search path against the formulas it replaced.

Each reference below is the per-class code the searches used before they
shared ``InputLaw``, ``lift_rows``, ``sample_pool`` and the corner
helpers; the shared path must reproduce it bit for bit.
"""

import numpy as np
import pytest

from cifc_udc.capacity import InputJoint, V12V2Joint, _falsifier_probes
from cifc_udc.channel import ChannelSpec
from cifc_udc.errors import CardinalityMismatch, EmptyList
from cifc_udc.outer import (
    InputLaw,
    SearchConfig,
    V12Joint,
    _corner_joints,
    input_corners,
    lift_rows,
    sample_pool,
)


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
