import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _law_reference as reference
from cifc_udc.channel import ChannelSpec
from cifc_udc.errors import (
    CardinalityMismatch,
    NegativeEntry,
    ShapeMismatch,
    SumNotOne,
    TooLarge,
)
from cifc_udc import capacity, outer
from cifc_udc.inner import AUX_LABELS, SamplerConfig
from cifc_udc.outer import (
    V12_AXES,
    SearchConfig,
    V12Joint,
    _caps,
    cap_polygon,
    cap_vertices,
    fan_directions,
    five_bounds,
    input_corners,
    law_bounds,
    lockstep_ascent,
    outer_polygon,
    outer_region_estimate,
    support_of_caps,
    wire_v12,
)
from cifc_udc.pmf import Information, clip_information
from cifc_udc.polytope import (
    LinearSystem,
    polygon_extract,
    region_contains,
    region_to_dict,
    regions_close,
    support,
)


def clean_channel():
    return ChannelSpec.from_outputs((2, 2, 2, 2, 2), lambda x1, x2, x3: (x1, x2))


def xor_channel():
    # y1 sees both senders through a parity, y2 sees only the cognitive input
    return ChannelSpec.from_outputs(
        (2, 2, 2, 2, 2), lambda x1, x2, x3: (x1 ^ x3, x2)
    )


def reference_bounds(d: V12Joint, ch: ChannelSpec) -> np.ndarray:
    j = reference.lift(d.pmf, d.cards, ch)[0]

    def mi(*groups):
        # a fresh table per term, clipped at zero
        return float(clip_information(Information(j, V12_AXES).mi(*groups)))

    vals = np.array([
        mi("y1", "x1 x2 x3"),
        mi("y1", "x1 v12 x3"),
        mi("y2", "x2", "x1 x3"),
        mi("y1 y2", "x1 x2", "x3"),
        mi("x2", "y2", "x1 v12 x3") + mi("x1 v12 x3", "y1"),
    ])
    return np.clip(vals, 0.0, None)


class TestV12Joint:
    def test_validation(self):
        with pytest.raises(ShapeMismatch):
            V12Joint((2, 2, 2), np.ones((2, 2, 2)) / 8)
        with pytest.raises(ShapeMismatch):
            V12Joint((2, 2, 2, 2), np.ones((2, 2, 2)) / 8)
        bad = np.full((2, 2, 2, 2), 1 / 16.0)
        bad[0, 0, 0, 0] = -1e-3
        with pytest.raises(NegativeEntry):
            V12Joint((2, 2, 2, 2), bad)
        with pytest.raises(SumNotOne):
            V12Joint((2, 2, 2, 2), np.full((2, 2, 2, 2), 1 / 8.0))

    def test_renormalizes_within_tolerance(self):
        p = np.full((2, 2, 2, 2), 1 / 16.0) * (1 + 5e-10)
        d = V12Joint((2, 2, 2, 2), p)
        assert abs(d.pmf.sum() - 1.0) < 1e-15

    def test_lifted_shape_and_marginal(self):
        # the reference lift that the bound tests score against
        ch = clean_channel()
        rng = np.random.default_rng(3)
        d = V12Joint.random((2, 3, 2, 2), rng)
        (j,) = reference.lift(d.pmf, d.cards, ch)
        assert j.shape == (2, 3, 2, 2, 2, 2)
        assert np.allclose(j.sum(axis=(4, 5)), d.pmf)
        assert abs(j.sum() - 1.0) < 1e-12

    def test_lifted_rejects_wrong_cards(self):
        ch = clean_channel()
        d = V12Joint.uniform((3, 2, 2, 2))
        with pytest.raises(CardinalityMismatch):
            reference.lift(d.pmf, d.cards, ch)
        with pytest.raises(CardinalityMismatch):
            outer_polygon(d, ch)

    def test_default_v12_card(self):
        # card_v12 = 0 stands for min(|X1| * |X2|, |X2| + 1)
        assert outer.v12_cards(clean_channel(), SearchConfig()) == (2, 3, 2, 2)
        for cards, card_v12 in (((3, 3, 2, 3, 3), 4), ((1, 3, 2, 2, 2), 3),
                                ((2, 1, 2, 2, 2), 2), ((4, 2, 1, 2, 2), 3)):
            ch = ChannelSpec(cards, np.full(cards, 1.0 / (cards[3] * cards[4])))
            assert outer.v12_cards(ch, SearchConfig())[1] == card_v12
        assert outer.v12_cards(clean_channel(), SearchConfig(card_v12=3))[1] == 3


class TestFiveBounds:
    def test_matches_reference_information_quantities(self):
        rng = np.random.default_rng(11)
        for ch in (clean_channel(), xor_channel()):
            for _ in range(4):
                d = V12Joint.random((2, 3, 2, 2), rng)
                (got,) = law_bounds(five_bounds, d.pmf[None], d.cards, ch, V12_AXES)
                assert got.shape == (5,)
                assert np.allclose(got, reference_bounds(d, ch), atol=1e-12)

    def test_batched_matches_unbatched(self):
        rng = np.random.default_rng(4)
        ch = xor_channel()
        rows = np.stack(
            [V12Joint.random((2, 2, 2, 2), rng).pmf.reshape(-1) for _ in range(6)]
        )
        batched = law_bounds(five_bounds, rows, (2, 2, 2, 2), ch, V12_AXES)
        assert batched.shape == (6, 5)
        for i in range(6):
            one = law_bounds(five_bounds, rows[i:i + 1], (2, 2, 2, 2), ch, V12_AXES)
            assert np.allclose(batched[i], one[0], atol=1e-14)

    def test_clean_uniform_bounds(self):
        d = V12Joint.uniform((2, 4, 2, 2))
        b = law_bounds(five_bounds, d.pmf[None], d.cards, clean_channel(), V12_AXES)
        assert np.allclose(b, [[1, 1, 1, 2, 2]], atol=1e-12)


class TestOuterPolygon:
    def test_clean_uniform_is_unit_square(self):
        reg = outer_polygon(V12Joint.uniform((2, 4, 2, 2)), clean_channel())
        assert np.allclose(
            reg.vertices, [[0, 0], [1, 0], [1, 1], [0, 1]], atol=1e-9
        )

    def test_constant_outputs_collapse_to_origin(self):
        dead = ChannelSpec.from_outputs((2, 2, 2, 1, 1), lambda *_: (0, 0))
        reg = outer_polygon(V12Joint.uniform((2, 4, 2, 2)), dead)
        assert reg.vertices.shape == (1, 2)
        assert np.allclose(reg.vertices[0], [0, 0], atol=1e-12)

    def test_point_mass_input_collapses_to_origin(self):
        p = np.zeros((2, 4, 2, 2))
        p[0, 0, 0, 0] = 1.0
        reg = outer_polygon(V12Joint((2, 4, 2, 2), p), clean_channel())
        assert np.allclose(reg.vertices, [[0, 0]], atol=1e-12)

    def test_support_shortcut_matches_polygon_support(self):
        rng = np.random.default_rng(9)
        ch = xor_channel()
        for _ in range(15):
            d = V12Joint.random((2, 2, 2, 2), rng)
            (b,) = law_bounds(five_bounds, d.pmf[None], d.cards, ch, V12_AXES)
            poly = outer_polygon(d, ch)
            caps = (min(b[0], b[1]), b[2], min(b[3], b[4]))
            for ang in np.linspace(0.0, np.pi / 2, 9):
                lam = (np.cos(ang), np.sin(ang))
                assert abs(
                    float(support_of_caps(*caps, lam)) - support(poly, lam)
                ) < 1e-7


class TestCapPolygon:
    def test_pentagon_shape(self):
        reg = cap_polygon(0.5, 0.75, 1.0)
        expect = {(0, 0), (0.5, 0), (0.5, 0.5), (0.25, 0.75), (0, 0.75)}
        got = {tuple(np.round(v, 9)) for v in reg.vertices}
        assert got == expect

    def test_negative_sum_cap_empties_region(self):
        reg = cap_polygon(0.5, 0.5, -0.2)
        assert reg.empty

    def test_redundant_bounds_ignored(self):
        # _caps keeps the tighter of the two R1 and the two sum bounds
        a = cap_polygon(*_caps(np.array([0.5, 3.0, 0.75, 1.0, 5.0])))
        b = cap_polygon(0.5, 0.75, 1.0)
        assert region_contains(a, b) and region_contains(b, a)


def lp_cap_polygon(r1, r2, s):
    """The cap polygon through the linear-system route."""
    system = LinearSystem.from_rows(
        ("R1", "R2"),
        inequalities=[
            ({"R1": 1.0}, r1), ({"R2": 1.0}, r2), ({"R1": 1.0, "R2": 1.0}, s),
        ],
        nonnegative=("R1", "R2"),
    )
    return polygon_extract(system, "R1", "R2")


def draw_caps(kind, rng):
    """(r1, r2, s) of one of the shapes the closed form must get right."""
    r1, r2 = rng.uniform(0.0, 2.0, 2)
    if kind == "zero":
        caps = [r1, r2, rng.uniform(0.0, 3.0)]
        for i in rng.choice(3, size=rng.integers(1, 4), replace=False):
            caps[i] = 0.0
        return tuple(caps)
    if kind == "tie":
        return r1, r2, r1 + r2
    if kind == "redundant":
        return r1, r2, r1 + r2 + rng.uniform(0.0, 1.0)
    if kind == "below-both":
        return r1, r2, min(r1, r2) * rng.uniform(0.0, 1.0)
    if kind == "between":
        return r1, r2, rng.uniform(max(r1, r2), r1 + r2)
    caps = [r1, r2, rng.uniform(0.0, 3.0)]
    caps[rng.integers(3)] = -1e-6 if kind == "negative-1e-6" else -1e-13
    return tuple(caps)


CAP_KINDS = (
    "zero", "tie", "redundant", "below-both", "between",
    "negative-1e-6", "negative-1e-13",
)


@pytest.mark.parametrize("kind", CAP_KINDS)
def test_closed_form_cap_polygon_matches_the_lp_route(kind):
    rng = np.random.default_rng([17, CAP_KINDS.index(kind)])
    directions = fan_directions(9)
    for _ in range(25):
        caps = draw_caps(kind, rng)
        got = cap_polygon(*caps)
        want = lp_cap_polygon(*caps)
        assert got.empty == want.empty
        if want.empty:
            continue
        assert regions_close(got, want, tol=1e-9)
        for lam in directions:
            assert abs(float(support_of_caps(*caps, lam)) - support(want, lam)) < 1e-9


def support_cases():
    """Caps with r1 or r2 above s, zero caps, -0.0 caps and redundant sum
    caps, drawn per row; and the fan's directions."""
    rng = np.random.default_rng(21)
    r1, r2, s = rng.uniform(0.0, 2.0, (3, 400))
    s[:100] = np.minimum(r1[:100], r2[:100]) * rng.uniform(0.0, 1.0, 100)  # both above s
    s[100:150] = r1[100:150] * 0.5  # r1 above s
    s[150:200] = r2[150:200] * 0.5  # r2 above s
    s[200:250] = r1[200:250] + r2[200:250] + 1.0  # s redundant
    for caps, (lo, hi) in ((r1, (250, 270)), (r2, (270, 290)), (s, (290, 310))):
        caps[lo:hi] = 0.0
        caps[hi:hi + 10] = -0.0
    return (r1, r2, s), fan_directions(64), rng


def test_corner_at_a_time_support_has_the_bytes_of_the_stacked_corners():
    caps, directions, rng = support_cases()
    per_row = directions[rng.integers(0, 64, size=len(caps[0]))]
    # one direction per row (an ascent's candidates), a fan over every row
    # (a pool's supports), one direction for all rows, one row and one law
    for got_caps, direction in (
        (caps, per_row),
        (caps, directions[:, None, :]),
        (caps, directions[5]),
        ([c[:1] for c in caps], directions[:, None, :]),
        ([float(c[0]) for c in caps], directions[7]),
    ):
        got = support_of_caps(*got_caps, direction)
        want = reference.stacked_support(*got_caps, direction)
        assert type(got) is type(want)
        assert reference.same_bytes(np.asarray(got), np.asarray(want))


def test_cap_vertices_broadcast():
    r1 = np.array([[0.5], [1.0], [0.0]])
    r2 = np.array([0.75, 0.25])
    got = cap_vertices(r1, r2, 1.0)
    assert got.shape == (3, 2, 5, 2)
    for i, j in np.ndindex(3, 2):
        assert np.array_equal(got[i, j], cap_vertices(r1[i, 0], r2[j], 1.0))
    assert np.array_equal(
        cap_vertices(0.5, 0.75, 1.0),
        [[0, 0], [0.5, 0], [0.5, 0.5], [0.25, 0.75], [0, 0.75]],
    )


class TestSimplexProjection:
    def test_kkt_conditions(self):
        rng = np.random.default_rng(5)
        z = rng.normal(scale=2.0, size=(40, 7))
        p = outer._project_rows(z.copy())
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert (p >= 0).all()
        for row_z, row_p in zip(z, p):
            active = row_p > 0
            taus = row_z[active] - row_p[active]
            tau = taus.mean()
            assert np.allclose(taus, tau, atol=1e-9)
            assert (row_z[~active] <= tau + 1e-9).all()

    def test_identity_on_simplex_points(self):
        rng = np.random.default_rng(6)
        q = rng.dirichlet(np.ones(5), size=8)
        assert np.allclose(outer._project_rows(q.copy()), q, atol=1e-12)

    @staticmethod
    def rows_of_every_kind(rng):
        """Random rows, rows with ties, with zero entries and on the simplex,
        and the vertices and center of the simplex."""
        n = 6
        ties = rng.integers(0, 3, size=(20, n)) / 4.0
        zeros = rng.normal(size=(20, n)) * (rng.random((20, n)) < 0.5)
        on = rng.dirichlet(np.ones(n), size=20)
        return np.concatenate([
            rng.normal(scale=2.0, size=(20, n)), ties, zeros, on,
            np.eye(n), np.full((1, n), 1.0 / n),
        ])

    def test_same_bytes_as_the_old_formula(self):
        rows = self.rows_of_every_kind(np.random.default_rng(7))
        got = outer._project_rows(rows.copy())
        assert reference.same_bytes(got, reference.project_to_simplex(rows))
        # the projection ran on a copy: the input is left as it was
        assert reference.same_bytes(rows, self.rows_of_every_kind(np.random.default_rng(7)))
        assert reference.same_bytes(outer._project_rows(rows[:1].copy()), got[:1])

    def test_ascent_candidates_have_the_bytes_of_the_old_bump(self, monkeypatch):
        # each walk's candidates against the old bump of its point, which the
        # test follows by the ascent's own rule; the starts repeat within a
        # block of three walks, and walks from one start share every sweep
        rng = np.random.default_rng(8)
        starts = np.concatenate([rng.dirichlet(np.ones(6), size=6), np.eye(6)[:2]])
        starts = starts[[0, 0, 1, 2, 3, 3, 4, 5, 6, 7, 7]]
        calls = []

        def score(rows):
            return -np.sum((rows - 0.2) ** 2, axis=1)

        def evaluate(rows, take, owner):
            calls.append((rows.copy(), take.copy(), owner.copy()))
            return score(rows)[take]

        monkeypatch.setattr(outer, "_BLOCK_CELLS", 3 * 36)
        lockstep_ascent(starts, evaluate)
        points, steps, sweeps = {}, {}, 0
        for rows, take, owner in calls:
            if take.shape[1] == 1:
                # a block's first call scores the start points of its walks
                points.update(zip(owner.tolist(), rows[take[:, 0]]))
                steps.update(dict.fromkeys(owner.tolist(), outer.REFINE_STEP))
                continue
            for k, w in enumerate(owner.tolist()):
                candidates = rows[take[k]]
                want = reference.bumped(points[w][None], np.array([steps[w]]))
                assert reference.same_bytes(candidates, want)
                scores = score(candidates)
                best = np.argmax(scores >= scores.max() - outer.ASCENT_GAIN)
                if scores[best] > score(points[w][None])[0] + outer.ASCENT_GAIN:
                    points[w] = candidates[best]
                else:
                    steps[w] *= 0.5
            sweeps += 1
        assert sweeps > 10
        assert sum(len(rows) < take.size for rows, take, _ in calls) > 10


# each a search config, one of its settings and the least value it takes
CONFIG_SETTINGS = [
    *((SearchConfig, name, 0) for name in ("seed", "num_samples", "card_v12")),
    (SearchConfig, "fan", 2),
    *((SamplerConfig, name, 0) for name in ("seed", "num_samples")),
    *((SamplerConfig, f"card_{label}", 1) for label in AUX_LABELS),
]


@pytest.mark.parametrize("kind,name,low", CONFIG_SETTINGS,
                         ids=[f"{k.__name__}-{n}" for k, n, _ in CONFIG_SETTINGS])
def test_config_settings_are_integers_at_their_minimum(kind, name, low):
    for value in (low, low + 2, float(low + 2), np.int64(low + 2)):
        got = getattr(kind(**{name: value}), name)
        assert got == value and type(got) is int
    for value in (low - 1, low + 2.5, float("nan"), float("inf"), str(low + 2), None,
                  True, np.True_, False, np.False_):
        with pytest.raises(ValueError, match=name):
            kind(**{name: value})


class TestAscent:
    def test_never_decreases_and_deterministic(self):
        target = np.array([0.7, 0.1, 0.1, 0.1])

        def evaluate(rows):
            return -np.sum((rows - target) ** 2, axis=1)

        start = np.full(4, 0.25)
        v0 = float(evaluate(start[None, :])[0])

        def walk():
            return lockstep_ascent(start[None], lambda rows, take, owner: evaluate(rows)[take])

        (v1,), (x1,) = walk()
        (v2,), (x2,) = walk()
        assert v1 >= v0
        assert v1 == v2 and np.array_equal(x1, x2)
        assert abs(x1.sum() - 1.0) < 1e-12 and (x1 >= 0).all()
        assert np.sum((x1 - target) ** 2) < 1e-3

    def test_zero_sweeps_returns_start_value(self, monkeypatch):
        def evaluate(rows):
            return rows[:, 0]

        monkeypatch.setattr(outer, "REFINE_SWEEPS", 0)
        start = np.array([0.25, 0.75])
        (value,), (x,) = lockstep_ascent(
            start[None], lambda rows, take, owner: evaluate(rows)[take]
        )
        assert value == 0.25 and np.array_equal(x, start)


class TestFan:
    def test_covers_quadrant_with_axes(self):
        f = fan_directions(64)
        assert f.shape == (64, 2)
        assert np.allclose(f[0], [1, 0], atol=1e-15)
        assert np.allclose(f[-1], [0, 1], atol=1e-12)
        angles = np.arctan2(f[:, 1], f[:, 0])
        assert np.all(np.diff(angles) > 0)


class TestOuterEstimate:
    def test_clean_channel_recovers_unit_square(self):
        cfg = SearchConfig(seed=0, num_samples=10, fan=33)
        est, caveat = outer_region_estimate(clean_channel(), cfg)
        assert np.allclose(
            sorted(map(tuple, est.vertices)),
            sorted([(0, 0), (1, 0), (1, 1), (0, 1)]),
            atol=1e-9,
        )
        assert caveat["samples"] == 10 and caveat["card_v12"] == 3
        assert caveat["fan"] == 33 and caveat["seed"] == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_height_is_an_error_not_a_clipped_polygon(
        self, monkeypatch, bad
    ):
        def fan_search(flats, caps_of, cfg, extra):
            heights = np.ones(cfg.fan)
            heights[1] = bad
            return heights, flats

        monkeypatch.setattr(outer, "fan_search", fan_search)
        with pytest.raises(ShapeMismatch, match="NaN or an infinity"):
            outer_region_estimate(clean_channel(), SearchConfig(num_samples=1, fan=4))

    def test_deterministic_across_runs_and_threads(self):
        cfg = SearchConfig(seed=3, num_samples=12, fan=9)
        ch = xor_channel()
        a, ca = outer_region_estimate(ch, cfg)
        b, cb = outer_region_estimate(ch, cfg)
        c, cc = outer_region_estimate(ch, cfg)
        sa = json.dumps(region_to_dict(a), sort_keys=True)
        assert sa == json.dumps(region_to_dict(b), sort_keys=True)
        assert sa == json.dumps(region_to_dict(c), sort_keys=True)
        assert ca == cb == cc

    def test_contains_every_evaluated_polygon(self):
        ch = xor_channel()
        cfg = SearchConfig(seed=1, num_samples=25, fan=17)
        est, _ = outer_region_estimate(ch, cfg)
        cards = (2, 4, 2, 2)
        for i in range(cfg.num_samples):
            rng = np.random.default_rng([cfg.seed, i])
            d = V12Joint.random(cards, rng)
            assert region_contains(est, outer_polygon(d, ch), tol=1e-7)

    def test_monotone_in_sample_budget(self):
        ch = xor_channel()
        small, _ = outer_region_estimate(
            ch, SearchConfig(seed=2, num_samples=10, fan=9)
        )
        large, _ = outer_region_estimate(
            ch, SearchConfig(seed=2, num_samples=40, fan=9)
        )
        assert region_contains(large, small, tol=1e-7)

    def test_extra_distributions_enter_the_envelope(self):
        # y1 = x1 + x3, so R1 <= H(Y1) <= log2(3); the law below reaches
        # log2(3) exactly, and the search's ascents stop about 2e-7 short
        ch = ChannelSpec.from_outputs(
            (2, 2, 2, 3, 2), lambda x1, x2, x3: (x1 + x3, x2)
        )
        cfg = SearchConfig(seed=5, num_samples=1, fan=9)
        cards = outer.v12_cards(ch, cfg)
        pmf = np.zeros(cards)
        # y1 uniform on {0, 1, 2}, x2 uniform and independent, v12 = 0
        pmf[:, 0] = np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])[:, None, :] / 2
        extra = V12Joint(cards, pmf)
        poly = outer_polygon(extra, ch)
        narrow, _ = outer_region_estimate(ch, cfg)
        assert not region_contains(narrow, poly, tol=1e-9)
        with_extra, caveat = outer_region_estimate(
            ch, cfg, extra_distributions=(extra,)
        )
        assert region_contains(with_extra, poly, tol=1e-7)
        assert caveat["extra_distributions"] == 1

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 3))
    def test_extra_distributions_never_shrink_the_estimate(self, seed, count):
        rng = np.random.default_rng(seed)
        cards = tuple(int(c) for c in rng.integers(1, 3, size=5))
        rows = rng.dirichlet(np.full(cards[3] * cards[4], 0.5), size=cards[:3])
        ch = ChannelSpec(cards, rows.reshape(cards))
        cfg = SearchConfig(seed=seed, num_samples=3, fan=8)
        extras = tuple(
            V12Joint.random(outer.v12_cards(ch, cfg), rng) for _ in range(count)
        )
        base, _ = outer_region_estimate(ch, cfg)
        more, _ = outer_region_estimate(ch, cfg, extra_distributions=extras)
        assert region_contains(more, base, tol=1e-9)
        for d in extras:
            assert region_contains(more, outer_polygon(d, ch), tol=1e-9)

    def test_extra_distribution_card_mismatch(self):
        with pytest.raises(CardinalityMismatch):
            outer_region_estimate(
                clean_channel(),
                SearchConfig(num_samples=1),
                extra_distributions=(V12Joint.uniform((2, 4, 2, 2)),),
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(seed=-1)
        with pytest.raises(ValueError):
            SearchConfig(fan=1)

    def test_ascent_over_the_cell_budget_fails_before_lifting(self, monkeypatch):
        # n = 2 * 512 * 2 * 2 input cells: one sweep would make n * n * 4 cells
        def no_table(*args):
            raise AssertionError("built a table over the budget")

        monkeypatch.setattr(Information, "of_laws", no_table)
        monkeypatch.setattr(Information, "__init__", no_table)
        cfg = SearchConfig(card_v12=512)
        with pytest.raises(TooLarge):
            outer_region_estimate(clean_channel(), cfg)
        with pytest.raises(TooLarge):
            capacity.hi_regime_falsify(clean_channel(), cfg)

    def test_pool_and_fan_over_the_cell_budget_fail_before_drawing(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew a law over the budget")

        monkeypatch.setattr(outer.InputLaw, "random", no_draw)
        for cfg in (SearchConfig(num_samples=10**12), SearchConfig(fan=10**11)):
            with pytest.raises(TooLarge):
                outer_region_estimate(clean_channel(), cfg)
        with pytest.raises(TooLarge):
            capacity.hi_regime_falsify(clean_channel(), SearchConfig(num_samples=10**12))


def test_input_corners_and_wire_v12_match_the_reference():
    """Corner laws and every V12 wiring of them and of random bases (some
    with zero cells) keep the bytes of the old per-symbol loops."""
    rng = np.random.default_rng(21)
    for cards in itertools.product((1, 2, 3), repeat=3):
        corners = input_corners(cards)
        want_corners = reference.input_corners(cards)
        assert len(corners) == len(want_corners)
        assert all(reference.same_bytes(a, b) for a, b in zip(corners, want_corners))
        size = int(np.prod(cards))
        dense = rng.dirichlet(np.full(size, 0.5)).reshape(cards)
        sparse = dense * (rng.random(cards) < 0.6)
        for base in corners + [dense, sparse]:
            for card_v12 in (1, 2, 3, 5):
                got = wire_v12(base, card_v12)
                want = reference.wire_v12(base, card_v12)
                assert len(got) == len(want) == 4
                for a, b in zip(got, want):
                    assert reference.same_bytes(a, b)


@pytest.mark.parametrize("ch_cards", [
    *((cx1, cx2, 2, 2, 2) for cx1, cx2 in itertools.product((2, 3, 4), repeat=2)),
    (3, 3, 2, 3, 3),
], ids=str)
def test_wire_v12_rules_stay_distinct_at_the_default_v12_card(ch_cards):
    """v12 = 0, x1, x2 and x1*|X2| + x2, each mod |V12|, wire the uniform
    input law four different ways at the searches' default |V12|, where
    the last rule aliases differently than at |X1||X2|: the outer corners
    and the falsifier probes keep four wirings each."""
    ch = ChannelSpec(ch_cards, np.full(ch_cards, 1.0 / (ch_cards[3] * ch_cards[4])))
    cards = outer.v12_cards(ch, SearchConfig())
    base = input_corners((cards[0], cards[2], cards[3]))[0]
    assert len(outer._distinct(wire_v12(base, cards[1]))) == 4
    assert len(outer._distinct(outer._corner_joints(cards))) == 5
