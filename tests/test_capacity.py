import json
from pathlib import Path

import numpy as np
import pytest

import _law_reference as reference
from _systems import union_hull
from cifc_udc import capacity
from cifc_udc.capacity import (
    CONDITION_A,
    INPUT_AXES,
    HiRegimeReport,
    InputJoint,
    V12V2Joint,
    capacity_degraded_z,
    capacity_semidet_hi,
    degraded_z_bounds,
    degraded_z_polygon,
    hi_regime_falsify,
    reduced_region,
    reduced_region_semidet,
    reduction_factorization,
    semidet_hi_bounds,
    semidet_hi_polygon,
    v2_equals_y2_lift,
    violation_gaps,
)
from cifc_udc.channel import ChannelSpec, classify, load_channel
from cifc_udc.errors import (
    CardinalityMismatch,
    GridTooLarge,
    HiRegimeFalsified,
    NegativeEntry,
    NotDegraded,
    NotSemiDeterministic,
    NotZChannel,
    NumericsError,
    ParseError,
    ShapeMismatch,
    SumNotOne,
)
from cifc_udc.inner import (
    admissible,
    assemble_joint,
    inner_constants,
    region_for_distribution,
)
from cifc_udc.oracle import grid_region_oracle
from cifc_udc.outer import (
    V12_AXES,
    SearchConfig,
    V12Joint,
    five_bounds,
    law_bounds,
    outer_polygon,
)
from cifc_udc.pmf import Information, clip_information
from cifc_udc.polytope import region_contains, region_to_dict, regions_close

CHANNELS = Path(__file__).resolve().parents[1] / "channels"


def z_fixture():
    # y2 reveals both sender inputs, y1 sees the parity of x1 and the helper
    return ChannelSpec.from_outputs(
        (2, 2, 2, 2, 4), lambda x1, x2, x3: (x1 ^ x3, x1 * 2 + x2)
    )


def z_fixture_y1_const():
    return ChannelSpec.from_outputs(
        (2, 2, 2, 1, 4), lambda x1, x2, x3: (0, x1 * 2 + x2)
    )


def semidet_fixture():
    # y1 depends only on (x1, x3); y2 is a deterministic mix of all three
    return ChannelSpec.from_outputs(
        (2, 2, 2, 2, 2), lambda x1, x2, x3: (x1 ^ x3, x2 ^ (x1 & x3))
    )


def hi_fixture():
    # no helper symbol; y1 = x2 and y2 = (x1, x2): the premise pair holds
    # for every distribution, one side with equality
    return ChannelSpec.from_outputs(
        (2, 2, 1, 2, 4), lambda x1, x2, x3: (x2, x1 * 2 + x2)
    )


def falsifier_fixture():
    return ChannelSpec.from_outputs(
        (2, 2, 2, 2, 2), lambda x1, x2, x3: (x3, x2)
    )


def degenerate_hi_fixture():
    return ChannelSpec.from_outputs(
        (2, 2, 2, 1, 2), lambda x1, x2, x3: (0, x1)
    )


def clean_channel():
    return ChannelSpec.from_outputs((2, 2, 2, 2, 2), lambda x1, x2, x3: (x1, x2))


def measure(tensor, labels, term, *groups):
    """``term`` ("mi" or "cond") of the space-separated label ``groups`` on
    a fresh ``Information`` table over ``tensor``, clipped at zero."""
    info = Information(tensor, " ".join(labels))
    return float(clip_information(getattr(info, term)(*groups)))


def joint_of(d, channel):
    """The reference lift of one law: its joint tensor with y1 and y2."""
    return reference.lift(d.pmf, d.cards, channel)[0]


class TestInputJoint:
    def test_validation(self):
        with pytest.raises(ShapeMismatch):
            InputJoint((2, 2), np.ones((2, 2)) / 4)
        bad = np.full((2, 2, 2), 1 / 8.0)
        bad[0, 0, 0] = -1e-3
        with pytest.raises(NegativeEntry):
            InputJoint((2, 2, 2), bad)
        with pytest.raises(SumNotOne):
            InputJoint((2, 2, 2), np.full((2, 2, 2), 1 / 4.0))

    def test_lifted_marginal(self):
        d = InputJoint.random((2, 2, 2), np.random.default_rng(1))
        j = joint_of(d, z_fixture())
        assert j.shape == (2, 2, 2, 2, 4)
        assert np.allclose(j.sum(axis=(3, 4)), d.pmf)

    def test_lifted_card_mismatch(self):
        d = InputJoint.uniform((3, 2, 2))
        with pytest.raises(CardinalityMismatch):
            joint_of(d, z_fixture())
        with pytest.raises(CardinalityMismatch):
            degraded_z_polygon(d, z_fixture())

    def test_constant_v12_lift(self):
        d = InputJoint.random((2, 2, 2), np.random.default_rng(2))
        lifted = reference.with_constant_v12(d, 4)
        assert lifted.cards == (2, 4, 2, 2)
        assert np.allclose(lifted.pmf.sum(axis=1), d.pmf)
        assert np.allclose(lifted.pmf[:, 1:], 0.0)


class TestV12V2Joint:
    def test_validation_and_lift(self):
        with pytest.raises(ShapeMismatch):
            V12V2Joint((2, 2, 2, 2), np.ones((2, 2, 2, 2)) / 16)
        d = V12V2Joint.random((2, 3, 2, 2, 2), np.random.default_rng(3))
        j = joint_of(d, semidet_fixture())
        assert j.shape == (2, 3, 2, 2, 2, 2, 2)
        assert np.allclose(j.sum(axis=(5, 6)), d.pmf)

    def test_lift_card_mismatch(self):
        d = V12V2Joint.uniform((3, 2, 2, 2, 2))
        with pytest.raises(CardinalityMismatch):
            joint_of(d, semidet_fixture())
        with pytest.raises(CardinalityMismatch):
            reduced_region(d, semidet_fixture())


class TestBoundEvaluators:
    def test_degraded_bounds_match_reference(self):
        rng = np.random.default_rng(4)
        ch = z_fixture()
        labels = ("x1", "x2", "x3", "y1", "y2")
        for _ in range(6):
            d = InputJoint.random((2, 2, 2), rng)
            j = joint_of(d, ch)
            want = np.array([
                measure(j, labels, "mi", "y1", "x1 x3"),
                measure(j, labels, "mi", "y2", "x2", "x1 x3"),
                measure(j, labels, "mi", "y2", "x1 x2", "x3"),
            ])
            got = degraded_z_bounds(Information(j, INPUT_AXES))
            assert np.allclose(got, np.clip(want, 0, None), atol=1e-12)

    def test_semidet_bounds_match_reference(self):
        rng = np.random.default_rng(5)
        ch = semidet_fixture()
        labels = ("x1", "v12", "x2", "x3", "y1", "y2")
        for _ in range(6):
            d = V12Joint.random((2, 3, 2, 2), rng)
            j = joint_of(d, ch)
            a = measure(j, labels, "mi", "y1", "x1 v12 x3")
            h2 = measure(j, labels, "cond", "y2", "x1 x3")
            hv = measure(j, labels, "cond", "y2", "x1 v12 x3")
            got = semidet_hi_bounds(Information(j, V12_AXES))
            assert np.allclose(got, [max(a, 0), h2, max(a, 0) + hv], atol=1e-12)

    def test_violation_gaps_match_reference(self):
        rng = np.random.default_rng(6)
        ch = falsifier_fixture()
        labels = ("x1", "v12", "x2", "x3", "y1", "y2")
        for _ in range(6):
            d = V12Joint.random((2, 2, 2, 2), rng)
            j = joint_of(d, ch)
            want_a = (
                measure(j, labels, "mi", "y1", "x1 x3")
                - measure(j, labels, "mi", "y2", "x1", "x3")
            )
            want_b = (
                measure(j, labels, "mi", "y2", "v12", "x1 x3")
                - measure(j, labels, "mi", "y1", "v12", "x1 x3")
            )
            ga, gb = violation_gaps(d, ch)
            assert abs(float(ga) - want_a) < 1e-12
            assert abs(float(gb) - want_b) < 1e-12


class TestDegradedZPolygon:
    def test_gates(self):
        with pytest.raises(NotDegraded):
            degraded_z_polygon(InputJoint.uniform((2, 2, 2)), clean_channel())
        with pytest.raises(NotZChannel):
            degraded_z_polygon(InputJoint.uniform((2, 2, 1)), hi_fixture())
        # force bypasses the class check for containment studies
        reg = degraded_z_polygon(
            InputJoint.uniform((2, 2, 2)), clean_channel(), force=True
        )
        assert not reg.empty

    def test_uniform_gives_unit_square(self):
        reg = degraded_z_polygon(InputJoint.uniform((2, 2, 2)), z_fixture())
        assert np.allclose(
            sorted(map(tuple, reg.vertices)),
            sorted([(0, 0), (1, 0), (1, 1), (0, 1)]),
            atol=1e-9,
        )

    def test_y1_constant_gives_segment(self):
        reg = degraded_z_polygon(
            InputJoint.uniform((2, 2, 2)), z_fixture_y1_const()
        )
        assert np.allclose(
            sorted(map(tuple, reg.vertices)), [(0, 0), (0, 1)], atol=1e-9
        )

    def test_contained_in_converse_polygon(self):
        rng = np.random.default_rng(7)
        ch = z_fixture()
        for _ in range(25):
            d = InputJoint.random((2, 2, 2), rng)
            inner = degraded_z_polygon(d, ch)
            outer = outer_polygon(reference.with_constant_v12(d, 4), ch)
            assert region_contains(outer, inner, tol=1e-9)


class TestCapacityDegradedZ:
    def test_fixture_reaches_unit_square(self):
        cfg = SearchConfig(seed=0, num_samples=20, fan=9)
        reg, evaluated = capacity_degraded_z(z_fixture(), cfg)
        corners = [(0, 0), (1, 0), (1, 1), (0, 1)]
        assert np.allclose(
            sorted(map(tuple, reg.vertices)), sorted(corners), atol=1e-3
        )
        assert len(evaluated) >= 20

    def test_every_evaluated_polygon_contained(self):
        cfg = SearchConfig(seed=1, num_samples=10, fan=9)
        ch = z_fixture()
        reg, evaluated = capacity_degraded_z(ch, cfg)
        for d in evaluated:
            assert region_contains(reg, degraded_z_polygon(d, ch), tol=1e-7)

    def test_deterministic_and_thread_stable(self):
        cfg = SearchConfig(seed=2, num_samples=15, fan=9)
        ch = z_fixture()
        a, ea = capacity_degraded_z(ch, cfg)
        b, eb = capacity_degraded_z(ch, cfg)
        c, ec = capacity_degraded_z(ch, cfg)
        assert region_to_dict(a) == region_to_dict(b) == region_to_dict(c)
        assert len(ea) == len(eb) == len(ec)
        for da, dc in zip(ea, ec):
            assert np.array_equal(da.pmf, dc.pmf)

    def test_out_of_class_raises(self):
        with pytest.raises(NotDegraded):
            capacity_degraded_z(clean_channel(), SearchConfig(num_samples=1))

    def test_dead_channel_collapses(self):
        dead = ChannelSpec.from_outputs((2, 2, 2, 1, 1), lambda *_: (0, 0))
        reg, _ = capacity_degraded_z(
            dead, SearchConfig(seed=0, num_samples=5, fan=5)
        )
        assert np.allclose(reg.vertices, [[0, 0]], atol=1e-12)


class TestHiRegimeFalsify:
    def test_falsifies_with_hand_verifiable_witness(self):
        rep = hi_regime_falsify(
            falsifier_fixture(), SearchConfig(seed=0, num_samples=0)
        )
        assert rep.falsified and rep.condition == CONDITION_A
        assert rep.margin > 0.5
        w = rep.witness()
        # recompute both sides of the violated inequality from the witness
        ga, gb = violation_gaps(w, falsifier_fixture())
        assert abs(float(ga) - rep.margin) < 1e-12

    def test_no_violation_on_degenerate_fixture(self):
        rep = hi_regime_falsify(
            degenerate_hi_fixture(), SearchConfig(seed=0, num_samples=40)
        )
        assert rep.status == "no-violation-found"
        assert rep.margin < 1e-9
        assert rep.witness() is None

    def test_no_violation_on_discovered_fixture(self):
        rep = hi_regime_falsify(
            hi_fixture(), SearchConfig(seed=0, num_samples=60)
        )
        assert rep.status == "no-violation-found"

    def test_deterministic_reports(self):
        cfg = SearchConfig(seed=3, num_samples=25)
        a = hi_regime_falsify(falsifier_fixture(), cfg)
        b = hi_regime_falsify(falsifier_fixture(), cfg)
        assert a == b

    def test_report_round_trip(self):
        # to_dict holds JSON lists where the report holds tuples
        for channel in (falsifier_fixture(), degenerate_hi_fixture()):
            rep = hi_regime_falsify(channel, SearchConfig(seed=0, num_samples=3))
            doc = json.loads(json.dumps(rep.to_dict()))
            fields = {k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()}
            assert HiRegimeReport(**fields) == rep


class TestSemidetPolygons:
    def test_gate(self):
        with pytest.raises(NotSemiDeterministic):
            semidet_hi_polygon(V12Joint.uniform((2, 2, 2, 2)), noisy_channel())

    def test_degenerate_in_class_channel_collapses(self):
        d = V12Joint.uniform((2, 2, 2, 2))
        reg = semidet_hi_polygon(d, degenerate_hi_fixture())
        assert np.allclose(reg.vertices, [[0, 0]], atol=1e-12)

    def test_r2_bound_is_conditional_output_entropy(self):
        ch = ChannelSpec.from_outputs(
            (2, 2, 2, 2, 2), lambda x1, x2, x3: (x1, x2 ^ x1)
        )
        d = V12Joint.uniform((2, 2, 2, 2))
        (b,) = law_bounds(semidet_hi_bounds, d.pmf[None], d.cards, ch, V12_AXES)
        assert abs(b[1] - 1.0) < 1e-12

    def test_rows_coincide_with_converse_rows(self):
        # for a deterministic y2 three converse rows lose their noise term
        # and land exactly on the achievable rows, so each polygon nests
        rng = np.random.default_rng(14)
        ch = semidet_fixture()
        for _ in range(12):
            d = V12Joint.random((2, 3, 2, 2), rng)
            # one table serves both evaluators: they name the same axes
            table = Information.of_laws(d.pmf[None], d.cards, V12_AXES, ch)
            (sd,), (fb,) = semidet_hi_bounds(table), five_bounds(table)
            assert abs(sd[0] - fb[1]) < 1e-9
            assert abs(sd[1] - fb[2]) < 1e-9
            assert abs(sd[2] - fb[4]) < 1e-9
            assert region_contains(
                outer_polygon(d, ch), semidet_hi_polygon(d, ch), tol=1e-9
            )


class TestReducedRegion:
    def test_constant_auxiliaries_give_segment(self):
        # with both auxiliaries pinned, R2 is capped at zero and R1 at
        # min(I(Y1;X1,X3), I(Y2;X1|X3)) through the sum-rate rows
        ch = z_fixture()
        base = InputJoint.uniform((2, 2, 2))
        pmf = np.zeros((2, 1, 1, 2, 2))
        pmf[:, 0, 0, :, :] = base.pmf
        reg = reduced_region(V12V2Joint((2, 1, 1, 2, 2), pmf), ch)
        labels = ("x1", "x2", "x3", "y1", "y2")
        j = joint_of(base, ch)
        a = measure(j, labels, "mi", "y1", "x1 x3")
        k2 = measure(j, labels, "mi", "y2", "x1", "x3")
        cap = min(a, k2)
        assert cap > 0.5
        assert np.allclose(
            sorted(map(tuple, reg.vertices)), [(0, 0), (cap, 0)], atol=1e-9
        )

    def test_clean_channel_v2_carries_x2(self):
        # both users decode cleanly, but the sum-rate row keeps the total
        # at one bit: the second auxiliary rides through y2 alone
        ch = clean_channel()
        pmf = np.zeros((2, 1, 2, 2, 2))
        for x1 in range(2):
            for x2 in range(2):
                for x3 in range(2):
                    pmf[x1, 0, x2, x2, x3] = 1 / 8.0
        reg = reduced_region(V12V2Joint((2, 1, 2, 2, 2), pmf), ch)
        assert np.allclose(
            sorted(map(tuple, reg.vertices)),
            sorted([(0, 0), (1, 0), (0, 1)]),
            atol=1e-9,
        )

    def test_contains_origin(self):
        rng = np.random.default_rng(8)
        ch = semidet_fixture()
        for _ in range(20):
            d = V12V2Joint.random((2, 2, 2, 2, 2), rng)
            reg = reduced_region(d, ch)
            assert not reg.empty
            assert (
                reg.vertices[:, 0].min() <= 1e-9
                and reg.vertices[:, 1].min() <= 1e-9
            )


class TestSubstitutionIdentity:
    def test_iv6_equals_iv5_with_output_auxiliary(self):
        rng = np.random.default_rng(9)
        ch = semidet_fixture()
        for _ in range(15):
            d = V12Joint.random((2, 3, 2, 2), rng)
            a = reduced_region_semidet(d, ch)
            b = reduced_region(v2_equals_y2_lift(d, ch), ch)
            assert regions_close(a, b, tol=1e-9)

    def test_lift_structure(self):
        ch = semidet_fixture()
        d = V12Joint.random((2, 2, 2, 2), np.random.default_rng(10))
        lifted = v2_equals_y2_lift(d, ch)
        assert lifted.cards == (2, 2, 2, 2, 2)
        assert np.allclose(lifted.pmf.sum(axis=2), d.pmf)

    def test_lift_checks_the_input_cards(self):
        # |X1| = 1 once broadcast into a law summing to 2, and |X1| = 3
        # into numpy's own error; the channel's inputs are (2, 2, 2)
        for cards in ((1, 2, 2, 2), (3, 2, 2, 2), (2, 2, 2, 3)):
            with pytest.raises(CardinalityMismatch):
                v2_equals_y2_lift(V12Joint.uniform(cards), semidet_fixture())

    def test_gate(self):
        with pytest.raises(NotSemiDeterministic):
            reduced_region_semidet(
                V12Joint.uniform((2, 2, 2, 2)), noisy_channel()
            )


def law_marginal(joint):
    """p(x1, v12, v2, x2, x3) of an assembled joint, by a numpy sum."""
    law = ("x1", "v12", "v2", "x2", "x3")
    drop = tuple(a for a, label in enumerate(joint.labels) if label not in law)
    kept = [label for label in joint.labels if label in law]
    return joint.probs.sum(axis=drop).transpose([kept.index(l) for l in law])


class TestSpecialization:
    def test_factorization_reproduces_distribution(self):
        rng = np.random.default_rng(11)
        ch = semidet_fixture()
        d = V12V2Joint.random((2, 2, 2, 2, 2), rng)
        fz = reduction_factorization(d, ch)
        assert np.allclose(law_marginal(assemble_joint(fz, ch)), d.pmf, atol=1e-12)

    def test_unreached_conditions_get_uniform_rows(self):
        # x3 = 2 never occurs, nor x1 = 1 beside x3 = 0
        pmf = np.random.default_rng(14).dirichlet(np.ones(48)).reshape(2, 2, 2, 2, 3)
        pmf[..., 2] = 0.0
        pmf[1, ..., 0] = 0.0
        d = V12V2Joint(pmf.shape, pmf / pmf.sum())
        ch = ChannelSpec.from_outputs((2, 2, 3, 2, 2), lambda x1, x2, x3: (x1 ^ x3 % 2, x2))
        fz = reduction_factorization(d, ch)
        assert np.allclose(law_marginal(assemble_joint(fz, ch)), d.pmf, atol=1e-12)
        p_x1, p_block, p_x2 = (fz.factors[i].table for i in (1, 4, 6))
        assert np.array_equal(p_x1[2], [0.5, 0.5])
        assert np.all(p_x1[:2] != 0.5)
        for x3, x1 in [(2, 0), (2, 1), (0, 1)]:
            assert np.all(p_block[x3, x1] == 0.25)
            assert np.all(p_x2[x3, x1] == 0.5)
        assert not np.any(p_block[1] == 0.25) and not np.any(p_x2[1] == 0.5)

    def test_specialized_constants_admissible(self):
        rng = np.random.default_rng(12)
        ch = semidet_fixture()
        d = V12V2Joint.random((2, 2, 2, 2, 2), rng)
        c = inner_constants(assemble_joint(reduction_factorization(d, ch), ch))
        assert admissible(c)
        assert abs(c.C) < 1e-12 and abs(c.B) < 1e-12

    def test_pipeline_matches_reduced_region(self):
        rng = np.random.default_rng(13)
        ch = semidet_fixture()
        for _ in range(8):
            d = V12V2Joint.random((2, 2, 2, 2, 2), rng)
            via_pipeline = region_for_distribution(
                inner_constants(assemble_joint(reduction_factorization(d, ch), ch))
            )
            direct = reduced_region(d, ch)
            assert regions_close(via_pipeline, direct, tol=1e-7)

    def test_card_mismatch(self):
        with pytest.raises(CardinalityMismatch):
            reduction_factorization(
                V12V2Joint.uniform((3, 2, 2, 2, 2)), semidet_fixture()
            )


class TestCapacitySemidetHi:
    def test_discovered_fixture_triangle(self):
        cfg = SearchConfig(seed=0, num_samples=40, fan=17)
        reg, rep, evaluated = capacity_semidet_hi(hi_fixture(), cfg)
        assert rep.status == "no-violation-found"
        assert np.allclose(
            sorted(map(tuple, reg.vertices)),
            sorted([(0, 0), (1, 0), (0, 1)]),
            atol=1e-3,
        )
        assert len(evaluated) >= 40

    def test_refuses_falsified_channel(self):
        with pytest.raises(HiRegimeFalsified) as exc:
            capacity_semidet_hi(
                falsifier_fixture(), SearchConfig(seed=0, num_samples=0)
            )
        assert exc.value.report.condition == CONDITION_A

    def test_force_overrides_refusal(self):
        cfg = SearchConfig(seed=0, num_samples=5, fan=5)
        reg, rep, _ = capacity_semidet_hi(falsifier_fixture(), cfg, force=True)
        assert rep.falsified
        assert not reg.empty

    def test_degenerate_channel_origin(self):
        cfg = SearchConfig(seed=0, num_samples=10, fan=5)
        reg, rep, _ = capacity_semidet_hi(degenerate_hi_fixture(), cfg)
        assert rep.status == "no-violation-found"
        assert np.allclose(reg.vertices, [[0, 0]], atol=1e-12)

    def test_deterministic(self):
        cfg = SearchConfig(seed=4, num_samples=12, fan=9)
        a, ra, _ = capacity_semidet_hi(hi_fixture(), cfg)
        b, rb, _ = capacity_semidet_hi(hi_fixture(), cfg)
        assert region_to_dict(a) == region_to_dict(b)
        assert ra == rb

    def test_gate(self):
        with pytest.raises(NotSemiDeterministic):
            capacity_semidet_hi(noisy_channel(), SearchConfig(num_samples=1))

    def test_a_row_the_falsifier_missed_raises_with_its_witness(self, monkeypatch):
        # a falsifier that finds nothing leaves the violation to the screen
        # of the region's rows, whose witness must carry its own margin
        channel = load_channel((CHANNELS / "hi_falsified.json").read_text())
        cfg = SearchConfig(seed=3, num_samples=20)
        quiet = HiRegimeReport("no-violation-found", 20, 0, 3, 4, 0.0)
        monkeypatch.setattr(
            "cifc_udc.capacity.hi_regime_falsify", lambda channel, cfg: quiet
        )
        with pytest.raises(HiRegimeFalsified, match="during region sampling") as exc:
            capacity_semidet_hi(channel, cfg)
        report = exc.value.report
        assert report.falsified and report.seed == 3 and report.samples == 20
        gaps = violation_gaps(report.witness(), channel)
        assert abs(float(max(gaps)) - report.margin) <= 1e-12

    @pytest.mark.parametrize("shift, raises", [(1e-6, True), (1e-10, False)])
    def test_drop_guard_names_the_first_row_whose_caps_move(
        self, monkeypatch, shift, raises
    ):
        # under the premise the five reduced caps equal the formula's; a
        # term off by more than DROP_CONSISTENCY_TOL must trip the guard
        channel = load_channel((CHANNELS / "hi_in_class.json").read_text())
        real = capacity._reduced_terms_y2
        monkeypatch.setattr(
            capacity, "_reduced_terms_y2",
            lambda info: real(info) + np.array([shift, 0.0, 0.0, 0.0, 0.0]),
        )
        cfg = SearchConfig(seed=1, num_samples=2, fan=4)
        if raises:
            with pytest.raises(NumericsError, match=r"at sample 0$"):
                capacity_semidet_hi(channel, cfg)
        else:
            capacity_semidet_hi(channel, cfg)


def noisy_channel():
    # y2 output noise breaks the deterministic requirement
    t = np.zeros((2, 2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            for x3 in range(2):
                t[x1, x2, x3, x1, :] = [0.7, 0.3]
    return ChannelSpec((2, 2, 2, 2, 2), t)


def lattice_pmfs(resolution, shape):
    # stars and bars: every pmf whose entries are multiples of 1/resolution
    import itertools

    cells = int(np.prod(shape))
    slots = resolution + cells - 1
    for bars in itertools.combinations(range(slots), cells - 1):
        edges = (-1,) + bars + (slots,)
        counts = [edges[i + 1] - edges[i] - 1 for i in range(cells)]
        yield np.array(counts, dtype=float).reshape(shape) / resolution


class TestGridOracle:
    def test_converse_clean_channel_square(self):
        reg = grid_region_oracle(clean_channel(), "converse", 4, card_v12=1)
        assert np.allclose(
            sorted(map(tuple, reg.vertices)),
            sorted([(0, 0), (1, 0), (1, 1), (0, 1)]),
            atol=1e-9,
        )

    def test_converse_matches_production_hull(self):
        ch = falsifier_fixture()
        grid = grid_region_oracle(ch, "converse", 2, card_v12=2)
        polys = [
            outer_polygon(V12Joint((2, 2, 2, 2), p), ch)
            for p in lattice_pmfs(2, (2, 2, 2, 2))
        ]
        assert regions_close(grid, union_hull(polys), tol=1e-9)

    def test_degraded_z_matches_production_hull(self):
        ch = z_fixture()
        grid = grid_region_oracle(ch, "degraded-z", 3)
        polys = [
            degraded_z_polygon(InputJoint((2, 2, 2), p), ch)
            for p in lattice_pmfs(3, (2, 2, 2))
        ]
        assert regions_close(grid, union_hull(polys), tol=1e-9)

    def test_degraded_z_reaches_square(self):
        reg = grid_region_oracle(z_fixture(), "degraded-z", 4)
        assert np.allclose(
            sorted(map(tuple, reg.vertices)),
            sorted([(0, 0), (1, 0), (1, 1), (0, 1)]),
            atol=1e-9,
        )

    def test_semidet_hi_matches_production_hull(self):
        ch = hi_fixture()
        grid = grid_region_oracle(ch, "semidet-hi", 2, card_v12=2)
        polys = [
            semidet_hi_polygon(V12Joint((2, 2, 2, 1), p), ch)
            for p in lattice_pmfs(2, (2, 2, 2, 1))
        ]
        assert regions_close(grid, union_hull(polys), tol=1e-9)

    def test_semidet_hi_grid_agrees_with_search(self):
        cfg = SearchConfig(seed=0, num_samples=30, fan=17)
        reg, _, _ = capacity_semidet_hi(hi_fixture(), cfg)
        grid = grid_region_oracle(hi_fixture(), "semidet-hi", 6, card_v12=2)
        assert regions_close(reg, grid, tol=1e-2)

    def test_reduced_matches_production_hull(self):
        ch = semidet_fixture()
        grid = grid_region_oracle(ch, "reduced", 2, card_v12=1, card_v2=2)
        polys = [
            reduced_region(V12V2Joint((2, 1, 2, 2, 2), p), ch)
            for p in lattice_pmfs(2, (2, 1, 2, 2, 2))
        ]
        assert regions_close(grid, union_hull(polys), tol=1e-9)

    def test_resolution_one_collapses(self):
        reg = grid_region_oracle(z_fixture(), "degraded-z", 1)
        assert np.allclose(reg.vertices, [[0, 0]], atol=1e-12)

    def test_size_guard(self):
        with pytest.raises(GridTooLarge):
            grid_region_oracle(z_fixture(), "degraded-z", 200)

    def test_argument_checks(self):
        with pytest.raises(ParseError):
            grid_region_oracle(z_fixture(), "no-such-formula", 2)
        with pytest.raises(ParseError):
            grid_region_oracle(z_fixture(), "degraded-z", 0)


def test_v12_lifts_match_the_reference():
    """The V2 = Y2 lift keeps the bytes of the old per-symbol loop on every
    semi-deterministic fixture."""
    rng = np.random.default_rng(17)
    lifted = 0
    for path in sorted(CHANNELS.glob("*.json")):
        ch = load_channel(path.read_text())
        if not classify(ch).is_semi_deterministic:
            continue
        cx1, cx2, cx3 = ch.cards[:3]
        for card_v12 in (1, 2, 3):
            law_cards = (cx1, card_v12, cx2, cx3)
            law = V12Joint(
                law_cards, rng.dirichlet(np.full(np.prod(law_cards), 0.5)).reshape(law_cards)
            )
            got = v2_equals_y2_lift(law, ch)
            want = reference.v2_equals_y2_lift(law, ch)
            assert got.cards == want.cards
            assert reference.same_bytes(got.pmf, want.pmf)
            lifted += 1
    assert lifted >= 3 * 4


@pytest.mark.parametrize("score, law, name", [
    (outer_polygon, InputJoint, "degraded_z"),
    (degraded_z_polygon, V12Joint, "degraded_z"),
    (reduced_region, V12Joint, "degraded_z"),
    (semidet_hi_polygon, InputJoint, "hi_in_class"),
    (reduced_region_semidet, InputJoint, "hi_in_class"),
    (violation_gaps, InputJoint, "hi_in_class"),
], ids=lambda v: getattr(v, "__name__", v))
def test_a_law_of_the_wrong_arity_is_a_domain_error(score, law, name):
    # the law's x1, x2 and x3 fit the channel; its auxiliaries do not
    ch = load_channel((CHANNELS / f"{name}.json").read_text())
    cx1, cx2, cx3 = ch.cards[:3]
    with pytest.raises(ShapeMismatch):
        score(law.uniform((cx1,) + (2,) * (law.arity - 3) + (cx2, cx3)), ch)
