"""Acceptance checks, one test per criterion.

Each test enforces its own runtime budget and tolerance so the suite
doubles as a regression harness for both correctness and speed.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from _systems import materialized_rows, random_bounded_system
from cifc_udc import (
    ChannelSpec,
    InputJoint,
    SamplerConfig,
    SearchConfig,
    V12Joint,
    V12V2Joint,
    admissible,
    assemble_joint,
    capacity_degraded_z,
    conditional_entropy,
    conditional_mutual_information,
    degraded_z_polygon,
    hi_regime_falsify,
    inner_constants,
    inner_region,
    outer_polygon,
    outer_region_estimate,
    reduced_region,
    reduced_region_semidet,
    reduction_factorization,
    region_contains,
    region_for_distribution,
    region_from_vertices,
    regions_close,
    sample_factorizations,
    v2_equals_y2_lift,
    violation_gaps,
    with_constant_v12,
)
from cifc_udc.oracle import (
    oracle_conditional_entropy,
    oracle_conditional_mi,
    oracle_projected_vertices,
)
from cifc_udc.pmf import JointPMF
from cifc_udc.polytope import polygon_extract, project_to_plane

CHANNELS = Path(__file__).resolve().parents[1] / "channels"

UNIT_SQUARE = region_from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)])


def clean_channel():
    return ChannelSpec.from_outputs((2, 2, 2, 2, 2), lambda x1, x2, x3: (x1, x2))


def z_fixture():
    return ChannelSpec.from_outputs(
        (2, 2, 2, 2, 4), lambda x1, x2, x3: (x1 ^ x3, x1 * 2 + x2)
    )


def semidet_fixture():
    return ChannelSpec.from_outputs(
        (2, 2, 2, 2, 2), lambda x1, x2, x3: (x1 ^ x3, x2 ^ (x1 & x3))
    )


def test_criterion_1_information_measures():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for trial in range(200):
        n = int(rng.integers(2, 6))
        labels = tuple(f"v{i}" for i in range(n))
        named = tuple((name, 2) for name in labels)
        alpha = 0.4 if trial % 4 == 0 else 1.0
        probs = rng.dirichlet(np.full(2**n, alpha)).reshape((2,) * n)
        pm = JointPMF(named, probs)

        perm = [labels[i] for i in rng.permutation(n)]
        na = int(rng.integers(1, n))
        nb = int(rng.integers(1, n - na + 1))
        nc = int(rng.integers(0, n - na - nb + 1))
        ga, gb = perm[:na], perm[na:na + nb]
        gc = perm[na + nb:na + nb + nc]

        mi = conditional_mutual_information(pm, ga, gb, gc)
        want = oracle_conditional_mi(named, probs, ga, gb, gc)
        assert abs(mi - want) < 1e-12

        ent = conditional_entropy(pm, ga, gc)
        want_ent = oracle_conditional_entropy(named, probs, ga, gc)
        assert abs(ent - want_ent) < 1e-12

        flipped = conditional_mutual_information(pm, gb, ga, gc)
        assert abs(mi - flipped) < 1e-9

        if nb >= 2:
            first, rest = gb[:1], gb[1:]
            part_a = conditional_mutual_information(pm, ga, first, gc)
            part_b = conditional_mutual_information(pm, ga, rest, first + gc)
            assert abs(mi - part_a - part_b) < 1e-9
    assert time.perf_counter() - start < 10


def test_criterion_2_fm_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    for trial in range(100):
        sys_ = random_bounded_system(rng, with_equality=(trial % 3 == 0))
        r1, r2 = sys_.variables[0], sys_.variables[1]
        order = list(sys_.variables[2:])
        region = polygon_extract(
            project_to_plane(sys_, r1, r2, order=order), r1, r2
        )
        flipped = polygon_extract(
            project_to_plane(sys_, r1, r2, order=list(reversed(order))), r1, r2
        )
        assert regions_close(region, flipped, tol=1e-7)

        coefs, bounds = materialized_rows(sys_)
        points = oracle_projected_vertices(
            coefs, bounds, sys_.eq_coefs, sys_.eq_values,
            sys_.index_of(r1), sys_.index_of(r2),
        )
        if region.empty:
            assert not points
        else:
            assert regions_close(region, region_from_vertices(points), tol=1e-7)
    assert time.perf_counter() - start < 30


def test_criterion_3_clean_channel_sandwich():
    start = time.perf_counter()
    channel = clean_channel()
    inner, _ = inner_region(channel, SamplerConfig(seed=1, num_samples=0))
    target = region_from_vertices([(1 - 1e-6, 1 - 1e-6)])
    assert region_contains(inner, target, tol=1e-9)

    outer, caveat = outer_region_estimate(
        channel, SearchConfig(seed=1, num_samples=2000)
    )
    assert caveat["samples"] == 2000
    assert regions_close(outer, UNIT_SQUARE, tol=1e-3)
    assert region_contains(outer, inner, tol=1e-9)
    assert time.perf_counter() - start < 120


def test_criterion_4_constants_structure():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    checked = 0
    trial = 0
    while checked < 200:
        transition = rng.dirichlet(np.ones(4), size=8).reshape(2, 2, 2, 2, 2)
        channel = ChannelSpec((2, 2, 2, 2, 2), transition)
        cfg = SamplerConfig(seed=trial, num_samples=4)
        trial += 1
        # the draws only: the corners lead the stream
        corners = len(sample_factorizations(channel, SamplerConfig()))
        for factorization in sample_factorizations(channel, cfg)[corners:]:
            constants = inner_constants(assemble_joint(factorization, channel))
            if not admissible(constants):
                continue
            c = constants
            for left, right in (
                (c.D, c.E), (c.E, c.H), (c.H, c.P), (c.F, c.I),
                (c.G, c.J), (c.K, c.L), (c.L, c.M), (c.N2, c.N1),
            ):
                assert left >= right - 1e-9
            region = region_for_distribution(constants)
            assert not region.empty
            assert all(bound >= -1e-9 for _, _, bound in region.halfplanes)
            checked += 1
            if checked == 200:
                break
    assert time.perf_counter() - start < 120


def test_criterion_5_specialization_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    channel = semidet_fixture()
    for _ in range(50):
        d = V12V2Joint.random((2, 2, 2, 2, 2), rng)
        specialized = region_for_distribution(
            inner_constants(
                assemble_joint(reduction_factorization(d, channel), channel)
            )
        )
        assert regions_close(specialized, reduced_region(d, channel), tol=1e-7)

        dv = V12Joint.random((2, 2, 2, 2), rng)
        assert regions_close(
            reduced_region_semidet(dv, channel),
            reduced_region(v2_equals_y2_lift(dv, channel), channel),
            tol=1e-9,
        )
    assert time.perf_counter() - start < 120


def test_criterion_6_capacity_sandwich():
    start = time.perf_counter()
    channel = z_fixture()
    card_v12 = 4

    capacity, evaluated = capacity_degraded_z(
        channel, SearchConfig(seed=6, num_samples=50)
    )
    assert regions_close(capacity, UNIT_SQUARE, tol=1e-3)

    inner, _ = inner_region(channel, SamplerConfig(seed=6, num_samples=50))
    assert region_contains(capacity, inner, tol=1e-6)

    # feed the capacity search's own evaluation set to the converse
    # estimator so the sandwich uses one shared sample log
    lifted = tuple(with_constant_v12(d, card_v12) for d in evaluated)
    outer, _ = outer_region_estimate(
        channel,
        SearchConfig(seed=6, num_samples=50, card_v12=card_v12),
        extra_distributions=lifted,
    )
    assert region_contains(outer, capacity, tol=1e-6)

    rng = np.random.default_rng(606)
    for _ in range(100):
        d = InputJoint.random((2, 2, 2), rng)
        narrow = degraded_z_polygon(d, channel)
        wide = outer_polygon(with_constant_v12(d, card_v12), channel)
        assert region_contains(wide, narrow, tol=1e-9)
    assert time.perf_counter() - start < 180


def test_criterion_7_falsifier_determinism():
    start = time.perf_counter()
    falsified_channel = ChannelSpec.from_outputs(
        (2, 2, 2, 2, 2), lambda x1, x2, x3: (x3, x2)
    )
    degenerate = ChannelSpec.from_outputs(
        (2, 2, 2, 1, 2), lambda x1, x2, x3: (0, x1)
    )

    cfg = SearchConfig(seed=7, num_samples=30)
    report = hi_regime_falsify(falsified_channel, cfg)
    assert report.falsified
    assert report.condition == "I(Y2;X1|X3) >= I(Y1;X1,X3)"
    witness = report.witness()
    gap_a, gap_b = violation_gaps(witness, falsified_channel)
    assert abs(max(float(gap_a), float(gap_b)) - report.margin) < 1e-12
    assert report.margin > 0.5
    assert hi_regime_falsify(falsified_channel, cfg) == report

    quiet = hi_regime_falsify(degenerate, cfg)
    assert quiet.status == "no-violation-found"
    assert hi_regime_falsify(degenerate, cfg) == quiet
    assert time.perf_counter() - start < 60


def test_criterion_8_cli_byte_determinism(tmp_path):
    def run(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "cifc_udc", *map(str, argv)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    jobs = {
        "outer": ["outer", CHANNELS / "degraded_z.json", "--samples", 15,
                  "--seed", 2, "--fan", 9],
        "capacity": ["capacity", CHANNELS / "hi_in_class.json", "--class",
                     "semidet-hi", "--samples", 10, "--seed", 2],
        "inner": ["inner", CHANNELS / "clean.json", "--samples", 6,
                  "--seed", 2],
    }
    for name, argv in jobs.items():
        single = tmp_path / f"{name}_single.json"
        again = tmp_path / f"{name}_again.json"
        threaded = tmp_path / f"{name}_threaded.json"
        run(*argv, "--out", single)
        run(*argv, "--out", again)
        run(*argv, "--threads", 4, "--out", threaded)
        assert single.read_bytes() == again.read_bytes()
        assert single.read_bytes() == threaded.read_bytes()
        base = str(single)[:-5]
        assert Path(base + ".csv").read_bytes() == Path(
            str(threaded)[:-5] + ".csv"
        ).read_bytes()
        doc = json.loads(single.read_text())
        assert "region" in doc
