"""Inner-bound pipeline: factorizations, constants, drop-case regions, sampling."""

import dataclasses
import functools
import itertools
import re
from pathlib import Path

import numpy as np
import pytest

import _fm_reference as fm_reference
import _law_reference as reference
from _systems import case_system, materialized_rows, union_hull
from cifc_udc.channel import ChannelSpec, load_channel
from cifc_udc.errors import (
    CardinalityMismatch,
    InadmissibleConstants,
    InvalidFactor,
    MissingVariable,
    NegativeEntry,
    ShapeMismatch,
    SumNotOne,
    TooLarge,
)
from cifc_udc import inner, polytope
from cifc_udc.inner import (
    AUX_LABELS,
    CONSTANT_NAMES,
    DROP_CASES,
    FACTOR_SIGNATURES,
    JOINT_LABELS,
    InnerConstants,
    InnerFactorization,
    SamplerConfig,
    admissible,
    assemble_joint,
    inner_constants,
    inner_region,
    region_for_distribution,
    sample_factorizations,
    _CORNERS,
    _DEFAULT_MODES,
    _constant_rows,
    _corner_tables,
    _factorization,
    _random_tables,
    _signature_pairs,
    _stream,
)
from cifc_udc.oracle import (
    oracle_assemble_joint,
    oracle_conditional_mi,
    oracle_projected_vertices,
)
from cifc_udc.pmf import (
    SUM_TOL,
    ConditionalFactor,
    Information,
    JointPMF,
    clip_information,
)
from cifc_udc.polytope import (
    polygon_extract,
    polygon_points,
    project_to_plane,
    region_contains,
    region_from_vertices,
    regions_close,
)


def clean_channel():
    return ChannelSpec.from_outputs((2, 2, 2, 2, 2), lambda x1, x2, x3: (x1, x2))


def default_cards(ch, **overrides):
    cards = {name: 2 for name in AUX_LABELS}
    for label in ("x1", "x2", "x3", "y2"):
        cards[label] = ch.card(label)
    cards.update(overrides)
    return cards


def random_channel(rng, cards=(2, 2, 2, 2, 2)):
    rows = int(np.prod(cards[:3]))
    out = int(np.prod(cards[3:]))
    t = rng.dirichlet(np.ones(out), size=rows).reshape(cards)
    return ChannelSpec(cards, t)


def corner_catalog(cards):
    """The corner factorizations over ``cards``, one object each."""
    return [_factorization(cards, t) for t in _corner_tables(tuple(cards.items()))]


def random_factorization(cards, rng):
    """One factorization drawn on ``rng``, as the stream draws a sample."""
    return _factorization(cards, _random_tables(cards, rng))


def yhat_constant(f):
    """``f`` with its output-estimate factor forced constant."""
    yh2 = f.factors[8]
    const = ConditionalFactor.from_modes(yh2.targets, yh2.given, "const")
    return InnerFactorization(f.factors[:8] + (const,))


def constants_with(**values):
    base = {name: 0.0 for name in CONSTANT_NAMES}
    base.update(values)
    return InnerConstants(**base)


# -- factorization type ------------------------------------------------------

def test_signature_validation():
    ch = clean_channel()
    cards = default_cards(ch)
    corner = corner_catalog(cards)[0]
    # swap the output-estimate factor for one conditioning on y1 instead of y2
    targets = (("yh2", 2),)
    bad_given = tuple(
        (l if l != "y2" else "y1", c) for l, c in corner.factors[8].given
    )
    bad = ConditionalFactor.from_modes(targets, bad_given, "const")
    with pytest.raises(InvalidFactor):
        InnerFactorization(corner.factors[:8] + (bad,))


def test_wrong_factor_count():
    ch = clean_channel()
    corner = corner_catalog(default_cards(ch))[0]
    with pytest.raises(InvalidFactor):
        InnerFactorization(corner.factors[:8])


def test_cross_factor_cardinality_clash():
    ch = clean_channel()
    cards = default_cards(ch)
    corner = corner_catalog(cards)[0]
    # v1 factor says card 3 while every other factor says card 2
    targets, given = _signature_pairs(2, dict(cards, v1=3))
    odd = ConditionalFactor.from_modes(targets, given, "uniform")
    with pytest.raises(CardinalityMismatch):
        InnerFactorization(corner.factors[:2] + (odd,) + corner.factors[3:])


def test_channel_cardinality_check():
    ch = clean_channel()
    wide = ChannelSpec.from_outputs((3, 2, 2, 3, 2), lambda a, b, c: (a, b))
    corner = corner_catalog(default_cards(ch))[0]
    with pytest.raises(CardinalityMismatch):
        assemble_joint(corner, wide)


# -- joint assembly ----------------------------------------------------------

def test_constant_aux_uniform_inputs_joint():
    ch = clean_channel()
    cards = default_cards(ch, **{name: 1 for name in AUX_LABELS})
    f = InnerFactorization(
        tuple(
            ConditionalFactor.from_modes(
                *_signature_pairs(i, cards),
                "uniform" if FACTOR_SIGNATURES[i][0][0] in ("x1", "x2", "x3") else "const",
            )
            for i in range(9)
        )
    )
    joint = assemble_joint(f, ch)
    # uniform over inputs, outputs copied, all auxiliary axes singletons
    expect = np.zeros([1] * 7 + [2, 2, 2, 2, 2, 1])
    for x1 in range(2):
        for x2 in range(2):
            for x3 in range(2):
                expect[0, 0, 0, 0, 0, 0, 0, x1, x2, x3, x1, x2, 0] = 1 / 8
    assert joint.labels == (
        "u1p", "u1", "v1", "u2p", "u2", "v12", "v2",
        "x1", "x2", "x3", "y1", "y2", "yh2",
    )
    np.testing.assert_allclose(joint.probs, expect, atol=1e-15)


def test_direct_corner_joint_matches_loop_oracle():
    ch = clean_channel()
    f = corner_catalog(default_cards(ch))[1]
    joint = assemble_joint(f, ch)
    chain = [(fac.targets, fac.given, fac.table) for fac in f.factors[:8]]
    chf = ch.as_factor()
    chain.append((chf.targets, chf.given, chf.table))
    fac = f.factors[8]
    chain.append((fac.targets, fac.given, fac.table))
    variables, probs = oracle_assemble_joint(chain)
    assert variables == joint.variables
    np.testing.assert_allclose(probs, joint.probs, atol=1e-14)
    # support check: x1 always equals v1, x2 always equals v2
    nz = np.argwhere(joint.probs > 0)
    lab = joint.labels
    v1, v2 = lab.index("v1"), lab.index("v2")
    x1, x2 = lab.index("x1"), lab.index("x2")
    assert np.all(nz[:, v1] == nz[:, x1])
    assert np.all(nz[:, v2] == nz[:, x2])


# -- constants ---------------------------------------------------------------

def test_clean_corner_constants_and_region():
    ch = clean_channel()
    f = corner_catalog(default_cards(ch))[1]
    c = inner_constants(assemble_joint(f, ch))
    expect = dict(
        A=0, B=0, C=0, D=1, E=1, F=1, G=1, H=0, I=0, J=0,
        K=1, L=1, M=1, N1=0, N2=0, P=0,
    )
    for name, value in expect.items():
        assert getattr(c, name) == pytest.approx(value, abs=1e-12), name
    region = region_for_distribution(c)
    square = region_from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert regions_close(region, square, tol=1e-9)


def test_missing_variable():
    ch = clean_channel()
    f = corner_catalog(default_cards(ch))[0]
    joint = assemble_joint(f, ch)
    v2 = joint.labels.index("v2")
    variables = joint.variables[:v2] + joint.variables[v2 + 1:]
    with pytest.raises(MissingVariable):
        inner_constants(JointPMF(variables, joint.probs.sum(axis=v2)))


def test_constants_match_definition_oracle():
    for trial in range(12):
        rng = np.random.default_rng([31, trial])
        ch = random_channel(rng)
        f = random_factorization(default_cards(ch), rng)
        joint = assemble_joint(f, ch)
        c = inner_constants(joint)
        groups = {
            "A": (["v1"], ["u2"], ["u1p", "u1", "u2p"]),
            "C": (["y2"], ["yh2"], ["u1p", "u1", "u2p", "u2", "x3"]),
            "H": (["y1"], ["u2p", "u2", "v12", "x3"], ["u1p", "u1", "v1"]),
            "K": (["y2"], ["u1", "u2", "v2"], ["u1p", "u2p", "x3"]),
            "N2": (["v1", "v12"], ["v2"], ["u1p", "u1", "u2p", "u2"]),
            "P": (["y1"], ["x3"], ["u1p", "u1", "v1", "u2p", "u2", "v12"]),
        }
        for name, (a, b, g) in groups.items():
            ref = oracle_conditional_mi(joint.variables, joint.probs, a, b, g)
            assert getattr(c, name) == pytest.approx(ref, abs=1e-12), name


CHANNELS = Path(__file__).resolve().parents[1] / "channels"

# each constant as (A, B, C) of I(A;B|C), in the field order
PMF_GROUPS = {
    "A": (["v1"], ["u2"], ["u1p", "u1", "u2p"]),
    "B": (["y1", "v1", "v12"], ["yh2"], ["u1p", "u1", "u2p", "u2", "x3"]),
    "C": (["y2"], ["yh2"], ["u1p", "u1", "u2p", "u2", "x3"]),
    "D": (["y1"], ["u1p", "u1", "v1", "u2p", "u2", "v12", "x3"], []),
    "E": (["y1"], ["v1", "u2p", "u2", "v12", "x3"], ["u1p", "u1"]),
    "F": (["y1"], ["v1", "v12", "x3"], ["u1p", "u1", "u2p", "u2"]),
    "G": (["y1", "yh2"], ["v1", "v12"], ["u1p", "u1", "u2p", "u2", "x3"]),
    "H": (["y1"], ["u2p", "u2", "v12", "x3"], ["u1p", "u1", "v1"]),
    "I": (["y1"], ["v12", "x3"], ["u1p", "u1", "v1", "u2p", "u2"]),
    "J": (["y1", "yh2"], ["v12"], ["u1p", "u1", "v1", "u2p", "u2", "x3"]),
    "K": (["y2"], ["u1", "u2", "v2"], ["u1p", "u2p", "x3"]),
    "L": (["y2"], ["u2", "v2"], ["u1p", "u1", "u2p", "x3"]),
    "M": (["y2"], ["v2"], ["u1p", "u1", "u2p", "u2", "x3"]),
    "N1": (["v1"], ["v2"], ["u1p", "u1", "u2p", "u2"]),
    "N2": (["v1", "v12"], ["v2"], ["u1p", "u1", "u2p", "u2"]),
    "P": (["y1"], ["x3"], ["u1p", "u1", "v1", "u2p", "u2", "v12"]),
}


def pmf_constants(joint):
    """The constants through a fresh ``Information`` table each, clipped at
    zero: the reference path."""
    labels = " ".join(joint.labels)
    return InnerConstants(**{
        name: float(clip_information(
            Information(joint.probs, labels).mi(*map(" ".join, groups))
        ))
        for name, groups in PMF_GROUPS.items()
    })


def assert_close_constants(got, want):
    for name in CONSTANT_NAMES:
        assert abs(getattr(got, name) - getattr(want, name)) <= 1e-12, name


@pytest.mark.parametrize("name", sorted(p.stem for p in CHANNELS.glob("*.json")))
def test_inner_constants_match_the_pmf_measures(name):
    ch = load_channel((CHANNELS / f"{name}.json").read_text())
    for f in sample_factorizations(ch, SamplerConfig(seed=5, num_samples=4)):
        joint = assemble_joint(f, ch)
        got, want = inner_constants(joint), pmf_constants(joint)
        assert_close_constants(got, want)
        assert admissible(got) == admissible(want)


def test_inner_region_matches_the_pmf_path(monkeypatch):
    cfg = SamplerConfig(seed=5, num_samples=6)
    channels = [load_channel((CHANNELS / f"{name}.json").read_text())
                for name in ("clean", "degraded_z", "semidet")]
    got = [inner_region(ch, cfg) for ch in channels]
    monkeypatch.setattr(inner, "_chunk_constants", lambda rows, cards, ch: np.array([
        dataclasses.astuple(pmf_constants(assemble_joint(_factorization(cards, t), ch)))
        for t in rows
    ]))
    for (region, lines), ch in zip(got, channels):
        want_region, want_lines = inner_region(ch, cfg)
        assert region.empty == want_region.empty
        assert region.vertices.shape == want_region.vertices.shape
        assert np.max(np.abs(region.vertices - want_region.vertices)) <= 1e-12
        assert len(lines) == len(want_lines)
        for line, want_line in zip(lines, want_lines):
            fields = [kv.split("=") for kv in line.split()]
            want_fields = [kv.split("=") for kv in want_line.split()]
            assert [k for k, _ in fields] == [k for k, _ in want_fields]
            for (key, value), (_, want_value) in zip(fields, want_fields):
                assert abs(float(value) - float(want_value)) <= 1e-12, key


# -- chunked constants --------------------------------------------------------

def chunk_channels():
    """The six fixtures and a dense (3,3,2,3,3) channel, one joint of which
    (41472 cells) fills most of a chunk."""
    named = [(name, load_channel((CHANNELS / f"{name}.json").read_text()))
             for name in sorted(p.stem for p in CHANNELS.glob("*.json"))]
    dense = random_channel(np.random.default_rng([21, 0]), (3, 3, 2, 3, 3))
    return named + [("dense", dense)]


CHUNK_CHANNELS = chunk_channels()


def chunk_config(name, seed):
    return SamplerConfig(seed=seed, num_samples=1 if name == "dense" else 4)


@pytest.mark.parametrize("seed", [2, 17])
@pytest.mark.parametrize("name,ch", CHUNK_CHANNELS, ids=[n for n, _ in CHUNK_CHANNELS])
def test_chunked_constants_move_no_byte(name, ch, seed, monkeypatch):
    cfg = chunk_config(name, seed)
    factorizations = sample_factorizations(ch, cfg)
    # each row of one batched table is the constants of its joint alone
    joints = np.stack([assemble_joint(f, ch).probs for f in factorizations])
    rows = _constant_rows(Information(joints, " ".join(JOINT_LABELS)))
    assert rows.shape == (len(factorizations), len(CONSTANT_NAMES))
    for row, f in zip(rows, factorizations):
        want = dataclasses.astuple(inner_constants(assemble_joint(f, ch)))
        assert np.array_equal(row, want)
    # one joint per table, the default chunks and one table for every joint
    region, lines = inner_region(ch, cfg)
    for cells in (1, 1 << 30):
        monkeypatch.setattr(inner, "_INNER_CELLS", cells)
        got_region, got_lines = inner_region(ch, cfg)
        assert got_lines == lines
        assert np.array_equal(got_region.vertices, region.vertices)


@pytest.mark.parametrize("name,ch", CHUNK_CHANNELS, ids=[n for n, _ in CHUNK_CHANNELS])
def test_each_table_holds_one_chunk_of_joints(name, ch, monkeypatch):
    cfg = chunk_config(name, 3)
    factorizations = sample_factorizations(ch, cfg)
    joints = [assemble_joint(f, ch).probs for f in factorizations]
    tables = []

    def recorded(j, labels):
        tables.append(j)
        return Information(j, labels)

    monkeypatch.setattr(inner, "Information", recorded)
    # the default, and a bound that falls between multiples of one joint
    for cells in (inner._INNER_CELLS, 2 * joints[0].size + 1):
        monkeypatch.setattr(inner, "_INNER_CELLS", cells)
        tables.clear()
        inner_region(ch, cfg)
        assert all(t.size <= max(cells, joints[0].size) for t in tables)
        # in order, every factorization's joint once
        stacked = [row for t in tables for row in t]
        assert len(stacked) == len(joints)
        assert all(np.array_equal(a, b) for a, b in zip(stacked, joints))


def chunk_rows(ch, cfg, count=None):
    """The joint's cardinalities and the first ``count`` rows of the stream."""
    cards = cfg.cards(ch)
    return cards, list(itertools.islice(_stream(cards, cfg), count))


@pytest.mark.parametrize("name,ch", CHUNK_CHANNELS, ids=[n for n, _ in CHUNK_CHANNELS])
def test_each_row_of_a_batched_joint_is_its_joint_alone(name, ch):
    cfg = chunk_config(name, 7)
    cards, rows = chunk_rows(ch, cfg)
    batched = assemble_joint(_factorization(cards, map(np.stack, zip(*rows))), ch)
    alone = [assemble_joint(f, ch) for f in sample_factorizations(ch, cfg)]
    assert batched.probs.shape == (len(alone),) + alone[0].probs.shape
    for probs, joint in zip(batched.probs, alone, strict=True):
        assert joint.variables == batched.variables
        assert reference.same_bytes(probs, joint.probs)
    # a corner, its constant-estimate copy and a draw against the loop oracle
    chf = ch.as_factor()
    for index in (7, 8, len(alone) - 2)[:1 if name == "dense" else 3]:
        f = sample_factorizations(ch, cfg)[index]
        chain = [(x.targets, x.given, x.table) for x in f.factors[:8]]
        chain += [(chf.targets, chf.given, chf.table), (f.factors[8].targets,
                  f.factors[8].given, f.factors[8].table)]
        variables, probs = oracle_assemble_joint(chain)
        assert variables == batched.variables
        assert np.max(np.abs(batched.probs[index] - probs)) <= 1e-15


BAD_ENTRIES = {
    "nan": (lambda t: np.nan, NegativeEntry),
    "negative": (lambda t: -1e-6, NegativeEntry),
    "row off one": (lambda t: t + 2 * SUM_TOL + 0.25, SumNotOne),
}


@pytest.mark.parametrize("bad", sorted(BAD_ENTRIES))
def test_a_chunk_checks_every_table_and_names_the_row(bad):
    """One bad factorization fails its chunk as it fails alone, and the
    message names the factorization in the chunk and the row."""
    change, error = BAD_ENTRIES[bad]
    ch = clean_channel()
    cards, rows = chunk_rows(ch, SamplerConfig(seed=3, num_samples=2), 13)
    table = np.array(rows[12][2])  # p(v1 | u1p, u1) of the second draw
    table[1, 0, 1] = change(table[1, 0, 1])
    rows[12] = rows[12][:2] + (table,) + rows[12][3:]
    with pytest.raises(error, match=re.escape("row (12, 1, 0)")):
        inner._chunk_constants(rows, cards, ch)
    with pytest.raises(error, match=re.escape("row (1, 0)")):
        _factorization(cards, rows[12])


def test_a_batched_factorization_keeps_the_signature_and_card_checks():
    ch = clean_channel()
    cards, rows = chunk_rows(ch, SamplerConfig(seed=3, num_samples=2), 6)
    stacked = [np.stack(link) for link in zip(*rows)]
    f = _factorization(cards, stacked)
    assert [x.table.shape[0] for x in f.factors] == [6] * 9
    # the output estimate conditioned on y1 in place of y2
    yh2 = f.factors[8]
    given = tuple(("y1" if l == "y2" else l, c) for l, c in yh2.given)
    with pytest.raises(InvalidFactor):
        InnerFactorization(f.factors[:8] + (ConditionalFactor(yh2.targets, given, stacked[8]),))
    # v1 of cardinality 3 where every other factor says 2
    targets, given = _signature_pairs(2, dict(cards, v1=3))
    odd = ConditionalFactor(targets, given, np.full((6, 2, 2, 3), 1 / 3))
    with pytest.raises(CardinalityMismatch):
        InnerFactorization(f.factors[:2] + (odd,) + f.factors[3:])
    wide = ChannelSpec.from_outputs((3, 2, 2, 3, 2), lambda a, b, c: (a, b))
    with pytest.raises(CardinalityMismatch):
        assemble_joint(f, wide)
    # a batch of five after one of six
    short = ConditionalFactor(yh2.targets, yh2.given, stacked[8][:5])
    with pytest.raises(ShapeMismatch):
        assemble_joint(InnerFactorization(f.factors[:8] + (short,)), ch)


def test_the_cached_tables_are_read_only():
    ch = clean_channel()
    key = tuple(SamplerConfig().cards(ch).items())
    tables = _corner_tables(key)
    assert _corner_tables(key) is tables
    for table in itertools.chain(*tables):
        with pytest.raises(ValueError):
            table[...] = 0.5
    factor = ch.as_factor()
    assert ch.as_factor() is factor
    with pytest.raises(ValueError):
        factor.table[...] = 0.5
    np.testing.assert_array_equal(factor.table, ch.transition)


def assert_same_factors(got, want):
    for f, g in zip(got, want, strict=True):
        assert f.targets == g.targets and f.given == g.given
        assert reference.same_bytes(f.table, g.table)


@pytest.mark.parametrize("name", sorted(p.stem for p in CHANNELS.glob("*.json")))
def test_corner_catalog_matches_the_reference(name):
    """Each corner's factors, normalized from the cached tables as a chunk
    normalizes them, against the reference mode factors of its modes."""
    ch = load_channel((CHANNELS / f"{name}.json").read_text())
    for draw in range(4):
        aux = np.random.default_rng([13, draw]).integers(1, 4, len(AUX_LABELS))
        cards = default_cards(ch, **dict(zip(AUX_LABELS, aux.tolist())))
        for corner, f in zip(_CORNERS, corner_catalog(cards), strict=True):
            modes = {**_DEFAULT_MODES, **corner}.values()
            want = [reference._mode_factor(i, cards, m) for i, m in enumerate(modes)]
            assert_same_factors(f.factors, want)


@pytest.mark.parametrize("card", [2, 3])
def test_block_modes_match_the_reference(card):
    """Every mode mix of the three-target factor, copies from a conditioner
    and from an earlier target alike, at binary and ternary cards."""
    ch = clean_channel()
    cards = default_cards(ch, u1p=3, v1=2, u2=card, v12=3, v2=card)
    options = ("const", "uniform", ("copy", "u1p"), ("copy", "v1"))
    for modes in itertools.product(
        options, options + (("copy", "u2"),), options + (("copy", "u2"), ("copy", "v12"))
    ):
        got = ConditionalFactor.from_modes(*_signature_pairs(4, cards), modes)
        assert_same_factors([got], [reference._mode_factor(4, cards, modes)])


def test_constant_orderings_random():
    tol = 1e-9
    for trial in range(40):
        rng = np.random.default_rng([77, trial])
        ch = random_channel(rng)
        f = random_factorization(default_cards(ch), rng)
        c = inner_constants(assemble_joint(f, ch))
        assert c.D >= c.E - tol >= c.H - 2 * tol >= c.P - 3 * tol
        assert c.F >= c.I - tol
        assert c.G >= c.J - tol
        assert c.K >= c.L - tol >= c.M - 2 * tol
        assert c.N2 >= c.N1 - tol
        for name in CONSTANT_NAMES:
            assert getattr(c, name) >= -1e-12


# -- admissibility -----------------------------------------------------------

def test_admissible_examples():
    assert admissible(constants_with())  # all zeros: 0 <= 0
    assert not admissible(constants_with(C=0.5, P=0.1, B=0.2))
    assert admissible(constants_with(C=0.3, P=0.1, B=0.2))  # boundary
    ch = clean_channel()
    f = corner_catalog(default_cards(ch))[7]  # quantize-and-forward corner
    variant_cfg = SamplerConfig(num_samples=0)
    c = inner_constants(assemble_joint(f, ch))
    # forcing the estimate constant always passes the gate
    v = yhat_constant(f)
    cv = inner_constants(assemble_joint(v, ch))
    assert cv.B == pytest.approx(0, abs=1e-12)
    assert cv.C == pytest.approx(0, abs=1e-12)
    assert admissible(cv)


def test_region_rejects_inadmissible():
    with pytest.raises(InadmissibleConstants):
        region_for_distribution(constants_with(C=1.0))


# -- region structure --------------------------------------------------------

def test_zero_constants_silent_point():
    region = region_for_distribution(constants_with())
    assert region.is_point()
    np.testing.assert_allclose(region.vertices, [[0.0, 0.0]], atol=1e-12)


def test_union_contains_undropped_case():
    for trial in range(15):
        rng = np.random.default_rng([911, trial])
        ch = random_channel(rng)
        f = random_factorization(default_cards(ch), rng)
        c = inner_constants(assemble_joint(f, ch))
        if not admissible(c):
            continue
        union = region_for_distribution(c)
        base = polygon_extract(
            project_to_plane(case_system(c), "R1", "R2"), "R1", "R2"
        )
        assert region_contains(union, base, tol=1e-7)


def test_case_projection_matches_vertex_oracle():
    ch = clean_channel()
    catalog = corner_catalog(default_cards(ch))
    for f in (catalog[1], catalog[5]):
        c = inner_constants(assemble_joint(f, ch))
        case_regions = []
        for pinned, dropped in DROP_CASES:
            system = case_system(c, pinned, dropped)
            projected = project_to_plane(system, "R1", "R2")
            region = polygon_extract(projected, "R1", "R2")
            coefs, bounds = materialized_rows(system)
            pts = oracle_projected_vertices(
                coefs,
                bounds,
                system.eq_coefs,
                system.eq_values,
                system.index_of("R1"),
                system.index_of("R2"),
            )
            if not pts:
                assert region.empty
            else:
                assert regions_close(region, region_from_vertices(pts), tol=1e-7)
            case_regions.append(region)
        union = region_for_distribution(c)
        assert regions_close(union, union_hull(case_regions), tol=1e-9)


def test_origin_always_achievable():
    checked = 0
    for trial in range(80):
        rng = np.random.default_rng([13, trial])
        ch = random_channel(rng)
        f = random_factorization(default_cards(ch), rng)
        c = inner_constants(assemble_joint(f, ch))
        if not admissible(c):
            f = yhat_constant(f)
            c = inner_constants(assemble_joint(f, ch))
        assert admissible(c)
        region = region_for_distribution(c)
        assert region_contains(region, region_from_vertices([(0.0, 0.0)]), tol=1e-9)
        checked += 1
    assert checked == 80


def test_constant_aux_collapse():
    # x3 is the only information path to y1; every auxiliary silent
    def outputs(x1, x2, x3):
        return x3, x2

    ch = ChannelSpec.from_outputs((2, 2, 2, 2, 2), outputs)
    for trial in range(6):
        rng = np.random.default_rng([5, trial])
        px3 = rng.dirichlet([1.0, 1.0])
        cards = default_cards(ch)
        modes = {}
        f = corner_catalog(cards)[0]
        # replace the x3 factor with the sampled marginal
        targets, given = _signature_pairs(7, cards)
        shape = tuple(c for _, c in given) + (2,)
        table = np.broadcast_to(px3, shape).copy()
        x3_factor = ConditionalFactor(targets, given, table)
        f = InnerFactorization(f.factors[:7] + (x3_factor, f.factors[8]))
        c = inner_constants(assemble_joint(f, ch))
        cap = -(px3[0] * np.log2(px3[0]) + px3[1] * np.log2(px3[1]))
        assert c.D == pytest.approx(cap, abs=1e-12)
        region = region_for_distribution(c)
        segment = region_from_vertices([(0.0, 0.0), (cap, 0.0)])
        assert regions_close(region, segment, tol=1e-9)


# -- compiled drop cases -----------------------------------------------------

def runtime_case_regions(c):
    """Each drop case's region by eliminating its system at ``c``."""
    return [
        polygon_extract(
            project_to_plane(case_system(c, pinned, dropped), "R1", "R2"), "R1", "R2"
        )
        for pinned, dropped in DROP_CASES
    ]


def compiled_case_regions(c):
    """Each drop case's region from its once-projected multiplier table."""
    theta = [getattr(c, name) for name in CONSTANT_NAMES]
    rows = [inner._compiled_case(pinned, dropped).at(theta) for pinned, dropped in DROP_CASES]
    return [region_from_vertices([] if r is None else polygon_points(*r)) for r in rows]


def assert_compiled_matches_runtime(c):
    """Case by case, then the per-sample union; returns which cases are
    empty."""
    got, want = compiled_case_regions(c), runtime_case_regions(c)
    for case, g, w in zip(DROP_CASES, got, want):
        assert g.empty == w.empty, case
        assert regions_close(g, w, tol=1e-9), case
    if admissible(c):
        union = union_hull(want)
        if union.empty:
            union = region_from_vertices([(0.0, 0.0)])
        assert regions_close(region_for_distribution(c), union, tol=1e-9)
    return [w.empty for w in want]


@pytest.mark.parametrize("name", sorted(p.stem for p in CHANNELS.glob("*.json")))
def test_compiled_cases_match_elimination_on_fixture_factorizations(name):
    ch = load_channel((CHANNELS / f"{name}.json").read_text())
    for f in sample_factorizations(ch, SamplerConfig(seed=21, num_samples=6)):
        assert_compiled_matches_runtime(inner_constants(assemble_joint(f, ch)))


def test_compiled_cases_match_elimination_on_random_constants():
    rng = np.random.default_rng([2024, 9])
    empty = np.zeros(len(DROP_CASES), dtype=int)
    trials = 80
    for trial in range(trials):
        values = dict(zip(CONSTANT_NAMES, rng.uniform(0.0, 1.0, len(CONSTANT_NAMES))))
        if trial % 2:  # no binning floors, so a pinned bin costs nothing
            values.update(A=0.0, N1=0.0, N2=0.0)
        empty += assert_compiled_matches_runtime(InnerConstants(**values))
    # every case is met both empty and not; a positive floor A empties
    # each case that pins R2p_bin
    assert np.all((empty > 0) & (empty < trials)), empty


def ref_sampled_case(pinned, dropped):
    """A drop case compiled as it was before ``_case_rows`` ran once on
    multiplier rows: the rows at the 16 unit constants and at zero, the
    multipliers by differencing, then the same tidy and elimination."""
    free = tuple(v for v in inner.RATE_VARIABLES if v not in pinned)
    size = len(CONSTANT_NAMES)
    samples = [
        [polytope._row_arrays(free, part)
         for part in inner._case_rows(InnerConstants(*point), pinned, dropped)]
        for point in np.eye(size + 1, size)
    ]

    def multipliers(part):
        at = np.column_stack([s[part][1] for s in samples])  # rows x points
        return samples[-1][part][0], np.column_stack([at[:, :-1] - at[:, -1:], at[:, -1]])

    (ic, im), (ec, em) = multipliers(0), multipliers(1)
    ic, im, trivial, _ = polytope._tidy(ic, im)
    ec, em, trivial_eq, _ = polytope._tidy(ec, em, equalities=True)
    ic, im, ec, em, more, more_eq = polytope._eliminate(
        free, ic, im, ec, em, frozenset(free), "R1", "R2"
    )
    return ic, im, ec, em, np.concatenate([trivial, more]), np.concatenate([trivial_eq, more_eq])


def grouped(ic, im, ec, em, trivial, trivial_eq):
    """Ungrouped rows as a ``ParametricPlane`` holds them: each equality as
    two opposing rows, then one coefficient row per direction (rows equal
    once rounded to ``ROW_TOL``, directions sorted, column 0 first), each
    direction's forms in row order and where they start, and the trivial
    rows, each trivial equality as two."""
    coefs, forms = np.vstack([ic, ec, -ec]), np.vstack([im, em, -em])
    keys = [tuple(np.round(row / polytope.ROW_TOL).astype(int)) for row in coefs]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    starts = [i for i, k in enumerate(order) if i == 0 or keys[k] != keys[order[i - 1]]]
    directions = coefs[[order[i] for i in starts]].reshape(-1, 2)
    return directions, forms[order], starts, np.vstack([trivial, trivial_eq, -trivial_eq])


def test_compiled_cases_match_the_sampled_multipliers():
    for pinned, dropped in DROP_CASES:
        plane = inner._compiled_case(pinned, dropped)
        got = (plane.directions, plane.forms, plane.starts, plane.trivial)
        # equal as numbers: a multiplier may be -0.0 where the differences gave 0.0
        for g, w in zip(got, grouped(*ref_sampled_case(pinned, dropped))):
            assert np.shape(g) == np.shape(w) and np.array_equal(g, w), (pinned, dropped)


@functools.cache
def ref_sampled_cases():
    return [ref_sampled_case(pinned, dropped) for pinned, dropped in DROP_CASES]


def ungrouped_pair(c):
    """``region_for_distribution`` at ``c``, and the region of the sampled
    multiplier rows under the per-call rule they had before they were
    grouped by direction (``_fm_reference.drop_case_union``)."""
    theta = [getattr(c, name) for name in CONSTANT_NAMES]
    return region_for_distribution(c), fm_reference.drop_case_union(ref_sampled_cases(), theta)


def same_bytes(got, want):
    return (got.vertices.tobytes() == want.vertices.tobytes()
            and np.array(got.halfplanes).tobytes() == np.array(want.halfplanes).tobytes())


def test_grouped_cases_match_the_ungrouped_rule_on_fixture_factorizations():
    checked = 0
    for path in sorted(CHANNELS.glob("*.json")):
        ch = load_channel(path.read_text())
        for f in sample_factorizations(ch, SamplerConfig(seed=21, num_samples=6)):
            c = inner_constants(assemble_joint(f, ch))
            if admissible(c):
                assert same_bytes(*ungrouped_pair(c))
                checked += 1
    assert checked > 50


def test_grouped_cases_match_the_ungrouped_rule_on_random_constants():
    """Grouping changes the order in which the box is clipped (key order in
    place of the order of each direction's tightest row), so a vertex that
    lies near the middle of two points of the hull grid can round to the
    other one: byte-equal regions but for at most 1 in 100, and those one
    grid step apart."""
    rng = np.random.default_rng([2024, 32])
    checked = unequal = 0
    while checked < 200:
        values = dict(zip(CONSTANT_NAMES, rng.uniform(0.0, 1.0, len(CONSTANT_NAMES))))
        if checked % 2:  # no binning floors
            values.update(A=0.0, N1=0.0, N2=0.0)
        c = InnerConstants(**values)
        if not admissible(c):
            continue
        got, want = ungrouped_pair(c)
        if not same_bytes(got, want):
            unequal += 1
            assert got.vertices.shape == want.vertices.shape
            assert np.abs(got.vertices - want.vertices).max() <= 1.5 * polytope.HULL_QUANT
            assert regions_close(got, want, tol=1e-9)
        checked += 1
    assert unequal <= 2, unequal


def direction_rows(cell):
    """A README cell such as ``-R1, R1+2R2`` as coefficient rows over
    (R1, R2), each scaled to max-abs 1."""
    rows = []
    for label in cell.split(", "):
        row = np.zeros(2)
        for sign, k, i in re.findall(r"([+-]?)(\d*)R([12])", label):
            row[int(i) - 1] = (-1.0 if sign == "-" else 1.0) * int(k or 1)
        rows.append(row / np.abs(row).max())
    return np.array(rows)


def test_readme_drop_case_table_reads_the_compiled_cases():
    readme = (CHANNELS.parent / "README.md").read_text(encoding="utf-8")
    table = readme[readme.index("| pinned sub-rates |"):].split("\n\n")[0].splitlines()[2:]
    cells = [[cell.strip() for cell in line.strip("|").split("|")] for line in table]
    names = lambda cell: () if cell == "none" else tuple(cell.split(", "))
    assert len(cells) == len(DROP_CASES)
    for (pinned, dropped), (pins, drops, directions, forms, trivial) in zip(DROP_CASES, cells):
        plane = inner._compiled_case(pinned, dropped)
        assert (names(pins), names(drops)) == (pinned, dropped)
        assert np.array_equal(direction_rows(directions), plane.directions), dropped
        assert (int(forms), int(trivial)) == (len(plane.forms), len(plane.trivial)), dropped


def test_a_second_inner_region_call_eliminates_nothing(monkeypatch):
    """The drop cases are projected once per process: after the first run,
    a run calls no elimination (``polytope._eliminate``, behind both
    projection front ends) and no row normal form (``polytope._tidy``),
    and the regions come from clipped points, not from ``polygon_extract``."""
    ch = load_channel((CHANNELS / "clean.json").read_text())
    cfg = SamplerConfig(seed=1, num_samples=5)
    inner._compiled_case.cache_clear()
    first = inner_region(ch, cfg)
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_eliminate", "_tidy", "polygon_extract"):
        monkeypatch.setattr(polytope, name, counted(getattr(polytope, name)))
    second = inner_region(ch, cfg)
    assert calls == []
    assert inner._compiled_case.cache_info().misses == len(DROP_CASES)
    assert second[1] == first[1]
    assert np.array_equal(second[0].vertices, first[0].vertices)


# -- sampler -----------------------------------------------------------------

def test_sampler_deterministic_and_capped():
    ch = clean_channel()
    cfg = SamplerConfig(seed=9, num_samples=5)
    a = sample_factorizations(ch, cfg)
    b = sample_factorizations(ch, cfg)
    assert len(a) == len(b)
    for fa, fb in zip(a, b):
        for ta, tb in zip(fa.factors, fb.factors):
            np.testing.assert_array_equal(ta.table, tb.table)
    corners_only = sample_factorizations(ch, SamplerConfig(num_samples=0))
    assert len(corners_only) == 11  # 9 corners + 2 estimate variants


def test_sampler_variant_follows_base():
    ch = clean_channel()
    corners = sample_factorizations(ch, SamplerConfig(num_samples=0))
    out = sample_factorizations(ch, SamplerConfig(seed=1, num_samples=1))
    assert len(out) == len(corners) + 2
    base, variant = out[-2:]
    assert not np.array_equal(base.factors[8].table, variant.factors[8].table)
    const = ConditionalFactor.from_modes(
        variant.factors[8].targets, variant.factors[8].given, "const"
    )
    np.testing.assert_array_equal(variant.factors[8].table, const.table)
    for i in range(8):
        np.testing.assert_array_equal(base.factors[i].table, variant.factors[i].table)


def test_seed_changes_stream():
    ch = clean_channel()
    # the draw and its estimate variant follow the corners
    a = sample_factorizations(ch, SamplerConfig(seed=1, num_samples=1))
    b = sample_factorizations(ch, SamplerConfig(seed=2, num_samples=1))
    assert not np.array_equal(a[-1].factors[0].table, b[-1].factors[0].table)


# -- region union ------------------------------------------------------------

def test_inner_region_clean_channel_corner():
    ch = clean_channel()
    region, logs = inner_region(ch, SamplerConfig(num_samples=0))
    assert region_contains(
        region, region_from_vertices([(1 - 1e-6, 1 - 1e-6)]), tol=1e-9
    )
    assert len(logs) == 11
    assert all(line.startswith("sample=") for line in logs)
    # monotone in the sample budget
    bigger, _ = inner_region(ch, SamplerConfig(seed=4, num_samples=6))
    assert region_contains(bigger, region, tol=1e-7)


def test_inner_region_dead_channel():
    dead = ChannelSpec.from_outputs((2, 2, 2, 1, 1), lambda x1, x2, x3: (0, 0))
    region, logs = inner_region(dead, SamplerConfig(num_samples=2, seed=8))
    assert region.is_point()
    np.testing.assert_allclose(region.vertices, [[0.0, 0.0]], atol=1e-12)


def test_inner_region_threads_identical():
    ch = clean_channel()
    cfg = SamplerConfig(seed=21, num_samples=6)
    r1, logs1 = inner_region(ch, cfg)
    r4, logs4 = inner_region(ch, cfg)
    assert logs1 == logs4
    np.testing.assert_array_equal(r1.vertices, r4.vertices)
    np.testing.assert_array_equal(r1.halfplanes, r4.halfplanes)


def test_compress_forward_ablation():
    ch = clean_channel()
    f = corner_catalog(default_cards(ch))[7]
    v = yhat_constant(f)
    cv = inner_constants(assemble_joint(v, ch))
    ablated = region_for_distribution(cv)
    c = inner_constants(assemble_joint(f, ch))
    regions = [ablated]
    if admissible(c):
        regions.append(region_for_distribution(c))
    assert region_contains(union_hull(regions), ablated, tol=1e-9)


def test_cooperation_monotonicity():
    def outputs(x1, x2, x3):
        return x1 ^ x3, x2

    ch = ChannelSpec.from_outputs((2, 2, 2, 2, 2), outputs)
    # x3 pinned to 0
    pinned = ChannelSpec((2, 2, 1, 2, 2), ch.transition[:, :, :1])
    cfg = SamplerConfig(num_samples=0)
    full, _ = inner_region(ch, cfg)
    small, _ = inner_region(pinned, cfg)
    assert region_contains(full, small, tol=1e-7)


def test_joint_cell_budget_is_checked_before_any_table(monkeypatch):
    ch = ChannelSpec.from_outputs((2, 2, 2, 2, 2), lambda x1, x2, x3: (x1, x2))

    def never(*args):
        raise AssertionError("a factor table was built")

    monkeypatch.setattr(inner, "_corner_tables", lambda cards: ())
    monkeypatch.setattr(inner, "_random_tables", never)
    # 2**5 channel cells times 2**7 * 2**12 auxiliary cells: at the budget
    assert sample_factorizations(ch, SamplerConfig(card_u1=2**12)) == ()
    for name in ("_corner_tables", "_mode_table"):
        monkeypatch.setattr(inner, name, never)
    for cfg in (SamplerConfig(card_u1=2**12 + 1),
                SamplerConfig(card_u1=1000, card_u2=1000)):
        with pytest.raises(TooLarge):
            sample_factorizations(ch, cfg)
        with pytest.raises(TooLarge):
            inner_region(ch, cfg)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the drop cases without row f1 (decoder 2 decodes nothing) pin "
    "R2p and R22 but let X3 carry U2p, so R1p alone takes all of "
    "I(Y1;U1p,U1,V1,U2p,U2,V12,X3)",
)
def test_inner_r1_below_the_sum_cap_of_every_converse_polygon():
    rng = np.random.default_rng([99, 34])
    cards = tuple(int(c) for c in rng.integers(1, 3, size=5))  # (1,2,2,2,1)
    rows = rng.dirichlet(np.full(cards[3] * cards[4], 0.5), size=cards[:3])
    region, _ = inner_region(
        ChannelSpec(cards, rows.reshape(cards)), SamplerConfig(num_samples=0)
    )
    # every converse polygon has R1 <= R1+R2 <= I(X1,X2;Y1,Y2|X3); with
    # |X1| = 1 that is at most the largest capacity over x3 of x2 -> (y1, y2),
    # here found on a grid of p(x2)
    grid = np.linspace(0.0, 1.0, 10001)
    laws = np.stack([1.0 - grid, grid], axis=1)

    def entropy(m):
        return -np.sum(m * np.log2(np.where(m > 0, m, 1.0)), axis=-1)

    cap = max(
        float(np.max(entropy(laws @ w) - laws @ entropy(w)))
        for w in rows[0].transpose(1, 0, 2)
    )
    assert region.vertices[:, 0].max() <= cap + 1e-6
