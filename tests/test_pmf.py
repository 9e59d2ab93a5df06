"""Unit tests for joint pmfs, factors, and information terms."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _law_reference as reference
from cifc_udc import errors, pmf
from cifc_udc.channel import load_channel
from cifc_udc.inner import (
    JOINT_LABELS,
    SamplerConfig,
    _constant_rows,
    assemble_joint,
    sample_factorizations,
)
from cifc_udc.oracle import oracle_conditional_entropy, oracle_conditional_mi
from cifc_udc.pmf import (
    ConditionalFactor,
    Information,
    JointPMF,
    clip_information,
    joint_from_factors,
    point_mass,
)
from cifc_udc.outer import V12_AXES, SearchConfig, five_bounds, law_bounds, sample_pool, v12_cards

CHANNELS = Path(__file__).resolve().parents[1] / "channels"

B = ("x", 2)  # shorthand for a generic bit


def random_joint(rng, cards, labels=None):
    """Dense random joint via a flat Dirichlet, independent of factor code."""
    if labels is None:
        labels = [f"v{i}" for i in range(len(cards))]
    flat = rng.dirichlet(np.ones(int(np.prod(cards))))
    return JointPMF(tuple(zip(labels, cards)), flat.reshape(cards))


def mi(j, a, b, c=()):
    """I(a;b|c) in bits of a fresh ``Information`` table over ``j``, for
    label lists a, b and c, clipped at zero."""
    info = Information(j.probs, " ".join(j.labels))
    return float(clip_information(info.mi(" ".join(a), " ".join(b), " ".join(c))))


def cond(j, a, c=()):
    """H(a|c) in bits, as ``mi`` computes it."""
    info = Information(j.probs, " ".join(j.labels))
    return float(clip_information(info.cond(" ".join(a), " ".join(c))))


# ---------------------------------------------------------------- frozen values
# Hand-derived from the entropy definition; see the binary entropy of 0.1
# and the 0.3/0.2 asymmetric pair worked out with math.log2.

H2_OF_01 = 0.4689955935892812


def test_symmetric_binary_pair_frozen():
    # x uniform, y = x flipped with probability 0.1
    p = np.array([[0.45, 0.05], [0.05, 0.45]])
    j = JointPMF((("x", 2), ("y", 2)), p)
    assert mi(j, ["x"], ["y"]) == pytest.approx(
        1.0 - H2_OF_01, abs=1e-12
    )
    assert cond(j, ["y"], ["x"]) == pytest.approx(H2_OF_01, abs=1e-12)
    assert cond(j, ["x"]) == pytest.approx(1.0, abs=1e-12)


def test_asymmetric_binary_pair_frozen():
    # p(x=1)=0.3, y = x flipped with probability 0.2
    p = np.array([[0.7 * 0.8, 0.7 * 0.2], [0.3 * 0.2, 0.3 * 0.8]])
    j = JointPMF((("x", 2), ("y", 2)), p)
    assert cond(j, ["y"]) == pytest.approx(0.9580420222262996, abs=1e-12)
    assert cond(j, ["y"], ["x"]) == pytest.approx(
        0.7219280948873623, abs=1e-12
    )
    assert mi(j, ["x"], ["y"]) == pytest.approx(
        0.23611392733893732, abs=1e-12
    )


def test_xor_triple():
    """x,y independent uniform bits, z = x xor y."""
    p = np.zeros((2, 2, 2))
    for x in range(2):
        for y in range(2):
            p[x, y, x ^ y] = 0.25
    j = JointPMF((("x", 2), ("y", 2), ("z", 2)), p)
    assert mi(j, ["x"], ["y"]) == pytest.approx(0.0, abs=1e-12)
    assert mi(j, ["x"], ["z"]) == pytest.approx(0.0, abs=1e-12)
    # conditioning on z reveals everything
    assert mi(j, ["x"], ["y"], ["z"]) == pytest.approx(
        1.0, abs=1e-12
    )
    assert cond(j, ["x", "y", "z"]) == pytest.approx(2.0, abs=1e-12)


# ------------------------------------------------------------- oracle agreement


def test_matches_definition_oracle():
    rng = np.random.default_rng(2024)
    for trial in range(60):
        n = int(rng.integers(2, 6))
        j = random_joint(rng, [2] * n)
        labels = list(j.labels)
        rng.shuffle(labels)
        k1 = int(rng.integers(1, n))
        k2 = int(rng.integers(1, n - k1 + 1))
        a, b = labels[:k1], labels[k1 : k1 + k2]
        c = labels[k1 + k2 :]
        ours = mi(j, a, b, c)
        ref = oracle_conditional_mi(j.variables, j.probs, a, b, c)
        assert ours == pytest.approx(ref, abs=1e-12)
        h_ours = cond(j, a, c)
        h_ref = oracle_conditional_entropy(j.variables, j.probs, a, c)
        assert h_ours == pytest.approx(h_ref, abs=1e-12)


def test_chain_rule_and_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(40):
        j = random_joint(rng, [2, 2, 2, 2], ["a", "b", "c", "d"])
        lhs = mi(j, ["a"], ["b", "c"], ["d"])
        rhs = mi(j, ["a"], ["b"], ["d"]) + mi(j, ["a"], ["c"], ["b", "d"])
        assert lhs == pytest.approx(rhs, abs=1e-9)
        assert mi(j, ["a"], ["b"], ["c"]) == pytest.approx(
            mi(j, ["b"], ["a"], ["c"]), abs=1e-12
        )


def test_entropy_decomposition():
    rng = np.random.default_rng(11)
    for _ in range(20):
        j = random_joint(rng, [3, 2, 2], ["a", "b", "c"])
        lhs = cond(j, ["a"], ["b", "c"])
        rhs = cond(j, ["a", "b", "c"]) - cond(j, ["b", "c"])
        assert lhs == pytest.approx(rhs, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_information_inequalities_hold(seed):
    rng = np.random.default_rng(seed)
    j = random_joint(rng, [2, 3, 2], ["a", "b", "c"])
    value = mi(j, ["a"], ["b"], ["c"])
    assert value >= 0.0
    assert value <= cond(j, ["a"], ["c"]) + 1e-9
    assert value <= cond(j, ["b"], ["c"]) + 1e-9


# ------------------------------------------------------------ the marginal sum
# most cells of a drawn tensor: a batch of 900 leaves 36 cells per entry
SUM_CELLS = 1 << 15


@st.composite
def sum_cases(draw):
    """(tensor, reduced axes): 1-9 axes of extents 1-6, after an optional
    leading batch of up to 900, at most SUM_CELLS cells in all, values over
    eight decades with some +0.0 and -0.0, and any subset of the axes."""
    shape = [draw(st.integers(1, 900))] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(1, 9))):
        room = SUM_CELLS // max(1, np.prod(shape, dtype=int))
        shape.append(draw(st.integers(1, max(1, min(6, room)))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.random(shape) * 10.0 ** rng.integers(-8, 1, shape)
    zeros = rng.random(shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    a[zeros] = draw(st.sampled_from([0.0, -0.0]))
    axes = tuple(x for x in range(a.ndim) if draw(st.booleans()))
    return a, axes


# no axis and every axis; a trailing run of 8 cells, reduced axes before
# kept ones, between them, and a large batch
@settings(max_examples=400, deadline=None)
@given(sum_cases())
@example((np.arange(1.0, 61.0).reshape(5, 3, 4) / 7, ()))
@example((np.arange(1.0, 61.0).reshape(5, 3, 4) / 7, (0, 1, 2)))
@example((np.arange(1.0, 121.0).reshape(5, 2, 3, 4) / 7, (2, 3)))
@example((np.arange(1.0, 91.0).reshape(5, 3, 2, 3) / 7, (1, 3)))
@example((np.linspace(0.1, 3.0, 720).reshape(5, 2, 3, 4, 6) / 7, (1, 3, 4)))
@example((np.random.default_rng(1).random((900, 2, 2, 2, 2, 3)), (1, 2, 3, 4)))
def test_marginal_sum_is_numpy_sum_within_roundoff(case):
    a, axes = case
    got, want = pmf._sum_out(a, axes), a.sum(axis=axes, keepdims=True)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    # a transposed view sums the same way
    t = a.T
    flipped = tuple(a.ndim - 1 - x for x in reversed(axes))
    np.testing.assert_allclose(
        pmf._sum_out(t, flipped), t.sum(axis=flipped, keepdims=True), rtol=1e-12, atol=0
    )


@st.composite
def batch_cases(draw):
    """(batch of 1-9 rows, reduced axes): 1-7 axes of extents 1-4 after the
    batch, some +0.0 and -0.0, a nonempty subset of them reduced, and at
    times one kept cell per row."""
    inner = draw(st.lists(st.integers(1, 4), min_size=1, max_size=7))
    axes = draw(st.sets(st.integers(1, len(inner)), min_size=1).map(sorted))
    if draw(st.booleans()):
        inner = [n if x + 1 in axes else 1 for x, n in enumerate(inner)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.random([draw(st.integers(1, 9))] + inner)
    a[rng.random(a.shape) < draw(st.sampled_from([0.0, 0.3]))] = draw(st.sampled_from([0.0, -0.0]))
    return a, tuple(axes)


# numpy's order follows the memory layout: reduced cells that trail
# (pairwise from 8 cells on) or lead, one kept cell per row, and both
@settings(max_examples=300, deadline=None)
@given(batch_cases())
@example((np.random.default_rng(2).random((5, 3, 9)), (2,)))
@example((np.random.default_rng(2).random((5, 9, 3)), (1,)))
@example((np.random.default_rng(2).random((4, 1, 16, 1)), (2,)))
@example((np.random.default_rng(2).random((6, 2, 2, 2, 3)), (1, 2, 3, 4)))
@example((np.random.default_rng(2).random((3, 4, 3, 5, 2)), (1, 3)))
def test_marginal_sum_rows_do_not_depend_on_their_batch(case):
    a, axes = case
    full = pmf._sum_out(a, axes)
    other = np.random.default_rng(0).random(a.shape)
    for i in range(len(a)):
        assert pmf._sum_out(a[i:i + 1], axes).tobytes() == full[i:i + 1].tobytes()
        assert pmf._sum_out(a[:i + 1], axes).tobytes() == full[:i + 1].tobytes()
        # new neighbours leave the row as it was
        mixed = other.copy()
        mixed[i] = a[i]
        assert pmf._sum_out(mixed, axes)[i].tobytes() == full[i].tobytes()


def numpy_sum(a, axes):
    return a.sum(axis=axes, keepdims=True)


def test_bounds_and_constants_match_numpy_sum_within_roundoff(monkeypatch):
    clean = load_channel((CHANNELS / "clean.json").read_text())
    cfg = SearchConfig(seed=5, num_samples=30)
    cards = v12_cards(clean, cfg)
    rows = sample_pool(cards, cfg, [])
    degraded = load_channel((CHANNELS / "degraded_z.json").read_text())
    joints = np.stack([
        assemble_joint(f, degraded).probs
        for f in sample_factorizations(degraded, SamplerConfig(seed=5, num_samples=6))
    ])

    def scores():
        return (law_bounds(five_bounds, rows, cards, clean, V12_AXES),
                _constant_rows(Information(joints, " ".join(JOINT_LABELS))))

    bounds, constants = scores()
    monkeypatch.setattr(pmf, "_sum_out", numpy_sum)
    want_bounds, want_constants = scores()
    np.testing.assert_allclose(bounds, want_bounds, rtol=0, atol=1e-12)
    np.testing.assert_allclose(constants, want_constants, rtol=0, atol=1e-12)


# ------------------------------------------------------------------ validation


def test_rejects_bad_tensors():
    with pytest.raises(errors.NegativeEntry):
        JointPMF((("x", 2),), np.array([1.5, -0.5]))
    with pytest.raises(errors.SumNotOne):
        JointPMF((("x", 2),), np.array([0.3, 0.3]))
    with pytest.raises(errors.ShapeMismatch):
        JointPMF((("x", 2), ("y", 3)), np.full((2, 2), 0.25))
    with pytest.raises(errors.DuplicateLabel):
        JointPMF((("x", 2), ("x", 2)), np.full((2, 2), 0.25))


def test_information_rejects_a_repeated_label():
    # a repeat would leave its second axis unnamed: "a a" measured axis 0 only
    for labels in ("a a", "a b a"):
        tensor = np.ones((2,) * len(labels.split())) / 2 ** len(labels.split())
        with pytest.raises(errors.DuplicateLabel):
            Information(tensor, labels)
        with pytest.raises(errors.DuplicateLabel):
            Information(tensor[None], labels)


def test_tiny_negative_is_clipped():
    j = JointPMF((("x", 2),), np.array([1.0 + 1e-13, -1e-13]))
    assert j.probs[1] == 0.0
    assert j.probs.sum() == pytest.approx(1.0, abs=1e-15)


def test_group_validation():
    j = JointPMF((("x", 2), ("y", 2)), np.full((2, 2), 0.25))
    with pytest.raises(errors.UnknownLabel):
        cond(j, ["z"])


def test_zero_mass_conditioning_is_skipped():
    # second value of x never occurs; conditioning on it must not produce nan
    p = np.array([[0.5, 0.5], [0.0, 0.0]])
    j = JointPMF((("x", 2), ("y", 2)), p)
    assert cond(j, ["y"], ["x"]) == pytest.approx(1.0, abs=1e-12)
    assert np.isfinite(mi(j, ["x"], ["y"], []))


# -------------------------------------------------------------------- factors


def test_factor_constructors():
    f = ConditionalFactor.from_modes([("y", 4)], [("x", 2)], "uniform")
    assert f.table.shape == (2, 4)
    assert np.allclose(f.table, 0.25)

    g = ConditionalFactor.from_modes([("y", 3), ("z", 2)], [("x", 2)], "const")
    assert np.array_equal(g.table, np.broadcast_to(point_mass(0, 6).reshape(3, 2), (2, 3, 2)))

    h = ConditionalFactor.from_modes([("y", 3)], [("w", 2), ("x", 3)], ("copy", "x"))
    for w in range(2):
        assert np.allclose(h.table[w], np.eye(3))

    rng = np.random.default_rng(0)
    r = ConditionalFactor.random([("y", 3)], [("x", 4)], rng)
    assert r.table.shape == (4, 3)
    assert np.allclose(r.table.sum(axis=1), 1.0)


def test_point_mass_adds_a_one_hot_axis():
    assert np.array_equal(point_mass(0, 3), [1.0, 0.0, 0.0])
    table = point_mass(np.array([[2, 0], [1, 1]]), 3)
    assert table.shape == (2, 2, 3) and table.dtype == np.float64
    assert np.array_equal(table.argmax(axis=-1), [[2, 0], [1, 1]])
    assert np.array_equal(table.sum(axis=-1), np.ones((2, 2)))
    # a symbol outside [0, card) marks no cell
    assert not point_mass(np.array([-1, 3]), 3).any()


@pytest.mark.parametrize("cards", [(1,), (3,), (2, 3), (3, 1, 2)])
def test_copy_matches_the_reference(cards):
    given = [(f"g{i}", c) for i, c in enumerate(cards)]
    for source, card in given:
        got = ConditionalFactor.from_modes([("y", card)], given, ("copy", source))
        want = reference.ReferenceFactor.copy("y", source, given)
        assert got.targets == want.targets and got.given == want.given
        assert reference.same_bytes(got.table, want.table)


def test_from_modes_contract():
    targets, given = [("y", 2), ("z", 3)], [("x", 3)]
    # one mode applies to every target
    for mode in ("uniform", "const", ("copy", "x")):
        assert np.array_equal(
            ConditionalFactor.from_modes(targets, given, mode).table,
            ConditionalFactor.from_modes(targets, given, [mode, mode]).table,
        )
    mixed = ConditionalFactor.from_modes(targets, given, ["const", ("copy", "y")])
    assert np.array_equal(mixed.table[:, 0, 0], np.ones(3))
    # all-uniform is one division; per-target shares move (3, 5, 6) in the last bit
    wide = [("a", 3), ("b", 5), ("c", 6)]
    want = ConditionalFactor(wide, given, np.full((3, 3, 5, 6), 1.0 / 90))
    got = ConditionalFactor.from_modes(wide, given, "uniform")
    assert reference.same_bytes(got.table, want.table)
    copy = ConditionalFactor.from_modes(targets, given, ("copy", "x"))
    for x in range(3):
        assert copy.table[x, x % 2, x] == 1.0
    # a source must be a conditioner or an earlier target
    for modes in [("copy", "w"), [("copy", "z"), "const"], ["const", ("copy", "z")]]:
        with pytest.raises(errors.UnknownLabel):
            ConditionalFactor.from_modes(targets, given, modes)
    for modes in [["const"], ["const"] * 3, "constant", ["const", "copy"],
                  [("copy", "x", "y"), "const"], [("copy",), "const"]]:
        with pytest.raises(errors.InvalidFactor):
            ConditionalFactor.from_modes(targets, given, modes)


FACTOR_CONSTRUCTORS = {
    "from_modes": lambda t, g: ConditionalFactor.from_modes(t, g, ("copy", "x")),
    "random": lambda t, g: ConditionalFactor.random(t, g, np.random.default_rng(0)),
}


@pytest.mark.parametrize("name", sorted(FACTOR_CONSTRUCTORS))
def test_factor_constructors_check_cardinalities_before_building(name):
    build = FACTOR_CONSTRUCTORS[name]
    want = build([("y", 2)], [("x", 3)])
    # an integral float is a cardinality, as the constructor itself takes it
    got = build([("y", 2.0)], [("x", 3.0)])
    assert got.targets == want.targets and got.given == want.given
    assert reference.same_bytes(got.table, want.table)
    for targets, given in [([("y", 2.5)], [("x", 3)]), ([("y", 2)], [("x", 2.5)])]:
        with pytest.raises(errors.ShapeMismatch):
            build(targets, given)


def test_factor_validation():
    with pytest.raises(errors.SumNotOne):
        ConditionalFactor((("y", 2),), (("x", 2),), np.full((2, 2), 0.4))
    with pytest.raises(errors.ShapeMismatch):
        ConditionalFactor((("y", 2),), (("x", 2),), np.full((2, 3), 0.5))
    with pytest.raises(errors.DuplicateLabel):
        ConditionalFactor((("x", 2),), (("x", 2),), np.full((2, 2), 0.5))
    with pytest.raises(errors.EmptyList):
        ConditionalFactor((), (("x", 2),), np.ones((2,)))


def test_joint_from_factors_chain():
    # x uniform bit, y = x, z uniform given both
    fx = ConditionalFactor.from_modes([("x", 2)], (), "uniform")
    fy = ConditionalFactor.from_modes([("y", 2)], [("x", 2)], ("copy", "x"))
    fz = ConditionalFactor.from_modes([("z", 2)], [("x", 2), ("y", 2)], "uniform")
    j = joint_from_factors([fx, fy, fz])
    assert j.labels == ("x", "y", "z")
    expect = np.zeros((2, 2, 2))
    expect[0, 0, :] = 0.25
    expect[1, 1, :] = 0.25
    assert np.allclose(j.probs, expect)
    assert mi(j, ["x"], ["y"]) == pytest.approx(1.0, abs=1e-12)


def test_joint_from_factors_rejects_bad_chains():
    def uniform(targets, given=()):
        return ConditionalFactor.from_modes(targets, given, "uniform")

    fx = uniform([("x", 2)])
    with pytest.raises(errors.DanglingConditioner):
        joint_from_factors([uniform([("y", 2)], [("x", 2)])])
    with pytest.raises(errors.RepeatedTarget):
        joint_from_factors([fx, uniform([("x", 2)])])
    with pytest.raises(errors.CardinalityMismatch):
        joint_from_factors([fx, uniform([("y", 2)], [("x", 3)])])
    with pytest.raises(errors.EmptyList):
        joint_from_factors([])


def test_multi_target_factor_block():
    rng = np.random.default_rng(3)
    fx = ConditionalFactor.from_modes([("x", 2)], (), "uniform")
    block = ConditionalFactor.random([("y", 2), ("z", 3)], [("x", 2)], rng)
    j = joint_from_factors([fx, block])
    assert j.labels == ("x", "y", "z")
    # joint rows reproduce the block rows
    assert np.allclose(j.probs, 0.5 * block.table)

