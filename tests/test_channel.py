"""Unit tests for channel loading and classification."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _law_reference as reference
from cifc_udc import cli, errors
from cifc_udc.channel import (
    ChannelSpec,
    classify,
    dump_channel,
    load_channel,
)
from cifc_udc.oracle import oracle_is_degraded
from cifc_udc.outer import InputLaw
from cifc_udc.pmf import ConditionalFactor, JointPMF
from cifc_udc.polytope import LinearSystem, region_from_dict


def clean_orthogonal():
    """y1 = x1 and y2 = x2, all binary, x3 ignored."""
    return ChannelSpec.from_outputs((2, 2, 2, 2, 2), lambda x1, x2, x3: (x1, x2))


def pair_output_channel():
    """y2 reveals (x1,x2) as a 4-ary symbol, y1 = x1 xor x3."""
    return ChannelSpec.from_outputs(
        (2, 2, 2, 2, 4), lambda x1, x2, x3: (x1 ^ x3, 2 * x1 + x2)
    )


def doc_for(channel):
    return json.loads(dump_channel(channel))


# ------------------------------------------------------------------- loading


def test_load_clean_channel():
    text = dump_channel(clean_orthogonal())
    ch = load_channel(text)
    assert ch.cards == (2, 2, 2, 2, 2)
    assert ch.transition[1, 0, 0, 1, 0] == 1.0


def test_row_sum_error_names_inputs():
    doc = doc_for(clean_orthogonal())
    # break the row for inputs (1, 0, 1)
    flat_index = np.ravel_multi_index((1, 0, 1, 1, 0), (2, 2, 2, 2, 2))
    doc["p"][flat_index] = 0.9
    with pytest.raises(errors.RowSumError) as excinfo:
        load_channel(json.dumps(doc))
    assert "(1, 0, 1)" in str(excinfo.value)


def test_missing_entry_is_shape_mismatch():
    doc = doc_for(clean_orthogonal())
    doc["p"] = doc["p"][:-1]
    with pytest.raises(errors.ShapeMismatch):
        load_channel(json.dumps(doc))


def test_entry_count_past_int64_is_shape_mismatch():
    # 2**32 * 2**32 entries wrap to 0 in int64, which an empty "p" matched
    doc = {"x1": 2**32, "x2": 2**32, "x3": 1, "y1": 1, "y2": 1, "p": []}
    with pytest.raises(errors.ShapeMismatch):
        load_channel(json.dumps(doc))


@pytest.mark.parametrize("field", ["x1", "y2"])
def test_negative_cardinality_is_named(field, tmp_path, capsys):
    # the entry count came first and read "has 0 entries, expected -8"
    doc = doc_for(clean_orthogonal())
    doc[field] = -1
    with pytest.raises(errors.ShapeMismatch) as excinfo:
        load_channel(json.dumps(doc))
    assert f"'{field}': -1" in str(excinfo.value)
    assert "entries" not in str(excinfo.value)
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["classify", str(path)]) == 1
    assert "cardinalities must be >= 1" in capsys.readouterr().err


def test_parse_errors():
    with pytest.raises(errors.ParseError):
        load_channel("not json at all {")
    with pytest.raises(errors.ParseError):
        load_channel("[1, 2, 3]")
    with pytest.raises(errors.ParseError):
        load_channel(json.dumps({"x1": 2, "x2": 2, "x3": 2, "y1": 2}))
    doc = doc_for(clean_orthogonal())
    doc["p"] = "zzz"
    with pytest.raises(errors.ParseError):
        load_channel(json.dumps(doc))


def test_negative_entry_rejected():
    doc = doc_for(clean_orthogonal())
    doc["p"][0] = -0.5
    doc["p"][1] = 1.5
    with pytest.raises(errors.NegativeEntry):
        load_channel(json.dumps(doc))


def _pair(bad):
    return np.array([bad, 0.5])


def _load_through_cli(bad, tmp_path):
    doc = doc_for(clean_orthogonal())
    doc["p"][0] = bad  # json writes NaN / Infinity / -Infinity
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["classify", str(path)]) == 2
    load_channel(path.read_text())


NON_FINITE_ENTRY_POINTS = {
    "ChannelSpec": (
        lambda bad, tmp: ChannelSpec(
            (1, 1, 1, 2, 1), _pair(bad).reshape(1, 1, 1, 2, 1)
        ),
        errors.NegativeEntry,
    ),
    "load_channel": (_load_through_cli, errors.ParseError),
    "JointPMF": (
        lambda bad, tmp: JointPMF((("a", 2),), _pair(bad)),
        errors.NegativeEntry,
    ),
    "ConditionalFactor": (
        lambda bad, tmp: ConditionalFactor((("a", 2),), (), _pair(bad)),
        errors.NegativeEntry,
    ),
    "InputLaw": (
        lambda bad, tmp: InputLaw((2, 1, 1), _pair(bad).reshape(2, 1, 1)),
        errors.NegativeEntry,
    ),
}


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("entry", sorted(NON_FINITE_ENTRY_POINTS))
def test_non_finite_input_rejected(entry, bad, tmp_path):
    build, error = NON_FINITE_ENTRY_POINTS[entry]
    with pytest.raises(error):
        build(bad, tmp_path)


def _region_doc(bad, where):
    doc = {
        "halfplanes": [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]],
        "vertices": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
        "empty": False,
    }
    doc[where][1][2 if where == "halfplanes" else 0] = bad
    return doc


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("where", ["halfplanes", "vertices"])
def test_non_finite_region_document_rejected(where, bad, tmp_path):
    with pytest.raises(errors.ShapeMismatch):
        region_from_dict(_region_doc(bad, where))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_region_doc(1.0, where)))
    path = tmp_path / "region.json"
    path.write_text(json.dumps(_region_doc(bad, where)))
    assert cli.main(["compare", str(good), str(good)]) == 0
    assert cli.main(["compare", str(path), str(good)]) == 2


def _with_bad(values, at, bad):
    """A float copy of ``values`` with flat entry ``at`` set to ``bad``."""
    out = np.array(values, dtype=float)
    out.reshape(-1)[at] = bad
    return out


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.lists(st.integers(1, 3), min_size=5, max_size=5),
    st.integers(0, 2**31 - 1),
    st.data(),
)
def test_non_finite_at_any_position_is_a_domain_error(bad, cards, seed, data):
    rng = np.random.default_rng(seed)
    cards = tuple(cards)
    labels = tuple(zip(("x1", "x2", "x3", "y1", "y2"), cards))
    law = rng.dirichlet(np.ones(cards[3] * cards[4]), size=cards[:3])
    law = _with_bad(law, data.draw(st.integers(0, law.size - 1)), bad).reshape(cards)
    doc = dict(labels)
    doc["p"] = law.reshape(-1).tolist()  # json writes NaN / Infinity / -Infinity
    tensor_entries = (
        lambda: ChannelSpec(cards, law),
        lambda: JointPMF(labels, law / np.prod(cards[:3])),
        lambda: ConditionalFactor(labels[3:], labels[:3], law),
        lambda: InputLaw(cards, law / np.prod(cards[:3])),
    )
    for build in tensor_entries:
        with pytest.raises(errors.NegativeEntry):
            build()
    with pytest.raises(errors.ParseError):
        load_channel(json.dumps(doc))

    rows = _with_bad(
        rng.uniform(-1.0, 1.0, (3, 4)), data.draw(st.integers(0, 11)), bad
    )
    drawn, none = (rows[:, :3], rows[:, 3]), (np.zeros((0, 3)), np.zeros(0))
    ineq, eq = (none, drawn) if data.draw(st.booleans()) else (drawn, none)
    with pytest.raises(errors.ShapeMismatch):
        LinearSystem(("a", "b", "c"), *ineq, *eq, frozenset())

    region = _region_doc(1.0, "halfplanes")
    where = data.draw(st.sampled_from(["halfplanes", "vertices"]))
    region[where] = _with_bad(
        region[where], data.draw(st.integers(0, np.size(region[where]) - 1)), bad
    ).tolist()
    with pytest.raises(errors.ShapeMismatch):
        region_from_dict(region)


@pytest.mark.parametrize("card", [1.9, True, "2", None, [2]])
def test_non_integral_cardinality_rejected(card, tmp_path):
    doc = doc_for(clean_orthogonal())
    doc["x1"] = card
    with pytest.raises(errors.ParseError):
        load_channel(json.dumps(doc))
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["classify", str(path)]) == 2


NON_INTEGRAL_CARD_ENTRY_POINTS = {
    "ChannelSpec": lambda card: ChannelSpec((card, 2, 2, 2, 2), np.full((2,) * 5, 0.25)),
    "InputLaw": lambda card: InputLaw((card, 2, 2), np.full((2, 2, 2), 0.125)),
    "InputLaw.uniform": lambda card: InputLaw.uniform((card, 2, 2)),
    "InputLaw.random": lambda card: InputLaw.random(
        (card, 2, 2), np.random.default_rng(0)
    ),
    "JointPMF": lambda card: JointPMF((("y", card),), np.full(2, 0.5)),
    "ConditionalFactor": lambda card: ConditionalFactor(
        (("y", card),), (), np.full(2, 0.5)
    ),
}


@pytest.mark.parametrize("entry", sorted(NON_INTEGRAL_CARD_ENTRY_POINTS))
def test_non_integral_cardinality_is_a_shape_error(entry):
    build = NON_INTEGRAL_CARD_ENTRY_POINTS[entry]
    build(2.0)  # an integral float is a cardinality
    for card in (2.5, 2.9, float("nan"), float("inf"), "2", None):
        with pytest.raises(errors.ShapeMismatch):
            build(card)


@pytest.mark.parametrize("spell", [str, bool, np.bool_, lambda v: [v], lambda v: {"v": v}],
                         ids=["string", "bool", "np.bool_", "array", "object"])
def test_a_string_a_boolean_or_an_array_is_no_number(spell, tmp_path):
    """Each loader refuses numbers spelled as strings, booleans, one-entry
    arrays or objects, even ones that keep the document's values (1.0 as
    "1.0", true, [1.0] or {"v": 1.0})."""
    path = tmp_path / "doc.json"
    doc = doc_for(clean_orthogonal())
    doc["p"] = [spell(v) for v in doc["p"]]
    with pytest.raises(errors.ParseError):
        load_channel(json.dumps(doc, default=bool))
    path.write_text(json.dumps(doc, default=bool))
    assert cli.main(["classify", str(path)]) == 2

    system = {"variables": ["R1", "R2", "t"], "nonnegative": ["R1", "R2"],
              "inequalities": [[1, 0, 1, 3], [0, 0, 1, 2], [0, 0, -1, 0], [0, 1, 0, 1]]}
    path.write_text(json.dumps(system))
    assert cli.main(["fm", str(path), "--keep", "R1,R2"]) == 0
    for row, col in ((0, 0), (2, 1)):
        system["inequalities"][row][col] = spell(system["inequalities"][row][col])
        path.write_text(json.dumps(system, default=bool))
        assert cli.main(["fm", str(path), "--keep", "R1,R2"]) == 2

    good = tmp_path / "good.json"
    good.write_text(json.dumps(_region_doc(1.0, "vertices")))
    for where in ("halfplanes", "vertices"):
        region = _region_doc(spell(1.0), where)
        with pytest.raises(errors.ShapeMismatch):
            region_from_dict(region)
        path.write_text(json.dumps(region, default=bool))
        assert cli.main(["compare", str(path), str(good)]) == 2


@pytest.mark.parametrize("empty", ["false", "true", 1, [False]])
def test_region_empty_must_be_a_boolean(empty):
    # the document of an empty region, which takes no vertex
    region = {"halfplanes": [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]], "vertices": [],
              "empty": True}
    assert region_from_dict(region).empty
    region["empty"] = empty
    with pytest.raises(errors.ShapeMismatch):
        region_from_dict(region)


def test_region_from_dict_takes_numpy_numbers():
    doc = {"halfplanes": [[np.float64(1.0), np.int64(0), np.float32(1.0)]],
           "vertices": [[np.float64(0.0), np.int64(0)], [np.float32(1.0), 0]],
           "empty": np.False_}
    region = region_from_dict(doc)
    assert region.halfplanes[0] == (1.0, 0.0, 1.0) and not region.empty


def test_integral_float_cardinality_accepted():
    ch = clean_orthogonal()
    doc = doc_for(ch)
    doc["x1"] = float(doc["x1"])
    assert load_channel(json.dumps(doc)).cards == ch.cards


def test_dump_round_trip():
    ch = pair_output_channel()
    again = load_channel(dump_channel(ch))
    assert again.cards == ch.cards
    assert np.allclose(again.transition, ch.transition)


# -------------------------------------------------------------- classify


def test_clean_channel_classification():
    report = classify(clean_orthogonal())
    assert report.is_z
    assert not report.is_degraded  # y1 = x1 is not recoverable from (y2, x3)
    assert report.is_semi_deterministic
    # the report holds the three structural flags and nothing else
    assert [f.name for f in dataclasses.fields(report)] == [
        "is_z", "is_degraded", "is_semi_deterministic",
    ]


def test_pair_output_channel_classification():
    ch = pair_output_channel()
    report = classify(ch)
    assert report.is_z
    assert report.is_degraded
    assert report.is_semi_deterministic
    assert oracle_is_degraded(ch.transition)


def test_shared_xor_output_is_not_z():
    ch = ChannelSpec.from_outputs(
        (2, 2, 1, 2, 2), lambda x1, x2, x3: (x1 ^ x2, x1 ^ x2)
    )
    report = classify(ch)
    assert not report.is_z


def test_degraded_flag_matches_oracle_on_random_channels():
    rng = np.random.default_rng(31)
    hits = 0
    for _ in range(20):
        t = rng.dirichlet(np.ones(4), size=(2, 2, 2)).reshape(2, 2, 2, 2, 2)
        ch = ChannelSpec((2, 2, 2, 2, 2), t)
        got = classify(ch).is_degraded
        assert got == oracle_is_degraded(ch.transition)
        hits += got
    # random channels are essentially never degraded
    assert hits == 0


def structured_random_channel(rng, index):
    """A third dense Dirichlet(0.3) channels; the rest degraded, y1 drawn
    from (x3, y2), and every second of those perturbed by 1e-3."""
    cards = tuple(int(c) for c in rng.integers(1, 4, 5))
    n1, n2, n3, m1, m2 = cards
    if index % 3 == 0:
        rows = rng.dirichlet(np.full(m1 * m2, 0.3), size=n1 * n2 * n3)
        return ChannelSpec(cards, rows.reshape(cards))
    p_y2 = rng.dirichlet(np.full(m2, 0.3), size=(n1, n2, n3))
    p_y1 = rng.dirichlet(np.full(m1, 0.3), size=(n3, m2))
    t = np.einsum("abce,ced->abcde", p_y2, p_y1)
    if index % 3 == 2:
        t = t + 1e-3 * rng.random(cards)
        t = t / t.sum(axis=(3, 4), keepdims=True)
    return ChannelSpec(cards, t)


def test_classify_matches_the_reference_loop():
    rng = np.random.default_rng(47)
    flags = {"is_degraded": 0, "is_z": 0, "is_semi_deterministic": 0}
    for index in range(600):
        ch = structured_random_channel(rng, index)
        for tol in (1e-9, 1e-2):
            report = classify(ch, tol)
            assert report == reference.classify(ch, tol)
        for key in flags:
            flags[key] += getattr(report, key)
    # the family reaches both outcomes of every flag
    assert all(0 < count < 600 for count in flags.values()), flags


def test_from_outputs_matches_the_reference_loop():
    rng = np.random.default_rng(53)
    for _ in range(40):
        cards = tuple(int(c) for c in rng.integers(1, 4, 5))
        y1 = rng.integers(0, cards[3], cards[:3])
        y2 = rng.integers(0, cards[4], cards[:3])
        fn = lambda a, b, c: (y1[a, b, c], y2[a, b, c])
        got = ChannelSpec.from_outputs(cards, fn)
        want = reference.ReferenceChannel.from_outputs(cards, fn)
        assert got.cards == want.cards
        assert reference.same_bytes(got.transition, want.transition)


@pytest.mark.parametrize("outputs", [
    lambda a, b, c: (-1, a),
    lambda a, b, c: (a, 2),
    lambda a, b, c: (2, 0),
], ids=["negative-y1", "y2-equals-card", "y1-equals-card"])
def test_from_outputs_rejects_symbols_outside_the_alphabet(outputs):
    with pytest.raises(errors.IndexOutOfRange):
        ChannelSpec.from_outputs((2, 1, 1, 2, 2), outputs)


def test_from_outputs_checks_the_shape_of_its_arguments():
    with pytest.raises(errors.ShapeMismatch):
        ChannelSpec.from_outputs((2, 1, 1, 2, 2), lambda a, b, c: (a, a, a))
    for cards in [(2, 2, 2, 2), (2, 2, 2, 2, 2, 2)]:
        with pytest.raises(errors.ShapeMismatch, match="five cardinalities"):
            ChannelSpec.from_outputs(cards, lambda *x: (0, 0))


def test_noisy_product_channel_is_z():
    rng = np.random.default_rng(5)
    # build p(y1|x1,x3) and p(y2|x1,x2,x3), then take the product
    a = rng.dirichlet(np.ones(2), size=(2, 2))          # (x1,x3,y1)
    b = rng.dirichlet(np.ones(3), size=(2, 2, 2))       # (x1,x2,x3,y2)
    t = np.einsum("ace,abcf->abcef", a, b)
    ch = ChannelSpec((2, 2, 2, 2, 3), t)
    report = classify(ch)
    assert report.is_z
    assert not report.is_semi_deterministic


def test_classification_survives_output_relabeling():
    ch = pair_output_channel()
    base = classify(ch)
    rng = np.random.default_rng(9)
    for _ in range(5):
        perm1 = rng.permutation(ch.cards[3])
        perm2 = rng.permutation(ch.cards[4])
        t = ch.transition[:, :, :, perm1, :][:, :, :, :, perm2]
        relabeled = classify(ChannelSpec(ch.cards, t))
        assert relabeled.is_z == base.is_z
        assert relabeled.is_degraded == base.is_degraded
        assert relabeled.is_semi_deterministic == base.is_semi_deterministic


def test_as_factor_bridges_to_pmf():
    ch = clean_orthogonal()
    f = ch.as_factor()
    assert f.target_labels == ("y1", "y2")
    assert f.given_labels == ("x1", "x2", "x3")
    assert f.table.shape == (2, 2, 2, 2, 2)
