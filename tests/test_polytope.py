"""Unit tests for linear systems, elimination, and 2D region handling."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _fm_reference as reference
from _systems import case_system, materialized_rows, random_bounded_system, union_hull
from cifc_udc import errors, polytope
from cifc_udc.channel import load_channel
from cifc_udc.inner import (
    DROP_CASES,
    SamplerConfig,
    admissible,
    assemble_joint,
    inner_constants,
    sample_factorizations,
)
from cifc_udc.oracle import oracle_projected_vertices
from cifc_udc.outer import fan_directions
from cifc_udc.polytope import (
    BOX_LIMIT,
    HULL_QUANT,
    LinearSystem,
    Region2D,
    polygon_extract,
    polygon_points,
    project_parametric,
    project_to_plane,
    region_contains,
    region_from_dict,
    region_from_vertices,
    region_to_dict,
    regions_close,
    support,
)


def unit_square():
    sys_ = LinearSystem.from_rows(
        ("R1", "R2"),
        [({"R1": 1}, 1.0), ({"R2": 1}, 1.0)],
        nonnegative=("R1", "R2"),
    )
    return polygon_extract(sys_, "R1", "R2")


# ------------------------------------------------------------ project_to_plane
# each system keeps one variable, z, beside the one it eliminates


def test_eliminate_lower_upper_pair():
    # y >= 0 and x + y <= 3 leave x <= 3
    sys_ = LinearSystem.from_rows(
        ("x", "z", "y"), [({"x": 1, "y": 1}, 3.0)], nonnegative=("y",)
    )
    out = project_to_plane(sys_, "x", "z")
    assert out.variables == ("x", "z")
    assert out.ineq_coefs.shape == (1, 2)
    assert out.ineq_coefs[0] == pytest.approx([1.0, 0.0])
    assert out.ineq_bounds[0] == pytest.approx(3.0)


def test_eliminate_with_two_lower_bounds():
    sys_ = LinearSystem.from_rows(
        ("x", "z", "y"),
        [({"x": 1, "y": -1}, 1.0), ({"y": 1}, 2.0), ({"y": -1}, 0.0)],
    )
    out = project_to_plane(sys_, "x", "z")
    assert out.variables == ("x", "z")
    # x - y <= 1 with y <= 2 gives x <= 3; the 0 <= 2 row is trivial
    assert out.ineq_coefs.shape == (1, 2)
    assert out.ineq_coefs[0] == pytest.approx([1.0, 0.0])
    assert out.ineq_bounds[0] == pytest.approx(3.0)


def test_eliminate_substitutes_equalities():
    sys_ = LinearSystem.from_rows(
        ("x", "z", "y"),
        [({"x": 1, "y": -1}, 0.5)],
        [({"x": 1, "y": 1}, 1.5)],
        nonnegative=("x", "z", "y"),
    )
    out = project_to_plane(sys_, "x", "z")
    assert out.variables == ("x", "z")
    assert out.nonnegative == {"x", "z"}
    assert out.eq_coefs.shape[0] == 0
    # x - (1.5 - x) <= 0.5 gives x <= 1; y >= 0 gives x <= 1.5 (dominated)
    assert out.ineq_coefs.shape == (1, 2)
    assert out.ineq_coefs[0] == pytest.approx([1.0, 0.0])
    assert out.ineq_bounds[0] == pytest.approx(1.0)


def test_infeasible_constant_row_detected():
    sys_ = LinearSystem.from_rows(("x",), [({"x": 0}, -1.0)])
    assert not sys_.feasible
    sys2 = LinearSystem.from_rows(("x", "y"), [], [({"x": 0, "y": 0}, 1.0)])
    assert not sys2.feasible


def test_a_system_over_no_variables_holds_its_trivial_rows():
    held = LinearSystem.from_rows([], [({}, 1.0)], [({}, 0.0)])
    assert held.feasible and held.variables == ()
    assert held.ineq_coefs.shape == (0, 0) and held.eq_coefs.shape == (0, 0)
    assert not LinearSystem.from_rows([], [({}, -1.0)]).feasible
    assert not LinearSystem.from_rows([], [], [({}, 1.0)]).feasible
    assert LinearSystem((), np.zeros((2, 0)), [1.0, 2.0], [], [], frozenset()).feasible


def test_infeasible_system_materializes_a_contradiction():
    sys_ = LinearSystem.from_rows(
        ("x", "y"), [({"x": 0}, -1.0), ({"x": 1}, 2.0)], nonnegative=("x", "y")
    )
    coefs, bounds = materialized_rows(sys_)
    assert np.array_equal(coefs, np.zeros((1, 2)))
    assert np.array_equal(bounds, [-1.0])


def test_infeasible_system_projects_to_an_empty_region():
    caps = [({"x": 1}, 1.0), ({"z": 1}, 1.0)]
    contradictory = LinearSystem.from_rows(
        ("x", "z", "y"), caps + [({"x": 0}, -1.0), ({"x": 1, "y": 1}, 2.0)],
        nonnegative=("x", "z", "y"),
    )
    # feasible as written; y <= 1 and y >= 2 pair into 0 <= -1
    clashing = LinearSystem.from_rows(
        ("x", "z", "y"), caps + [({"y": 1}, 1.0), ({"y": -1}, -2.0)],
        nonnegative=("x", "z", "y"),
    )
    assert not contradictory.feasible and clashing.feasible
    for sys_ in (contradictory, clashing):
        out = project_to_plane(sys_, "x", "z")
        assert out.variables == ("x", "z")
        assert not out.feasible
        assert out.ineq_coefs.shape == (0, 2) and out.ineq_bounds.shape == (0,)
        assert out.eq_coefs.shape == (0, 2) and out.eq_values.shape == (0,)
        assert polygon_extract(out, "x", "z").empty


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rows_rejected(bad):
    with pytest.raises(errors.ShapeMismatch):
        LinearSystem.from_rows(("x",), [({"x": bad}, 1.0)])
    with pytest.raises(errors.ShapeMismatch):
        LinearSystem.from_rows(("x",), [({"x": 1.0}, bad)])
    with pytest.raises(errors.ShapeMismatch):
        LinearSystem.from_rows(("x", "y"), [], [({"x": 1.0, "y": bad}, 0.0)])
    with pytest.raises(errors.ShapeMismatch):
        LinearSystem.from_rows(("x", "y"), [], [({"x": 1.0}, bad)])


@pytest.mark.parametrize("variables,coefs", [(("x", "y"), [1.0, 2.0, 3.0]), ((), [[1.0]])],
                         ids=["three-coefficients-over-two", "a-coefficient-over-none"])
def test_coefficients_that_fill_no_row_per_bound_rejected(variables, coefs):
    with pytest.raises(errors.ShapeMismatch, match="disagree in count"):
        LinearSystem(variables, coefs, [1.0], [], [], frozenset())
    with pytest.raises(errors.ShapeMismatch, match="disagree in count"):
        LinearSystem(variables, [], [], coefs, [1.0], frozenset())


def test_unknown_variable_errors():
    sys_ = LinearSystem.from_rows(("x", "z", "y"), [({"x": 1, "y": 1}, 1.0)])
    with pytest.raises(errors.UnknownVariable):
        project_to_plane(sys_, "x", "q")
    with pytest.raises(errors.UnknownVariable):
        project_to_plane(sys_, "q", "z")
    with pytest.raises(errors.UnknownVariable):
        project_to_plane(sys_, "x", "z", order=["x", "y"])
    with pytest.raises(errors.UnknownVariable):
        project_to_plane(sys_, "x", "z", order=["q"])
    with pytest.raises(errors.UnknownVariable):
        LinearSystem.from_rows(("x",), [({"q": 1}, 1.0)])


def test_elimination_matches_grid_search():
    """Projected membership equals existence of a feasible extension."""
    rng = np.random.default_rng(42)
    for _ in range(5):
        sys_ = random_bounded_system(rng, n_vars=3)
        target = sys_.variables[-1]
        projected = project_to_plane(sys_, *sys_.variables[:2])
        A, b = materialized_rows(sys_)
        Ap, bp = materialized_rows(projected)
        k = sys_.index_of(target)
        keep = [i for i in range(3) if i != k]
        grid = np.linspace(0.0, 3.5, 141)
        for _ in range(200):
            point = rng.uniform(-0.2, 3.2, 2)
            in_proj = bool(np.all(Ap @ point <= bp + 1e-7))
            full = np.zeros(3)
            full[keep] = point
            exists = False
            for t in grid:
                full[k] = t
                if np.all(A @ full <= b + 1e-7):
                    exists = True
                    break
            if exists:
                assert in_proj  # projection can only widen by tolerance
            if not in_proj:
                assert not exists


def test_elimination_order_independent():
    rng = np.random.default_rng(17)
    for _ in range(10):
        sys_ = random_bounded_system(rng, n_vars=4)
        order_a = [v for v in sys_.variables[2:]]
        order_b = list(reversed(order_a))
        pa = polygon_extract(
            project_to_plane(sys_, "t0", "t1", order=order_a), "t0", "t1"
        )
        pb = polygon_extract(
            project_to_plane(sys_, "t0", "t1", order=order_b), "t0", "t1"
        )
        assert regions_close(pa, pb, tol=1e-7)


def test_projection_matches_vertex_enumeration():
    rng = np.random.default_rng(7)
    for trial in range(15):
        sys_ = random_bounded_system(rng, with_equality=(trial % 3 == 0))
        r1, r2 = sys_.variables[0], sys_.variables[1]
        region = polygon_extract(project_to_plane(sys_, r1, r2), r1, r2)
        A, b = materialized_rows(sys_)
        pts = oracle_projected_vertices(
            A, b, sys_.eq_coefs, sys_.eq_values,
            sys_.index_of(r1), sys_.index_of(r2),
        )
        if region.empty:
            assert not pts
            continue
        oracle_region = region_from_vertices(pts)
        assert regions_close(region, oracle_region, tol=1e-7)


def _as_reference(sys_):
    return reference.LinearSystem(
        sys_.variables, sys_.ineq_coefs, sys_.ineq_bounds, sys_.eq_coefs,
        sys_.eq_values, sys_.nonnegative, sys_.feasible,
    )


def _assert_same_system(got, want):
    assert got.variables == want.variables
    assert got.feasible == want.feasible
    assert got.nonnegative == want.nonnegative
    for field in ("ineq_coefs", "ineq_bounds", "eq_coefs", "eq_values"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


@pytest.mark.parametrize("with_equality", [False, True])
def test_elimination_matches_reference_code(with_equality):
    """The one elimination front end reproduces the old elimination loops
    array for array, in every pinned order."""
    rng = np.random.default_rng([404, with_equality])
    for _ in range(150):
        sys_ = random_bounded_system(rng, with_equality=with_equality)
        old = _as_reference(sys_)
        _assert_same_system(sys_, old)
        doomed = list(sys_.variables[2:])
        for order in (None, doomed, doomed[::-1]):
            _assert_same_system(
                project_to_plane(sys_, "t0", "t1", order=order),
                reference.project_to_plane(old, "t0", "t1", order=order),
            )


FIXTURES = sorted((Path(__file__).resolve().parents[1] / "channels").glob("*.json"))


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_pinning_by_leaving_out_matches_pinning_by_equality(path):
    """A drop case that leaves its pinned rates out of the system gives the
    same region as the full system with a v = 0 equality per pinned rate."""
    channel = load_channel(path.read_text(encoding="utf-8"))
    cfg = SamplerConfig(seed=8, num_samples=2)
    for f in sample_factorizations(channel, cfg):
        c = inner_constants(assemble_joint(f, channel))
        if not admissible(c):
            continue
        for pinned, dropped in DROP_CASES:
            full = case_system(c, (), dropped)
            pins = np.zeros((len(pinned), len(full.variables)))
            for row, var in zip(pins, pinned):
                row[full.index_of(var)] = 1.0
            by_equality = LinearSystem(
                full.variables, full.ineq_coefs, full.ineq_bounds,
                np.vstack([full.eq_coefs, pins]),
                np.concatenate([full.eq_values, np.zeros(len(pinned))]),
                full.nonnegative,
            )
            left_out = case_system(c, pinned, dropped)
            assert not set(pinned) & set(left_out.variables)
            want = polygon_extract(project_to_plane(by_equality, "R1", "R2"), "R1", "R2")
            got = polygon_extract(project_to_plane(left_out, "R1", "R2"), "R1", "R2")
            assert got.empty == want.empty
            assert got.halfplanes == want.halfplanes
            assert np.array_equal(got.vertices, want.vertices)


def random_family(rng, size):
    """Rows of a random bounded system whose bounds are affine in a
    parameter vector of length ``size``, each bound a row of multipliers
    over (theta, 1); one equality when the draw says so.  The floor on t2
    passes its cap at some parameters, which leaves a contradictory
    trivial row."""
    n = int(rng.integers(3, 6))
    labels = tuple(f"t{i}" for i in range(n))
    coefs = rng.integers(-3, 4, size=(int(rng.integers(4, 9)), n)).astype(float)
    base = coefs @ rng.uniform(0.0, 1.0, n) + rng.uniform(-0.3, 2.0, len(coefs))
    slopes = rng.normal(0.0, 0.5, size=(len(coefs), size))
    caps = rng.uniform(1.2, 3.0, n)
    eq = rng.integers(-2, 3, size=n).astype(float) if rng.random() < 0.5 else None

    def bound(value, at=None, slope=0.0):
        """The multiplier row of value + slope * theta[at]."""
        row = np.zeros(size + 1)
        row[-1] = value
        if at is not None:
            row[at] = slope
        return row

    ineqs = [
        (dict(zip(labels, row)), np.append(slope, value))
        for row, slope, value in zip(coefs, slopes, base)
    ]
    ineqs += [({label: 1.0}, bound(cap)) for label, cap in zip(labels, caps)]
    ineqs.append(({"t2": -1.0}, bound(-1.0, size - 1, -2.0)))  # a floor over its cap
    eqs = [] if eq is None else [(dict(zip(labels, eq)), bound(0.2, 0, 1.0))]
    return labels, ineqs, eqs


def rows_at(rows, theta):
    """Plain (coefficient dict, bound) rows at parameters ``theta``."""
    point = np.append(theta, 1.0)
    return [(mapping, float(bound @ point)) for mapping, bound in rows]


def test_parametric_projection_matches_projection_at_each_point():
    rng = np.random.default_rng(515)
    outcomes = set()
    for _ in range(25):
        size = int(rng.integers(1, 4))
        labels, ineqs, eqs = random_family(rng, size)
        family = project_parametric(
            labels, ineqs, eqs, size, "t0", "t1", nonnegative=labels
        )
        for theta in rng.uniform(-1.0, 1.0, size=(6, size)):
            system = LinearSystem.from_rows(
                labels, rows_at(ineqs, theta), rows_at(eqs, theta), nonnegative=labels
            )
            want = polygon_extract(project_to_plane(system, "t0", "t1"), "t0", "t1")
            rows = family.at(theta)
            got = region_from_vertices([] if rows is None else polygon_points(*rows))
            assert got.empty == want.empty
            assert regions_close(got, want, tol=1e-9)
            outcomes.add((rows is None, got.empty))
    # empty by a trivial row, empty in the plane, and not empty
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_parametric_projection_needs_multiplier_rows():
    # x <= theta and y <= 0: a bare 0 is a row of zero multipliers
    rows = [({"x": 1.0}, np.array([1.0, 0.0])), ({"y": 1.0}, 0)]
    plane = project_parametric(("x", "y"), rows, [], 1, "x", "y")
    directions, bounds = plane.at([0.5])
    assert bounds[np.all(directions == [1.0, 0.0], axis=1)].tolist() == [0.5]
    assert bounds[np.all(directions == [0.0, 1.0], axis=1)].tolist() == [0.0]
    # a bare number other than 0 cannot say which multiplier it is
    with pytest.raises(errors.ShapeMismatch):
        project_parametric(("x", "y", "z"), [({"x": 1.0}, 1.0)], [], 1, "x", "y")


def test_parametric_plane_without_forms_has_no_rows():
    # no row at all, and a row with no coefficients that holds at theta
    for rows in ([], [({"x": 0.0}, np.array([1.0, 1.0]))]):
        plane = project_parametric(("x", "y"), rows, [], 1, "x", "y")
        directions, bounds = plane.at([0.5])
        assert directions.shape == (0, 2) and bounds.shape == (0,)
    assert plane.at([-2.0]) is None


# ----------------------------------------------------------- polygon_extract


def test_unit_square_polygon():
    region = unit_square()
    assert not region.empty
    assert region.vertices.shape[0] == 4
    got = {tuple(np.round(v, 9)) for v in region.vertices}
    assert got == {(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)}


def test_empty_polygon():
    sys_ = LinearSystem.from_rows(
        ("R1", "R2"), [({"R1": 1}, -1.0)], nonnegative=("R1", "R2")
    )
    region = polygon_extract(sys_, "R1", "R2")
    assert region.empty


def test_touching_redundant_halfplane_pruned():
    sys_ = LinearSystem.from_rows(
        ("R1", "R2"),
        [({"R1": 1}, 1.0), ({"R2": 1}, 1.0), ({"R1": 1, "R2": 1}, 2.0)],
        nonnegative=("R1", "R2"),
    )
    region = polygon_extract(sys_, "R1", "R2")
    assert region.vertices.shape[0] == 4
    for a, b, c in region.halfplanes:
        # the diagonal row must be gone
        assert not (abs(a - b) < 1e-9 and a > 0.1)


def test_leftover_variables_rejected():
    sys_ = LinearSystem.from_rows(
        ("R1", "R2", "R3"), [({"R1": 1}, 1.0)], nonnegative=("R1",)
    )
    with pytest.raises(errors.LeftoverVariables):
        polygon_extract(sys_, "R1", "R2")


def test_unbounded_projection_raises():
    sys_ = LinearSystem.from_rows(
        ("R1", "R2"), [({"R2": 1}, 1.0)], nonnegative=("R1", "R2")
    )
    with pytest.raises(errors.NumericsError):
        polygon_extract(sys_, "R1", "R2")


def test_degenerate_segment_and_point():
    seg_sys = LinearSystem.from_rows(
        ("R1", "R2"),
        [({"R1": 1}, 0.75), ({"R2": 1}, 0.0)],
        nonnegative=("R1", "R2"),
    )
    seg = polygon_extract(seg_sys, "R1", "R2")
    assert seg.vertices.shape[0] == 2
    assert support(seg, (1.0, 0.0)) == pytest.approx(0.75)

    pt_sys = LinearSystem.from_rows(
        ("R1", "R2"),
        [({"R1": 1}, 0.0), ({"R2": 1}, 0.0)],
        nonnegative=("R1", "R2"),
    )
    pt = polygon_extract(pt_sys, "R1", "R2")
    assert pt.is_point()


def assert_vertices_satisfy_every_row(system, region, tol=1e-9):
    """Every vertex meets every input row, the pruned ones included."""
    coefs, bounds = materialized_rows(system)
    assert np.all(region.vertices @ coefs.T <= bounds + tol)


def test_vertices_satisfy_halfplanes_fuzzed():
    rng = np.random.default_rng(5)
    for _ in range(25):
        sys_ = random_bounded_system(rng, n_vars=2)
        region = polygon_extract(sys_, "t0", "t1")
        if region.empty:
            continue
        for a, b, c in region.halfplanes:
            assert np.all(a * region.vertices[:, 0] + b * region.vertices[:, 1] <= c + 1e-7)
        assert_vertices_satisfy_every_row(sys_, region)


def test_nearly_concurrent_lines_add_no_vertex_outside_a_halfplane():
    # fan halfplanes of a thin outer estimate: the second and fourth lines
    # cross 5e-8 outside the third, 1.6e-7 from where the second meets it
    rows = [
        ((1.0, 0.7974733888824039), 0.10781994355068146),
        ((0.797473388882404, 1.0), 0.08606099314521551),
        ((0.4815746188075287, 1.0), 0.052121637768273686),
        ((0.22824347439014997, 1.0), 0.02490448069159935),
        ((0.0, 1.0), 0.00039630746395592),
    ]
    sys_ = LinearSystem.from_rows(
        ("R1", "R2"),
        [({"R1": a, "R2": b}, c) for (a, b), c in rows],
        nonnegative=("R1", "R2"),
    )
    region = polygon_extract(sys_, "R1", "R2")
    assert region_contains(region, region, tol=1e-9)
    assert_vertices_satisfy_every_row(sys_, region)


def test_extracted_halfplanes_hold_every_vertex_to_roundoff():
    rng = np.random.default_rng(29)
    regions = 0
    for _ in range(200):
        region = polygon_extract(random_bounded_system(rng, n_vars=2), "t0", "t1")
        if region.empty:
            continue
        regions += 1
        planes = np.array(region.halfplanes)
        slack = region.vertices @ planes[:, :2].T - planes[:, 2]
        assert np.max(slack) <= 1e-12
    assert regions > 150


def test_fan_envelope_clips_the_box_once_and_keeps_one_halfplane_per_edge(monkeypatch):
    # the fan envelope of the ellipse with semi-axes 2 and 1
    directions = fan_directions(256)
    heights = np.hypot(2 * directions[:, 0], directions[:, 1])
    system = LinearSystem(
        ("R1", "R2"), directions, heights, np.zeros((0, 2)), (), {"R1", "R2"}
    )
    clip, clips = polytope._clip, []
    monkeypatch.setattr(
        polytope, "_clip", lambda points, hp: clips.append(hp) or clip(points, hp)
    )
    region = polygon_extract(system, "R1", "R2")
    assert len(clips) == 256
    assert len(region.halfplanes) == len(region.vertices) > 200
    for direction, height in zip(directions, heights):
        assert support(region, direction) <= height + 1e-9


# ------------------------------------------------------- regions and support


def test_region_contains_examples():
    square = unit_square()
    triangle = region_from_vertices([(0, 0), (1, 0), (0, 1)])
    assert region_contains(square, triangle, 1e-9)
    assert not region_contains(triangle, square, 1e-9)
    assert region_contains(square, square, 1e-9)
    empty = Region2D((), np.zeros((0, 2)), empty=True)
    assert region_contains(square, empty, 1e-9)
    assert not region_contains(empty, square, 1e-9)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1.0])
def test_a_tolerance_must_be_finite_and_nonnegative(tol):
    square = unit_square()
    big = region_from_vertices([(0, 0), (5, 0), (5, 5), (0, 5)])
    for check in (region_contains, regions_close):
        with pytest.raises(errors.ShapeMismatch, match="finite number >= 0"):
            check(square, big, tol)
    assert region_contains(square, square, 0.0)


def region_bytes(region):
    """A region's flag, halfplanes and vertices, as bytes, so that a -0.0
    kept in place of a 0.0 shows."""
    planes = np.asarray(region.halfplanes, dtype=float).reshape(-1, 3)
    vertices = region.vertices
    return region.empty, planes.tobytes(), vertices.shape, vertices.tobytes()


# coordinates on a coarse grid, so that draws repeat; plus -0.0, and
# offsets within and beyond 1e-9
_GRID = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 1.5])
_OFFSET = st.sampled_from([0.0, 0.0, 4e-10, -7e-10, 1e-9, 1.2e-9, -2e-9])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_GRID, _GRID, _OFFSET, _OFFSET), max_size=40),
       st.lists(st.integers(0, 39), max_size=40), st.permutations(range(80)),
       st.booleans())
@example([(0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
          (1.0, 0.0, 5e-10, 0.0)], [], list(range(79, -1, -1)), False)
def test_a_region_holds_its_points_in_any_order(draws, repeats, order, as_array):
    points = [(x + dx, y + dy) for x, y, dx, dy in draws]
    points += [points[i] for i in repeats if i < len(points)]
    shuffled = [points[i] for i in order if i < len(points)]
    if as_array:
        points = np.array(points, dtype=float).reshape(-1, 2)
    region = region_from_vertices(points)
    assert region_bytes(region) == region_bytes(region_from_vertices(shuffled))
    assert region.empty == (len(points) == 0)
    # each point as the region takes it, raised to zero from below (every
    # draw lies within VERTEX_TOL of the quadrant), meets every row, the
    # quadrant's own among them
    planes = np.array(region.halfplanes)
    held = np.maximum(np.asarray(points, dtype=float).reshape(-1, 2), 0.0)
    slack = held @ planes[:, :2].T - planes[:, 2]
    assert np.max(slack, initial=0.0) <= HULL_QUANT


def test_a_point_just_below_zero_keeps_every_vertex_in_the_regions_rows():
    region = region_from_vertices([(-5e-8, 0), (1, 0), (0, 1)])
    planes = np.array(region.halfplanes)
    assert region.vertices.min() >= 0.0
    assert np.max(region.vertices @ planes[:, :2].T - planes[:, 2]) <= HULL_QUANT
    assert region_bytes(region) == region_bytes(region_from_vertices([(0, 0), (1, 0), (0, 1)]))
    # further below than VERTEX_TOL the point is no roundoff: it raises
    with pytest.raises(errors.NumericsError):
        region_from_vertices([(-1e-6, 0), (1, 0), (0, 1)])


def test_lines_through_a_vertex_add_no_copy_of_it():
    # every fan line touches the unit square at its corner (1, 1)
    directions = fan_directions(4096)
    points = polygon_points(directions, directions.sum(axis=1))
    assert len(points) <= 5
    square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    assert region_from_vertices(points).vertices.tolist() == square
    # a row through the corner (BOX_LIMIT, BOX_LIMIT) cuts the box
    box = [(0.0, 0.0), (BOX_LIMIT, 0.0), (BOX_LIMIT, BOX_LIMIT), (0.0, BOX_LIMIT)]
    clipped = polytope._clip(box, (1.0, -0.5, 0.5 * BOX_LIMIT))
    assert clipped == [box[0], (0.5 * BOX_LIMIT, 0.0), box[2], box[3]]


def test_hull_union_examples():
    horizontal = region_from_vertices([(0, 0), (1, 0)])
    vertical = region_from_vertices([(0, 0), (0, 1)])
    tri = union_hull([horizontal, vertical])
    expect = region_from_vertices([(0, 0), (1, 0), (0, 1)])
    assert regions_close(tri, expect, tol=1e-9)
    assert regions_close(union_hull([tri]), tri, tol=1e-12)


def test_hull_union_contains_inputs():
    rng = np.random.default_rng(11)
    regions = []
    for _ in range(100):
        pts = rng.uniform(0.0, 2.0, (3, 2))
        regions.append(region_from_vertices(pts))
    union = union_hull(regions)
    for region in regions:
        assert region_contains(union, region, 1e-9)


def test_hull_union_monotone():
    rng = np.random.default_rng(23)
    acc = [region_from_vertices(rng.uniform(0, 1, (3, 2)))]
    previous = union_hull(acc)
    for _ in range(20):
        acc.append(region_from_vertices(rng.uniform(0, 1, (3, 2))))
        current = union_hull(acc)
        assert region_contains(current, previous, 1e-9)
        previous = current


def test_support_examples():
    square = unit_square()
    assert support(square, (1.0, 1.0)) == pytest.approx(2.0)
    assert support(square, (1.0, 0.0)) == pytest.approx(1.0)
    with pytest.raises(errors.ZeroDirection):
        support(square, (0.0, 0.0))
    empty = Region2D((), np.zeros((0, 2)), empty=True)
    with pytest.raises(errors.EmptyRegion):
        support(empty, (1.0, 0.0))


@pytest.mark.parametrize("direction", [(np.nan, 0.0), (np.inf, 1.0), (0.0, -np.inf)])
def test_support_rejects_a_non_finite_direction(direction):
    with pytest.raises(errors.ShapeMismatch, match="NaN or an infinity"):
        support(unit_square(), direction)


def test_support_matches_boundary_sampling():
    rng = np.random.default_rng(3)
    region = region_from_vertices(rng.uniform(0, 2, (6, 2)))
    verts = region.vertices
    samples = []
    for i in range(verts.shape[0]):
        a, b = verts[i], verts[(i + 1) % verts.shape[0]]
        for t in np.linspace(0, 1, 200):
            samples.append(a + t * (b - a))
    samples = np.array(samples)
    for _ in range(20):
        d = rng.normal(size=2)
        if abs(d[0]) + abs(d[1]) < 1e-6:
            continue
        brute = float(np.max(samples @ d))
        assert support(region, d) == pytest.approx(brute, abs=1e-9)


def test_region_round_trip_serialization():
    region = unit_square()
    doc = region_to_dict(region)
    back = region_from_dict(doc)
    assert regions_close(region, back, tol=1e-12)
    assert back.halfplanes == region.halfplanes

    empty = Region2D((), np.zeros((0, 2)), empty=True)
    assert region_from_dict(region_to_dict(empty)).empty

    with pytest.raises(errors.ShapeMismatch):
        region_from_dict({"halfplanes": [[1.0, 0.0]], "vertices": [], "empty": False})


@pytest.mark.parametrize("vertices", [
    [[0, 0, 1], [0, 0, 0]],
    [[0, 0], [1]],
    [[0, 0], [1, 0, 0, 1]],
    [0, 0, 1, 0],
], ids=["rows-of-three", "short-row", "long-row", "flat-numbers"])
def test_region_document_vertex_rows_are_pairs(vertices):
    doc = {"halfplanes": [[1.0, 0.0, 1.0]], "vertices": vertices, "empty": False}
    with pytest.raises(errors.ShapeMismatch):
        region_from_dict(doc)


def test_region_invariant_enforced():
    with pytest.raises(errors.NumericsError):
        Region2D(((1.0, 0.0, 1.0),), np.array([[2.0, 0.0]]))
    with pytest.raises(errors.ShapeMismatch):
        Region2D((), np.zeros((0, 2)), empty=False)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_region_from_vertices_rejects_a_non_finite_point(bad):
    with pytest.raises(errors.ShapeMismatch, match="NaN or an infinity"):
        region_from_vertices([(0, 0), (1, bad), (1, 1)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_region_constructor_rejects_non_finite_numbers(bad):
    box = [[0, 0], [1, 0], [1, 1], [0, 1]]
    unit = Region2D(((1, 0, 1), (0, 1, 1)), box)
    for planes, vertices in [
        (((1, 0, 5),), [[bad, 0], [0, 0]]),
        # normalization would drop this row as trivial
        (((0, bad, 1), (1, 0, 1), (0, 1, 1)), box),
        (((1, 0, bad), (0, 1, 1)), box),
    ]:
        with pytest.raises(errors.ShapeMismatch, match="NaN or an infinity"):
            region_contains(unit, Region2D(planes, vertices))
