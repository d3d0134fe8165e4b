"""Tests for the convex polytope substrate (LPs, vertex enumeration, volumes)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.linear_analyzer import GeometryCache, _lower_row, _upper_row
from repro.intervals import Interval
from repro.polytope import (
    BatchPolytope,
    LPFailure,
    Polytope,
    PolytopeError,
    enumerate_vertices,
    kernel_available,
    volume_by_enumeration,
)
from repro.polytope import highs, polytope as polytope_module
from repro.symbolic import LinearForm


def unit_cube(dimension: int) -> Polytope:
    return Polytope.from_box([Interval(0.0, 1.0)] * dimension)


class TestBasics:
    def test_dimension_and_constraints(self):
        cube = unit_cube(3)
        assert cube.dimension == 3
        assert cube.constraint_count == 6

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(PolytopeError):
            Polytope(np.zeros((2, 2)), np.zeros(3))

    def test_contains(self):
        cube = unit_cube(2)
        assert cube.contains((0.5, 0.5))
        assert not cube.contains((1.5, 0.5))

    def test_emptiness(self):
        cube = unit_cube(2)
        assert not cube.is_empty()
        empty = cube.add_constraints([[1.0, 0.0], [-1.0, 0.0]], [0.2, -0.8])
        assert empty.is_empty()

    def test_zero_dimensional(self):
        point = Polytope.from_box([])
        assert not point.is_empty()
        assert point.volume_bounds() == Interval.point(1.0)
        infeasible = Polytope(np.zeros((1, 0)), np.array([-1.0]))
        assert infeasible.is_empty()
        assert infeasible.volume_bounds() == Interval.point(0.0)

    def test_empty_box_is_empty(self):
        box = Polytope.from_box([Interval.empty(), Interval(0.0, 1.0)])
        assert box.is_empty()


class TestLinearProgramming:
    def test_bound_linear_on_cube(self):
        cube = unit_cube(3)
        assert cube.bound_linear([1.0, 1.0, 1.0]) == Interval(0.0, 3.0)
        assert cube.bound_linear([1.0, -1.0, 0.0], constant=2.0) == Interval(1.0, 3.0)

    def test_bound_linear_empty_polytope(self):
        empty = unit_cube(1).add_constraints([[1.0], [-1.0]], [0.2, -0.8])
        assert empty.bound_linear([1.0]) is None

    def test_chebyshev_center_of_cube(self):
        center, radius = unit_cube(2).chebyshev_center()
        assert center == pytest.approx([0.5, 0.5])
        assert radius == pytest.approx(0.5)


class TestVolumes:
    def test_cube_volume(self):
        volume = unit_cube(4).volume_bounds()
        assert volume.is_point
        assert volume.lo == pytest.approx(1.0)

    def test_scaled_box_volume(self):
        box = Polytope.from_box([Interval(0.0, 2.0), Interval(-1.0, 1.0)])
        assert box.volume_bounds().lo == pytest.approx(4.0)

    @pytest.mark.parametrize("dimension", [1, 2, 3, 4, 5, 6])
    def test_simplex_volume(self, dimension):
        simplex = unit_cube(dimension).add_constraints([[1.0] * dimension], [1.0])
        expected = 1.0 / math.factorial(dimension)
        assert simplex.volume_bounds().lo == pytest.approx(expected, rel=1e-6)

    def test_halfspace_cut_volume(self):
        half = unit_cube(2).add_constraints([[1.0, -1.0]], [0.0])  # x <= y
        assert half.volume_bounds().lo == pytest.approx(0.5)

    def test_degenerate_volume_zero(self):
        flat = unit_cube(2).add_constraints([[1.0, 0.0], [-1.0, 0.0]], [0.5, -0.5])
        assert flat.volume_bounds() == Interval.point(0.0)

    def test_empty_volume_zero(self):
        empty = unit_cube(3).add_constraints([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], [0.2, -0.9])
        assert empty.volume_bounds() == Interval.point(0.0)

    def test_one_dimensional_volume(self):
        segment = unit_cube(1).add_constraints([[1.0]], [0.25])
        volume = segment.volume_bounds()
        assert volume.is_point
        assert volume.lo == pytest.approx(0.25)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=10_000))
    def test_qhull_volume_matches_brute_force(self, dimension, seed):
        """The production volume path agrees with the brute-force oracle."""
        rng = np.random.default_rng(seed)
        cube = unit_cube(dimension)
        rows = rng.normal(size=(2, dimension))
        rhs = rng.uniform(0.2, 1.0, size=2)
        polytope = cube.add_constraints(rows.tolist(), rhs.tolist())
        fast = polytope.volume_bounds()
        slow = volume_by_enumeration(polytope)
        if slow is None:
            pytest.skip("brute-force enumeration failed (degenerate hull)")
        assert fast.lo == pytest.approx(slow, abs=1e-6)

    def test_monte_carlo_volume_agreement(self):
        rng = np.random.default_rng(42)
        polytope = unit_cube(3).add_constraints([[1.0, 1.0, 1.0], [-1.0, 0.5, 0.0]], [1.5, 0.1])
        points = rng.random((200_000, 3))
        inside = np.mean(np.all(points @ polytope.a[6:].T <= polytope.b[6:], axis=1))
        assert polytope.volume_bounds().lo == pytest.approx(float(inside), abs=0.01)


class TestVertexEnumeration:
    def test_cube_vertices(self):
        vertices = enumerate_vertices(unit_cube(2))
        assert len(vertices) == 4

    def test_triangle_vertices(self):
        triangle = unit_cube(2).add_constraints([[1.0, 1.0]], [1.0])
        vertices = enumerate_vertices(triangle)
        assert len(vertices) == 3

    def test_qhull_vertices_match_brute_force(self):
        polytope = unit_cube(3).add_constraints([[1.0, 1.0, 1.0]], [1.5])
        fast = polytope.vertices()
        slow = enumerate_vertices(polytope)
        assert fast is not None
        assert len(fast) == len(slow)


class TestFormRows:
    """The linear analyzer's constraint rows for ``w·α + [a, b]``: the
    universal reading (``𝔓_lb``) must hold for every point of the interval
    constant, the existential one (``𝔓_ub``) for some point."""

    def test_universal_vs_existential_upper(self):
        form = LinearForm.from_dict({0: 1.0}, Interval(0.0, 1.0))
        row_univ, rhs_univ = _upper_row(form, 2.0, 1, universal=True)
        row_exist, rhs_exist = _upper_row(form, 2.0, 1, universal=False)
        assert row_univ == row_exist == [1.0]
        assert rhs_univ == pytest.approx(1.0)  # x + 1 <= 2
        assert rhs_exist == pytest.approx(2.0)  # x + 0 <= 2

    def test_lower_restriction(self):
        form = LinearForm.from_dict({0: 1.0}, Interval.point(0.0))
        row, rhs = _lower_row(form, 0.5, 1, universal=True)
        assert row == [-1.0]
        assert rhs == pytest.approx(-0.5)

    def test_universal_vs_existential_lower(self):
        form = LinearForm.from_dict({0: 1.0}, Interval(0.0, 1.0))
        _, rhs_univ = _lower_row(form, 0.5, 1, universal=True)
        _, rhs_exist = _lower_row(form, 0.5, 1, universal=False)
        assert rhs_univ == pytest.approx(-0.5)  # x + 0 >= 0.5
        assert rhs_exist == pytest.approx(0.5)  # x + 1 >= 0.5


class TestLPFailure:
    """A failed LP is not emptiness: volumes widen instead of collapsing."""

    @pytest.fixture
    def failing_kernel(self, monkeypatch):
        if not kernel_available():
            pytest.skip("direct HiGHS kernel unavailable")
        monkeypatch.setattr(
            highs.PreparedLP, "solve", lambda self, *args, **kwargs: (highs.FAILED, None, None)
        )

    @pytest.fixture
    def failing_linprog(self, monkeypatch):
        class _Failed:
            status = 4
            success = False
            message = "numerical trouble"

        monkeypatch.setattr(highs, "kernel_available", lambda: False)
        monkeypatch.setattr(polytope_module, "linprog", lambda *args, **kwargs: _Failed())

    @pytest.mark.parametrize("solver", ["failing_kernel", "failing_linprog"])
    def test_square_widens_to_its_axis_box(self, solver, request):
        request.getfixturevalue(solver)
        square = unit_cube(2)
        with pytest.raises(LPFailure):
            square.chebyshev_center()
        assert square.volume_bounds() == Interval(0.0, 1.0)
        # Cutting rows that are not axis-aligned do not shrink the fallback.
        cut = square.add_constraints([[1.0, 1.0]], [0.5])
        assert cut.volume_bounds() == Interval(0.0, 1.0)
        assert cut.bound_linear([1.0, 0.0]) is None
        with pytest.raises(LPFailure):
            cut._linear_range([1.0, 0.0])

    def test_failure_is_never_flat(self, failing_kernel):
        square = unit_cube(2)
        assert square.is_full_dimensional()
        assert GeometryCache().full_dimensional(square)

    def test_bounding_box_fallback(self, failing_kernel):
        box = Polytope.from_box([Interval(0.0, 2.0), Interval(-1.0, 0.5)])
        assert box._bounding_box_volume() == 3.0
        assert Polytope.from_box([Interval(0.0, 1.0)]).volume_bounds() == Interval(0.0, 1.0)

    def test_unbounded_axis_box_is_infinite(self, failing_kernel):
        strip = Polytope(np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, 0.0]]), np.array([1.0, 0.0, 1.0]))
        assert strip.volume_bounds() == Interval(0.0, math.inf)

    def test_infeasible_axis_rows_have_no_volume(self, failing_kernel):
        empty = unit_cube(2).add_constraints([[1.0, 0.0]], [-1.0])
        assert empty.volume_bounds() == Interval.point(0.0)

    def test_atom_rows_widen_to_the_axis_box_range(self, failing_kernel):
        cut = unit_cube(2).add_constraints([[1.0, 1.0]], [0.5])
        assert BatchPolytope(cut).bound_rows([[1.0, 2.0], [-1.0, 0.0], [0.0, 0.0]]) == [
            Interval(0.0, 3.0), Interval(-1.0, 0.0), Interval.point(0.0)
        ]

    def test_axis_box_range_unbounded_and_empty(self):
        strip = Polytope(np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, 0.0]]), np.array([1.0, 0.0, 1.0]))
        assert strip.axis_box_range([1.0, 0.0]) == Interval(-math.inf, 1.0)
        assert strip.axis_box_range([0.0, -1.0]) == Interval(-math.inf, math.inf)
        assert strip.axis_box_range([1.0, -0.0]) == Interval(-math.inf, 1.0)
        empty = unit_cube(2).add_constraints([[1.0, 0.0]], [-1.0])
        assert empty.axis_box_range([1.0, 1.0]) is None


def _slab_cell(parent: Polytope, direction, lo: float, hi: float) -> Polytope:
    """``parent ∩ {lo ≤ d·x ≤ hi}`` with the rows the linear analyzer emits."""
    direction = np.asarray(direction, dtype=float)
    return parent.add_constraints([direction, -direction], [hi, -lo])


class TestInheritedInteriorPoint:
    """Slab cells take a certified interior point from their parent."""

    def test_thin_slab_is_still_flat(self):
        # Width 1e-10: far below INHERITED_RADIUS, so the cell solves its own
        # Chebyshev LP and the flatness rule settles it as before.
        cell = _slab_cell(unit_cube(2), [1.0, 0.0], 0.5, 0.5 + 1e-10)
        assert cell._inherited_point() is None
        assert cell.volume_bounds() == Interval(0.0, 0.0)
        cache = GeometryCache()
        assert cell.volume_bounds(cache) == Interval(0.0, 0.0)
        assert not cache.full_dimensional(cell)

    def test_one_sided_cut_inherits_nothing(self):
        assert unit_cube(2).add_constraints([[1.0, 2.0]], [1.0])._inherited_point() is None
        # Every row parallel to the last: no parent rows are left.
        segment = Polytope(np.array([[1.0], [-1.0]]), np.array([1.0, 0.0]))
        assert segment._inherited_point() is None

    def test_cell_inherits_a_point_without_its_own_lp(self, monkeypatch):
        cell = _slab_cell(unit_cube(2), [1.0, 2.0], 0.375, 0.75)
        inherited = cell._inherited_point()
        assert inherited is not None
        calls = []
        chebyshev_center = Polytope.chebyshev_center

        def counted(self):
            calls.append(self.cache_key())
            return chebyshev_center(self)

        monkeypatch.setattr(Polytope, "chebyshev_center", counted)
        cache = GeometryCache()
        cell.volume_bounds(cache)
        # Only the parent's centre was solved, never the cell's.
        assert calls == [unit_cube(2).cache_key()]

    @settings(max_examples=40, deadline=None)
    @given(
        dimension=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_certified_and_pure(self, dimension, seed):
        rng = np.random.default_rng(seed)
        parent = unit_cube(dimension).add_constraints(
            [rng.normal(size=dimension)], [float(rng.uniform(0.2, 1.5))]
        )
        direction = rng.normal(size=dimension)
        span = parent.bound_linear(direction)
        if span is None:
            return
        lo, hi = sorted(rng.uniform(span.lo - 0.1, span.hi + 0.1, size=2))
        cell = _slab_cell(parent, direction, float(lo), float(hi))
        inherited = cell._inherited_point()
        if inherited is not None:
            point, radius = inherited
            slack = (cell.b - cell.a @ point) / np.linalg.norm(cell.a, axis=1)
            assert radius == pytest.approx(slack.min(), rel=1e-12)
            assert radius > polytope_module.INHERITED_RADIUS
            # A ball of radius ρ fits inside, so ρ bounds the Chebyshev
            # radius from below (up to the LP's tolerance).
            assert radius <= cell.chebyshev_center()[1] * (1.0 + 1e-7) + 1e-9
        # Purity: the volume is the same float with a cold cache, or with one
        # warmed by the parent's atom sweep along ``d``.
        fresh = cell.volume_bounds()
        assert cell.volume_bounds(GeometryCache()) == fresh
        warm = GeometryCache()
        warm.bound_atom_rows(parent, [list(direction)], direction.tobytes())
        assert cell.volume_bounds(warm) == fresh
        assert (fresh.hi > 0.0) == cell.is_full_dimensional()
