"""Tests for the convex polytope substrate (LPs, vertex enumeration, volumes)."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis import AnalysisOptions, Model
from repro.analysis import linear_analyzer
from repro.analysis.linear_analyzer import GeometryCache, _lower_row, _upper_row
from repro.intervals import Interval
from repro.models import pedestrian_program
from repro.polytope import (
    BatchPolytope,
    LPFailure,
    Polytope,
    PolytopeError,
    kernel_available,
)
from repro.polytope import highs, polytope as polytope_module
from repro.polytope.polytope import VOLUME_SLACK
from repro.symbolic import LinearForm

from vertex_enum import enumerate_vertices, exact_volume, volume_by_enumeration


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
        assert _encloses(volume, Fraction(1), Fraction(1))

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
        # A segment's length needs no LP.
        assert Polytope.from_box([Interval(0.0, 1.0)]).volume_bounds() == Interval.point(1.0)

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


class TestSlabProfile:
    """Slab cells are measured from their parent's triangulation."""

    @pytest.mark.parametrize("width", [1e-10, 1.9e-9, 1e-6])
    def test_thin_slab_has_its_volume(self, width):
        # x + y ∈ [1 − w, 1] in the unit square has volume w − w²/2.  The
        # two thinner cells are flat by their own Chebyshev radius, but
        # their parent is not.
        cell = _slab_cell(unit_cube(2), [1.0, 1.0], 1.0 - width, 1.0)
        expected = width - width * width / 2.0
        for volume in (cell.volume_bounds(), cell.volume_bounds(GeometryCache())):
            assert volume.lo > 0.0
            assert volume.midpoint == pytest.approx(expected, rel=0.0, abs=1e-15)
            assert _encloses(volume, exact_volume(cell), Fraction(1))
        assert cell.is_full_dimensional() == (width > 1e-8)

    def test_slab_split(self):
        parent = unit_cube(2).add_constraints([[1.0, 2.0]], [2.0])
        cell = _slab_cell(parent, [1.0, -1.0], -0.25, 0.5)
        split, direction, lo, hi = cell.slab_split()
        assert split.cache_key() == parent.cache_key()
        # The slab is read along the last row, here ``-d``.
        assert direction.tolist() == [-1.0, 1.0] and (lo, hi) == (-0.5, 0.25)
        # Repeated rows of the slab narrow it.
        narrower = cell.add_constraints([[1.0, -1.0]], [0.25])
        assert narrower.slab_split()[1].tolist() == [1.0, -1.0]
        assert narrower.slab_split()[2:] == (-0.25, 0.25)
        narrowest = narrower.add_constraints([[-1.0, 1.0]], [0.0])
        assert narrowest.slab_split()[2:] == (-0.25, 0.0)
        # The same slab, read along the same last row, is the same float.
        assert narrowest.volume_bounds() == _slab_cell(parent, [1.0, -1.0], 0.0, 0.25).volume_bounds()
        # A one-sided cut, rows all parallel to the last, or a parent the
        # slab leaves unbounded (a bare box): no parent.
        for uncut in (
            parent,
            Polytope(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, 0.0])),
            unit_cube(3),
            _slab_cell(
                Polytope(np.array([[1.0, 1.0], [-1.0, 2.0], [0.5, -3.0]]), np.ones(3)),
                [1.0, 0.0], -1.0, 0.5,
            ),
        ):
            assert uncut.slab_split() == (uncut, None, -math.inf, math.inf)

    def test_one_triangulation_per_parent(self, monkeypatch):
        calls = []
        for name in ("ConvexHull", "HalfspaceIntersection"):
            original = getattr(polytope_module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(polytope_module, name, counted)
        chebyshev_center = Polytope.chebyshev_center
        centres = []

        def counted_centre(self):
            centres.append(self.cache_key())
            return chebyshev_center(self)

        monkeypatch.setattr(Polytope, "chebyshev_center", counted_centre)
        parent = unit_cube(3).add_constraints([[1.0, 1.0, 1.0]], [2.0])
        direction = np.array([1.0, 2.0, -1.0])
        cache = GeometryCache()
        cuts = np.linspace(-1.0, 3.0, 9)
        cells = [_slab_cell(parent, direction, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
        volumes = polytope_module.cell_volumes(cells, cache)
        for cell in cells:
            cell.volume_bounds(cache)
        # A finer round re-cuts the cached parent.
        finer = np.linspace(-1.0, 3.0, 17)
        polytope_module.cell_volumes(
            [_slab_cell(parent, direction, lo, hi) for lo, hi in zip(finer, finer[1:])], cache
        )
        assert sorted(calls) == ["ConvexHull", "HalfspaceIntersection"]
        assert centres == [parent.cache_key()]
        # The cells' enclosures add up to one that holds the parent's.
        whole = parent.volume_bounds()
        lows = math.fsum(volume.lo for volume in volumes)
        highs = math.fsum(volume.hi for volume in volumes)
        assert lows <= whole.lo <= whole.hi <= highs
        assert (lows + highs) / 2 == pytest.approx(whole.midpoint, rel=1e-13)

    def test_qhull_failure_widens_the_parents_cells(self, monkeypatch):
        def failing(*args, **kwargs):
            raise polytope_module.QhullError("precision")

        monkeypatch.setattr(polytope_module, "ConvexHull", failing)
        cell = _slab_cell(unit_cube(2), [1.0, 1.0], 0.5, 1.0)
        assert cell.volume_bounds() == Interval(0.0, 1.0)
        assert unit_cube(3).volume_bounds() == Interval(0.0, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        dimension=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    # Unjoggled Qhull merges this parent's near-coplanar facets and its
    # triangulation of them overlaps by 3% of the volume.
    @example(dimension=5, seed=1611)
    def test_within_1e12_of_the_exact_volume(self, dimension, seed):
        rng = np.random.default_rng(seed)
        parent = unit_cube(dimension).add_constraints(
            rng.normal(size=(2, dimension)).tolist(), rng.uniform(0.2, 1.5, size=2).tolist()
        )
        exact_parent = exact_volume(parent)
        if exact_parent == 0:
            return
        assert _encloses(parent.volume_bounds(), exact_parent, exact_parent)
        direction = rng.normal(size=dimension)
        span = parent.bound_linear(direction)
        lo, hi = sorted(rng.uniform(span.lo - 0.1, span.hi + 0.1, size=2))
        if rng.random() < 0.3:
            hi = lo + float(rng.choice([1e-12, 1e-9, 1e-6])) * (span.hi - span.lo)
        cell = _slab_cell(parent, direction, float(lo), float(hi))
        assert _encloses(cell.volume_bounds(), exact_volume(cell), exact_parent)

    @settings(max_examples=40, deadline=None)
    @given(
        dimension=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_volumes_are_pure(self, dimension, seed):
        rng = np.random.default_rng(seed)
        parent = unit_cube(dimension).add_constraints(
            [rng.normal(size=dimension)], [float(rng.uniform(0.2, 1.5))]
        )
        direction = rng.normal(size=dimension)
        center_radius = parent.chebyshev_center()
        profile = parent.slab_profile(center_radius)
        cuts = np.sort(rng.uniform(-3.0, 3.0, size=7))
        # V(t) alone is V(t) in a batch.
        batched = profile.cut_volumes(direction, cuts)
        assert batched == [profile.cut_volumes(direction, cuts[[i]])[0] for i in range(len(cuts))]
        assert batched == sorted(batched)
        # A cell's volume is the same float with a cold, a warm or an
        # evicted cache, alone or among its siblings.
        cells = [_slab_cell(parent, direction, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
        fresh = [cell.volume_bounds() for cell in cells]
        warm = GeometryCache()
        assert polytope_module.cell_volumes(cells, warm) == fresh
        assert [cell.volume_bounds(warm) for cell in cells] == fresh
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linear_analyzer, "_GEOMETRY_CACHE_ENTRIES", 1)
            evicted = GeometryCache()
            other = unit_cube(dimension).add_constraints([[1.0] * dimension], [1.0])
            for cell, volume in zip(cells, fresh):
                other.volume_bounds(evicted)  # evicts the parent's profile
                assert cell.volume_bounds(evicted) == volume
            assert len(evicted.profiles) == 1

    def test_every_pedestrian_cell_is_within_1e12_of_exact(self, monkeypatch):
        # Every cell the depth-4 pedestrian histogram measures (the
        # ``cold_linear`` query shape), against its exact rational volume.
        measured = []
        slab_volumes = polytope_module._slab_volumes

        def recorded(parent, direction, slabs, cache=None):
            volumes = slab_volumes(parent, direction, slabs, cache)
            cells = [
                parent if direction is None else _slab_cell(parent, direction, lo, hi)
                for lo, hi in slabs
            ]
            measured.append((parent, cells, volumes))
            return volumes

        monkeypatch.setattr(polytope_module, "_slab_volumes", recorded)
        options = AnalysisOptions(
            max_fixpoint_depth=4, score_splits=8, workers=1, executor="serial", refine="off"
        )
        Model(pedestrian_program(), options).histogram(0.0, 3.0, 6)
        assert sum(len(cells) for _, cells, _ in measured) >= 300
        for parent, cells, volumes in measured:
            exact_parent = exact_volume(parent)
            for cell, volume in zip(cells, volumes):
                assert _encloses(volume, exact_volume(cell), exact_parent)



#: Chunk shapes of the linear analyzer: a bounded chunk, the half-infinite
#: outer chunks (one row), a zero-width chunk and a trivially true one.
_CHUNKS = ("bounded", "upper", "lower", "zero", "reals")


class TestSlabCells:
    """A cell described as a slab of a known parent
    (:meth:`Polytope.slab_split` with the cell's own rows, as the linear
    analyzer's ``_cell`` builds it) measures bit for bit what the
    materialised cell does."""

    @staticmethod
    def _chunk(kind: str, span: Interval, rng) -> Interval:
        lo, hi = sorted(float(t) for t in rng.uniform(span.lo - 0.1, span.hi + 0.1, size=2))
        return {
            "bounded": Interval(lo, hi), "upper": Interval(-math.inf, hi),
            "lower": Interval(lo, math.inf), "zero": Interval.point(lo),
            "reals": Interval.reals(),
        }[kind]

    @settings(max_examples=80, deadline=None)
    @given(
        dimension=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        target=st.sampled_from(["none", "oblique", "parallel", "antiparallel"]),
        kinds=st.lists(st.sampled_from(_CHUNKS), min_size=1, max_size=2),
    )
    # Half-infinite chunks: the cell is its own uncut parent.
    @example(dimension=3, seed=1, target="none", kinds=["lower"])
    @example(dimension=2, seed=2, target="oblique", kinds=["upper"])
    # Zero-width slabs.
    @example(dimension=4, seed=3, target="none", kinds=["zero"])
    # Target rows ±parallel to the atom fold into its slab.
    @example(dimension=3, seed=4, target="parallel", kinds=["bounded"])
    @example(dimension=2, seed=5, target="antiparallel", kinds=["upper"])
    @example(dimension=5, seed=6, target="parallel", kinds=["lower"])
    # Cells of dimension 1 are measured on their own.
    @example(dimension=1, seed=7, target="parallel", kinds=["bounded"])
    @example(dimension=1, seed=8, target="none", kinds=["upper", "bounded"])
    # Two atoms: the parent is the cut plus the first atom's rows.
    @example(dimension=3, seed=9, target="oblique", kinds=["bounded", "bounded"])
    @example(dimension=4, seed=10, target="none", kinds=["bounded", "reals"])
    @example(dimension=2, seed=11, target="parallel", kinds=["lower", "zero"])
    def test_matches_the_materialised_cell(self, dimension, seed, target, kinds):
        rng = np.random.default_rng(seed)
        cut = unit_cube(dimension).add_constraints(
            [rng.normal(size=dimension)], [float(rng.uniform(0.2, 1.5))]
        )
        atoms = [
            LinearForm.from_dict(
                dict(enumerate(rng.normal(size=dimension).tolist())), Interval.point(0.0)
            )
            for _ in kinds
        ]
        if target != "none":
            result = (
                rng.normal(size=dimension) if target == "oblique"
                else np.asarray(atoms[-1].dense_row(dimension), dtype=float)
                * (1.0 if target == "parallel" else -1.0)
            )
            span = cut.bound_linear(result)
            lo, hi = sorted(float(t) for t in rng.uniform(span.lo, span.hi, size=2))
            cut = cut.add_constraints([result, -result], [hi, -lo])
        chunks = [
            [self._chunk(kind, cut.bound_linear(atom.dense_row(dimension)), rng)]
            for kind, atom in zip(kinds, atoms)
        ]
        for universal in (True, False):
            per_atom = linear_analyzer._chunk_rows(atoms, chunks, dimension, universal, {})
            combination = [entries[0] for entries in per_atom]
            heads, cells = {}, {}
            slab = linear_analyzer._cell(cut, combination, heads, cells)
            assert linear_analyzer._cell(cut, combination, heads, cells) is slab
            rows = [row for entry in combination if entry for row in entry[0]]
            rhs = [value for entry in combination if entry for value in entry[1]]
            expected = cut.add_constraints(rows, rhs).volume_bounds()
            cache = GeometryCache()
            for got in (cache.restricted_volumes([slab])[0], cache.volume_restricted(*slab)):
                assert (got.lo.hex(), got.hi.hex()) == (expected.lo.hex(), expected.hi.hex())

    def test_zero_dimensional_cell(self):
        point = Polytope.from_box([])
        assert GeometryCache().restricted_volumes([point.slab_split()]) == [point.volume_bounds()]


class TestPairSlab:
    """:meth:`Polytope.pair_slab` reads a ``±d`` row pair's slab without
    :meth:`Polytope.slab_split`'s row scan, to the same floats."""

    @staticmethod
    def _same(got: tuple, expected: tuple) -> bool:
        (parent, direction, lo, hi), (parent2, direction2, lo2, hi2) = got, expected
        return (
            parent.cache_key() == parent2.cache_key()
            and (direction is None) == (direction2 is None)
            and (direction is None or direction.tobytes() == direction2.tobytes())
            and (lo.hex(), hi.hex()) == (lo2.hex(), hi2.hex())
        )

    @settings(max_examples=80, deadline=None)
    @given(
        dimension=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        parent=st.sampled_from(["box", "oblique", "run", "unbounded"]),
        tail=st.sampled_from(["pair", "flipped", "same", "single", "oblique", "zero"]),
    )
    def test_matches_slab_split(self, dimension, seed, parent, tail):
        rng = np.random.default_rng(seed)
        d = rng.normal(size=dimension)
        base = {
            "box": unit_cube(dimension),
            "oblique": unit_cube(dimension).add_constraints([rng.normal(size=dimension)], [1.0]),
            # The parent's own trailing run is ``±d``: the general route.
            "run": unit_cube(dimension).add_constraints([d], [2.0]),
            # No row bounds the first axis from above: the cell is uncut.
            "unbounded": Polytope(unit_cube(dimension).a[1:], unit_cube(dimension).b[1:]),
        }[parent]
        lo, hi = sorted(rng.uniform(-1.0, 2.0, size=2).tolist())
        rows = {
            "pair": [-d, d], "flipped": [d, -d], "same": [d, d], "single": [d],
            "oblique": [-d, rng.normal(size=dimension)], "zero": [np.zeros(dimension)] * 2,
        }[tail]
        rows, rhs = np.array(rows), np.array([-lo, hi][: len(rows)])
        assert self._same(base.pair_slab(rows, rhs), base.slab_split(rows, rhs))

    def test_two_sided_target_cut_skips_the_row_scan(self, monkeypatch):
        # A score-free path's two-sided target cut, with the rows the linear
        # analyzer writes for it: its slab comes straight from the pair.
        path = unit_cube(3).add_constraints([[1.0, -2.0, 0.5]], [0.75])
        result = LinearForm.from_dict({0: 1.0, 2: -3.0}, Interval.point(0.25))
        (upper, upper_rhs), (lower, lower_rhs) = (
            _upper_row(result, 0.5, 3, universal=True), _lower_row(result, -1.0, 3, universal=True)
        )
        rows, rhs = [upper, lower], [upper_rhs, lower_rhs]
        expected = path.slab_split(rows, rhs)
        assert expected[1] is not None
        calls = []
        slab_split = Polytope.slab_split
        monkeypatch.setattr(
            Polytope, "slab_split", lambda self, *args: calls.append(args) or slab_split(self, *args)
        )
        got = path.pair_slab(rows, rhs)
        assert not calls
        assert got[0] is path
        assert self._same(got, expected)


class TestEnclosures:
    """Volumes are enclosures, so score-free bounds hold the exact answer."""

    def test_segment_is_rounded_outward(self):
        volume = unit_cube(1).add_constraints([[3.0]], [1.0]).volume_bounds()
        assert Fraction(volume.lo) < Fraction(1, 3) < Fraction(volume.hi)
        assert volume.hi == math.nextafter(volume.lo, math.inf)

    def test_zero_width_slab_is_exactly_empty(self):
        assert _slab_cell(unit_cube(2), [1.0, 1.0], 0.5, 0.5).volume_bounds() == Interval.point(0.0)

    @pytest.mark.parametrize(
        "source, threshold, exact",
        [
            ("(* 3.0 (sample))", 1.0, Fraction(1, 3)),
            ("(+ (sample) (sample))", 0.5, Fraction(1, 8)),
            ("(+ (sample) (+ (sample) (sample)))", 0.5, Fraction(1, 48)),
        ],
    )
    def test_closed_forms_are_enclosed(self, source, threshold, exact):
        options = AnalysisOptions(workers=1, executor="serial", refine="off")
        (bound,) = Model.parse(source, options).bounds([Interval(-1.0, threshold)])
        assert Fraction(bound.lower) <= exact <= Fraction(bound.upper)
        assert bound.upper - bound.lower <= 1e-11

def _encloses(volume: Interval, exact: Fraction, parent: Fraction) -> bool:
    """Whether ``volume`` holds ``exact`` and is at most the padding
    ``2 · VOLUME_SLACK · vol(parent)`` wide (up to the rounding of its ends)."""
    return (
        Fraction(volume.lo) <= exact <= Fraction(volume.hi)
        and volume.hi - volume.lo <= 2.001 * VOLUME_SLACK * float(parent)
    )
