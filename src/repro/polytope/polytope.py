"""Convex polytopes in halfspace representation.

The linear interval trace semantics (paper Section 6.4) reduces path
denotations to integrals over convex polytopes ``{α : A α ≤ b}``.  GuBPI uses
the external tools Vinci/LattE for exact volume computation and an LP solver
for bounding linear forms; this module provides both from scratch on top of
``scipy``:

* feasibility and Chebyshev centre via linear programming,
* bounds on a linear function over the polytope (:meth:`Polytope.bound_linear`),
  the LP optima as HiGHS returns them,
* volume via one triangulation per *parent* polytope, padded outward, with
  sound ``[0, box volume]`` fallback bounds when the geometry degenerates.

**Slab profiles.**  Most polytopes the linear analyzer measures are *cells*:
a parent polytope cut by a slab ``lo ≤ d·x ≤ hi`` (the trailing rows that are
``±``-equal to the last row, :meth:`Polytope.slab_split`); a polytope
without such a slab is its own uncut parent.  Each parent is triangulated
once (:class:`SlabProfile`): one Qhull halfspace intersection from its
Chebyshev centre gives its vertices, one ``ConvexHull(vertices, "QJ")``
gives its boundary as simplicial facets, and every facet is pulled from one
vertex into a simplex.  Only the hull's facet *indices* are used: the
simplices are spanned by the unjoggled vertices, so their volumes carry
none of the joggle.  (Without the joggle Qhull merges near-coplanar facets,
and its ``Qt`` triangulation of the merged facets of a 5-dimensional box
cut by two rows has been seen to overlap by 3% of the volume, or to fail
outright.)  ``V(t) = vol(parent ∩ {d·x ≤ t})``
is then a closed form over the simplices, and a cell measures
``V(hi) − V(lo)``.  Every cell of a parent shares its triangulation, so a
refinement round that cuts the parent more finely runs no new Qhull.

**Enclosures.**  A triangulated volume ``v`` of a cell of a parent with
volume ``V`` is returned as ``[max(0, v − s·V), v + s·V]`` with
``s =`` :data:`VOLUME_SLACK` ``= 1e-12``.  The padding is an empirical
bound, not a proof: against exact rational volumes
(``tests/vertex_enum.py``) the closed form was at most ``1.5e-15 · V`` off
over 4,500 random cells in dimensions 2–5, and the tests pin every
measured cell inside its interval.  A polytope of dimension 1 is a
segment; its length is computed exactly from the rows (in
:class:`~fractions.Fraction`) and rounded outward to the nearest floats.

**Flatness rule.**  A parent whose largest inscribed ball has radius
``≤ 1e-9`` (:data:`FLATNESS_RADIUS`) is treated as lower-dimensional: it and
every cell cut from it have volume exactly 0
(:meth:`Polytope.is_full_dimensional`).  A cell of a full-dimensional parent
is measured however thin it is.

**Purity.**  A cell's volume is a pure function of its slab ``(parent, d,
lo, hi)``: the parent's Chebyshev centre and profile are computed from the
parent's rows, and ``V(t)`` at one cut value is the same float whichever
other cut values share its batch.  A caller that knows a cell's parent
describes the cell as that slab without building it
(:meth:`Polytope.slab_split` with the cell's trailing rows, or
:meth:`Polytope.pair_slab` for one ``±d`` row pair; :func:`slab_volumes`);
a built cell has the slab read off its rows (:func:`cell_volumes`), to
the same floats.  A geometry cache (any object
with ``chebyshev(polytope)`` and ``profile(polytope, center_radius)``, e.g.
the linear analyzer's ``GeometryCache``) may memoise those but never
changes them.

When Qhull fails on a parent, each of its cells widens to
``[0, volume of the bounding box of parent ∩ slab]``.

All LPs run on the low-overhead HiGHS kernel (:mod:`repro.polytope.highs`)
when its binding is available, with presolve off.  Both kinds of LP — the
objective LP ``A x ≤ b`` (atom bounds, feasibility) and the Chebyshev LP
``[A | ‖aᵢ‖]`` — are prepared once per constraint matrix ``A`` (per
thread, :func:`_skeleton`) and re-solved for each objective and
right-hand side ``b``, so the cells and cuts of a path that share ``A``
share one prepared model.  The kernel is bit-identical to
``scipy.optimize.linprog(..., options={"presolve": False})`` by
construction, and that ``linprog`` call remains the automatic fallback.

An LP that fails — neither an optimum nor a proof of infeasibility — is not
read as emptiness: :class:`LPFailure` reaches the volume code, which widens
to ``[0, v]`` with ``v`` the volume of the box cut out by ``A``'s
axis-aligned rows (``inf`` when that box is unbounded), and the batched atom
sweep (:class:`~repro.polytope.batch.BatchPolytope`), which widens an atom's
range to its range over that box (:meth:`Polytope.axis_box_range`).
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

from ..intervals import Interval
from . import highs as _highs

__all__ = [
    "FLATNESS_RADIUS",
    "LPFailure",
    "Polytope",
    "PolytopeError",
    "SlabProfile",
    "VOLUME_SLACK",
    "cell_volumes",
    "slab_volumes",
]

#: Chebyshev radius at or below which a polytope counts as lower-dimensional
#: (volume exactly 0).
FLATNESS_RADIUS = 1e-9

#: Half-width of a triangulated volume, relative to its parent's volume
#: (see "Enclosures" in the module docstring).
VOLUME_SLACK = 1e-12

#: ``linprog`` options of every fallback LP: the kernel's option set.
_LINPROG_OPTIONS = {"presolve": False}

#: Prepared LP skeletons kept per thread (least recently used evicted).  A
#: cold depth-4 pedestrian query prepares about 60 distinct ones.
_LP_SKELETONS = 256

#: Per-thread skeleton store: a prepared system has its right-hand side
#: swapped on every solve, so it must not cross threads.
_SKELETONS = threading.local()


class PolytopeError(Exception):
    """Raised on malformed polytope operations."""


class LPFailure(PolytopeError):
    """The LP solver returned neither an optimum nor a proof of infeasibility."""


def _skeleton(polytope: "Polytope", chebyshev: bool) -> "_highs.PreparedLP":
    """The prepared LP of ``polytope``'s constraint matrix ``A``: the
    objective LP ``A x ≤ b`` (free ``x``), or with ``chebyshev`` the
    Chebyshev LP ``[A | ‖aᵢ‖] (x, r) ≤ b, r ≥ 0``.

    Keyed on the kind and ``A``'s shape and exact bytes; the caller passes
    its own ``b`` to every solve.  The cells and cuts of one path share few
    distinct matrices, so most solves skip the build.
    """
    store = getattr(_SKELETONS, "store", None)
    if store is None:
        store = _SKELETONS.store = OrderedDict()
    a = polytope.a
    key = (chebyshev, a.shape, polytope.cache_key()[0])
    skeleton = store.get(key)
    if skeleton is not None:
        store.move_to_end(key)
        return skeleton
    if chebyshev:
        norms = np.linalg.norm(a, axis=1)
        col_lower = np.concatenate([np.full(a.shape[1], -np.inf), [0.0]])
        skeleton = _highs.PreparedLP(
            np.hstack([a, norms.reshape(-1, 1)]), np.zeros(a.shape[0]), col_lower=col_lower
        )
    else:
        skeleton = _highs.PreparedLP(a, np.zeros(a.shape[0]))
    store[key] = skeleton
    if len(store) > _LP_SKELETONS:
        store.popitem(last=False)
    return skeleton


@dataclass(frozen=True)
class Polytope:
    """A polytope ``{x ∈ R^n : A x ≤ b}`` (always used with bounded boxes)."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.asarray(self.b, dtype=float).reshape(-1)
        if a.shape[0] != b.shape[0]:
            raise PolytopeError("constraint matrix and right-hand side sizes differ")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_box(bounds: Sequence[Interval]) -> "Polytope":
        """The axis-aligned box ``∏ [lo_i, hi_i]`` as a polytope."""
        dimension = len(bounds)
        rows: list[np.ndarray] = []
        rhs: list[float] = []
        for index, interval in enumerate(bounds):
            if interval.is_empty:
                # An empty box: encode an infeasible constraint 0 <= -1.
                rows.append(np.zeros(dimension))
                rhs.append(-1.0)
                continue
            if math.isfinite(interval.hi):
                row = np.zeros(dimension)
                row[index] = 1.0
                rows.append(row)
                rhs.append(interval.hi)
            if math.isfinite(interval.lo):
                row = np.zeros(dimension)
                row[index] = -1.0
                rows.append(row)
                rhs.append(-interval.lo)
        if not rows:
            rows.append(np.zeros(dimension))
            rhs.append(0.0)
        return Polytope(np.array(rows), np.array(rhs))

    def add_constraints(self, rows: Sequence[Sequence[float]], rhs: Sequence[float]) -> "Polytope":
        """A new polytope with additional constraints ``rows · x ≤ rhs``."""
        if len(rows) == 0:
            return self
        new_a = np.vstack([self.a, np.atleast_2d(np.asarray(rows, dtype=float))])
        new_b = np.concatenate([self.b, np.asarray(rhs, dtype=float).reshape(-1)])
        return Polytope(new_a, new_b)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        return self.a.shape[1]

    @property
    def constraint_count(self) -> int:
        return self.a.shape[0]

    def contains(self, point: Sequence[float], tolerance: float = 1e-9) -> bool:
        point = np.asarray(point, dtype=float)
        return bool(np.all(self.a @ point <= self.b + tolerance))

    def cache_key(self) -> tuple[bytes, bytes]:
        """The exact H-representation bytes ``(A.tobytes(), b.tobytes())``.

        Two polytopes share a key iff their float64 constraint data is
        bit-identical, which makes the key safe for cross-path geometry
        caches: every LP/Qhull computation on this class is a deterministic
        pure function of ``(A, b)``, so a cache hit returns the identical
        float64s a fresh computation would.  Memoised per instance.
        """
        key = self.__dict__.get("_cache_key")
        if key is None:
            key = (self.a.tobytes(), self.b.tobytes())
            object.__setattr__(self, "_cache_key", key)
        return key

    # ------------------------------------------------------------------
    # Linear programming
    # ------------------------------------------------------------------
    def bound_linear(self, coefficients: Sequence[float], constant: float = 0.0) -> Optional[Interval]:
        """Range of ``c·x + constant`` over the polytope (``None`` if empty).

        Also ``None`` when an LP fails; :meth:`_linear_range` tells the two
        apart.
        """
        try:
            return self._linear_range(coefficients, constant)
        except LPFailure:
            return None

    def _linear_range(
        self,
        coefficients: Sequence[float],
        constant: float = 0.0,
        sides: tuple[bool, bool] = (True, True),
    ) -> Optional[Interval]:
        """:meth:`bound_linear`, raising :class:`LPFailure` when an LP fails.

        ``sides`` says which of the minimum and the maximum to solve for; an
        unsolved side is reported as ``-inf`` / ``inf``.
        """
        if self.dimension == 0:
            return None if self.is_empty() else Interval.point(constant)
        coefficients = np.asarray(coefficients, dtype=float)
        lower = self._optimise(coefficients, minimise=True) if sides[0] else -math.inf
        if lower is None:
            return None
        upper = self._optimise(coefficients, minimise=False) if sides[1] else math.inf
        if upper is None:
            return None
        lo, hi = lower + constant, upper + constant
        if lo > hi:
            lo, hi = hi, lo
        return Interval(lo, hi)

    def _objective_lp(self, cost: np.ndarray) -> tuple[int, Optional[float]]:
        """``(status, optimum)`` of minimising ``cost · x`` over the polytope
        (a :mod:`~repro.polytope.highs` status; the optimum on ``OPTIMAL``).

        Solved on the skeleton prepared once per ``A`` (see
        :func:`_skeleton`) with this polytope's ``b``, else by ``linprog``.
        """
        if _highs.kernel_available():
            status, fun, _ = _skeleton(self, chebyshev=False).solve(cost, self.b)
            return status, fun
        result = linprog(
            cost,
            A_ub=self.a,
            b_ub=self.b,
            bounds=[(None, None)] * self.dimension,
            method="highs",
            options=_LINPROG_OPTIONS,
        )
        if result.status == 2:
            return _highs.INFEASIBLE, None
        return (_highs.OPTIMAL, result.fun) if result.success else (_highs.FAILED, None)

    def _optimise(self, coefficients: np.ndarray, minimise: bool) -> Optional[float]:
        """The optimum of ``coefficients · x`` (``None`` if infeasible).

        Raises :class:`LPFailure` when the solver fails.
        """
        sign = 1.0 if minimise else -1.0
        status, fun = self._objective_lp(sign * coefficients)
        if status == _highs.INFEASIBLE:
            return None
        if status != _highs.OPTIMAL:
            raise LPFailure("linear objective LP failed")
        return float(sign * fun)

    def is_empty(self) -> bool:
        """Feasibility check via LP."""
        if self.dimension == 0:
            # A zero-dimensional polytope is the single point (); it is empty
            # exactly when some constraint ``0 <= b`` fails.
            return bool(np.any(self.b < 0.0))
        return self._objective_lp(np.zeros(self.dimension))[0] == _highs.INFEASIBLE

    def chebyshev_center(self) -> Optional[tuple[np.ndarray, float]]:
        """Centre and radius of the largest inscribed ball (``None`` if empty).

        Raises :class:`LPFailure` when the LP fails, so a solver error is
        never mistaken for emptiness.  The LP's constraint matrix is prepared
        once per ``A`` (see :func:`_skeleton`); re-passing the whole
        model on every solve keeps the floats those of a fresh solve.
        """
        if self.dimension == 0:
            return None if self.is_empty() else (np.zeros(0), math.inf)
        objective = np.zeros(self.dimension + 1)
        objective[-1] = -1.0  # maximise the radius
        if _highs.kernel_available():
            status, _, x = _skeleton(self, chebyshev=True).solve(objective, self.b)
            if status == _highs.INFEASIBLE:
                return None
            if status != _highs.OPTIMAL:
                raise LPFailure("Chebyshev LP failed")
            x = np.asarray(x, dtype=float)
        else:
            norms = np.linalg.norm(self.a, axis=1)
            result = linprog(
                objective,
                A_ub=np.hstack([self.a, norms.reshape(-1, 1)]),
                b_ub=self.b,
                bounds=[(None, None)] * self.dimension + [(0.0, None)],
                method="highs",
                options=_LINPROG_OPTIONS,
            )
            if result.status == 2:  # infeasible
                return None
            if not result.success:
                raise LPFailure(result.message)
            x = result.x
        center = np.asarray(x[:-1], dtype=float)
        radius = float(x[-1])
        return center, radius

    def _chebyshev(self, cache=None) -> Optional[tuple[np.ndarray, float]]:
        """:meth:`chebyshev_center`, through ``cache.chebyshev`` when given."""
        return self.chebyshev_center() if cache is None else cache.chebyshev(self)

    def is_full_dimensional(self, cache=None) -> bool:
        """Whether the inscribed ball's radius exceeds :data:`FLATNESS_RADIUS`.

        ``False`` means the polytope counts as lower-dimensional *as a
        parent*: its uncut volume and the volume of every slab cell cut from
        it are exactly ``[0, 0]``.  It says nothing about the polytope as a
        cell: :meth:`volume_bounds` measures a cell from its own parent
        (:meth:`slab_split`), so a thin cell of a full-dimensional parent
        may be flat here and still get a small positive volume.  A failed
        Chebyshev LP proves nothing, so it counts as full-dimensional
        (nothing gets skipped).  ``cache`` optionally memoises the Chebyshev
        LP (see the module docstring).
        """
        try:
            center_radius = self._chebyshev(cache)
        except LPFailure:
            return True
        return center_radius is not None and center_radius[1] > FLATNESS_RADIUS

    def slab_split(
        self, rows: Sequence[Sequence[float]] = (), rhs: Sequence[float] = ()
    ) -> tuple["Polytope", Optional[np.ndarray], float, float]:
        """``(parent, d, lo, hi)`` with ``cell = parent ∩ {lo ≤ d·x ≤ hi}``,
        where ``cell`` is ``self ∩ {rows·x ≤ rhs}`` (``self`` without rows).

        The slab is the run of the cell's trailing rows ``±``-equal to its
        last row ``d``, which must bound ``d·x`` from both sides; the rows
        before it form the parent, whose axis-aligned rows must bound every
        axis from both sides (so the parent is bounded, as every path
        polytope's support box makes it).  A cell without such a slab and
        parent is its own uncut parent: ``(cell, None, -inf, inf)``.

        The cell itself is built only in that uncut case: the run is read
        off ``rows`` and ``self``'s trailing rows (memoised per direction),
        and the parent is ``self`` whenever the run covers ``rows``, so the
        cells of one polytope share their parent instance.
        """
        tail_a = np.asarray(rows, dtype=float).reshape(len(rows), self.dimension)
        tail_b = np.asarray(rhs, dtype=float).reshape(-1)
        direction = tail_a[-1] if len(tail_a) else self.a[-1]

        def uncut():
            return self.add_constraints(tail_a, tail_b), None, -math.inf, math.inf

        if not direction.any():
            return uncut()
        upper = (tail_a == direction).all(axis=1)
        parallel = upper | (tail_a == -direction).all(axis=1)
        if not parallel.all():
            # The run starts inside ``rows``: the rows before it cut the parent.
            split = len(tail_a) - int(np.argmin(parallel[::-1]))
            head = self.add_constraints(tail_a[:split], tail_b[:split])
            return head.slab_split(tail_a[split:], tail_b[split:])
        # The run covers ``rows`` and goes on into ``self``'s own rows.
        parent, head_ends = self._trailing_run(direction)
        if parent is None:
            return uncut()
        ends = head_ends + _slab_ends(upper, tail_b)
        highs = [value for value, is_upper in ends if is_upper]
        negated_lows = [value for value, is_upper in ends if not is_upper]
        if not highs or not negated_lows or not parent._bounds_every_axis():
            return uncut()
        return parent, direction, -min(negated_lows), min(highs)

    def pair_slab(
        self, rows: Sequence[Sequence[float]], rhs: Sequence[float]
    ) -> tuple["Polytope", Optional[np.ndarray], float, float]:
        """:meth:`slab_split` of ``self ∩ {rows·x ≤ rhs}``, with a fast route
        for the tail a chunk or a two-sided target adds: one row pair
        ``(−d, d)``.

        When ``self``'s own trailing rows are not ``±``-equal to ``d`` and
        its rows bound every axis (both memoised), the slab is ``self`` cut
        by that pair, read straight from the two right-hand sides; every
        other tail goes through :meth:`slab_split`, to the same floats.
        """
        rows = np.asarray(rows, dtype=float)
        if len(rows) == 2:
            direction = rows[1]
            if (
                (rows[0] == -direction).all()
                and direction.any()
                and self._trailing_run(direction)[0] is self
                and self._bounds_every_axis()
            ):
                return self, direction, -float(rhs[0]), float(rhs[1])
        return self.slab_split(rows, rhs)

    def _trailing_run(self, direction: np.ndarray) -> tuple[Optional["Polytope"], tuple]:
        """``(rest, ends)`` of the run of trailing rows ``±``-equal to
        ``direction``: the polytope of the rows before it (``self`` for an
        empty run, ``None`` when every row is in it) and the run's
        :func:`_slab_ends`.  Memoised per instance and direction."""
        runs = self.__dict__.get("_runs")
        if runs is None:
            runs = {}
            object.__setattr__(self, "_runs", runs)
        key = direction.tobytes()
        run = runs.get(key)
        if run is None:
            upper = (self.a == direction).all(axis=1)
            parallel = upper | (self.a == -direction).all(axis=1)
            start = 0 if parallel.all() else len(self.a) - int(np.argmin(parallel[::-1]))
            rest = (
                None if start == 0
                else self if start == len(self.a)
                else Polytope(self.a[:start], self.b[:start])
            )
            run = runs[key] = (rest, _slab_ends(upper[start:], self.b[start:]))
        return run

    def _bounds_every_axis(self) -> bool:
        """Whether the axis-aligned rows bound every axis from both sides
        (memoised per instance)."""
        bounded = self.__dict__.get("_bounded")
        if bounded is None:
            aligned = self.a[(self.a != 0.0).sum(axis=1) == 1]
            bounded = bool(((aligned > 0.0).any(axis=0) & (aligned < 0.0).any(axis=0)).all())
            object.__setattr__(self, "_bounded", bounded)
        return bounded

    # ------------------------------------------------------------------
    # Volume
    # ------------------------------------------------------------------
    def vertices(
        self, center_radius: Optional[tuple[np.ndarray, float]] = None
    ) -> Optional[np.ndarray]:
        """Vertex enumeration via Qhull halfspace intersection (``None`` on
        failure; dimension at least 2).

        ``center_radius`` lets a caller that already solved the Chebyshev LP
        (e.g. :meth:`slab_profile`) pass its result in instead of paying for
        the identical solve again.
        """
        if center_radius is None:
            try:
                center_radius = self.chebyshev_center()
            except LPFailure:
                return None
        if center_radius is None:
            return None
        center, radius = center_radius
        if radius <= FLATNESS_RADIUS:
            return None
        halfspaces = np.hstack([self.a, -self.b.reshape(-1, 1)])
        try:
            intersection = HalfspaceIntersection(halfspaces, center)
            return np.asarray(intersection.intersections)
        except (QhullError, ValueError):
            return None

    def slab_profile(self, center_radius: tuple[np.ndarray, float]) -> Optional["SlabProfile"]:
        """The polytope's :class:`SlabProfile` (``None`` when Qhull fails).

        ``center_radius`` is the polytope's Chebyshev centre and radius (a
        full-dimensional polytope of dimension at least 2).  One halfspace
        intersection from that centre gives the vertices, one joggled hull
        (``QJ``, simplicial facets only) their boundary facets, and each
        facet not containing the first hull vertex is pulled from it into a
        simplex of the unjoggled vertices (see the module docstring).
        """
        vertices = self.vertices(center_radius)
        if vertices is None or len(vertices) <= self.dimension:
            return None
        try:
            hull = ConvexHull(vertices, qhull_options="QJ")
        except (QhullError, ValueError):
            return None
        apex = hull.vertices[0]
        facets = hull.simplices[~(hull.simplices == apex).any(axis=1)]
        simplices = np.hstack([np.full((len(facets), 1), apex), facets])
        corners = vertices[simplices]
        volumes = np.abs(np.linalg.det(corners[:, 1:] - corners[:, :1]))
        volumes /= math.factorial(self.dimension)
        return SlabProfile(vertices, simplices, volumes, math.fsum(volumes))

    def volume_bounds(self, cache=None) -> Interval:
        """Bounds on the Lebesgue volume.

        In the regular case the polytope is measured as a slab of its
        parent (:meth:`slab_split`), from the parent's :class:`SlabProfile`,
        and padded by :data:`VOLUME_SLACK` times the parent's volume.  An
        empty or flat parent (Chebyshev radius ``≤`` :data:`FLATNESS_RADIUS`)
        or a slab of width 0 gives exactly 0.  When Qhull
        fails on a full-dimensional parent the fallback is
        ``[0, volume of the bounding box]``; when an LP fails it is
        ``[0, volume of the axis-aligned rows' box]``.  Both keep every
        downstream bound sound, just less precise.

        ``cache`` memoises the parent's Chebyshev LP and profile without
        changing the result; :func:`cell_volumes` measures many polytopes
        at once to the same floats.
        """
        return cell_volumes([self], cache)[0]

    def _own_volume(self) -> Interval:
        """:meth:`volume_bounds` of a polytope of dimension 0 or 1, which
        needs no parent: emptiness, or the length of the segment of ``x``,
        exact from the rows and rounded outward (no LP)."""
        if self.dimension == 0:
            return Interval.point(0.0) if self.is_empty() else Interval.point(1.0)
        lo, hi = -math.inf, math.inf
        for coefficient, rhs in zip(self.a[:, 0].tolist(), self.b.tolist()):
            if coefficient == 0.0 or math.isinf(rhs):
                if rhs < 0.0:
                    return Interval.point(0.0)
                continue
            limit = Fraction(rhs) / Fraction(coefficient)
            if coefficient > 0.0:
                hi = min(hi, limit)
            else:
                lo = max(lo, limit)
        if hi <= lo:
            return Interval.point(0.0)
        if math.inf in (hi, -lo):
            return Interval.point(math.inf)
        return _enclosure(hi - lo)

    def volume(self) -> float:
        """The upper end of :meth:`volume_bounds` (the padded profile volume
        in the regular case, otherwise the fallback's upper bound)."""
        return self.volume_bounds().hi

    def _bounding_box_volume(self) -> float:
        volume = 1.0
        for index in range(self.dimension):
            direction = np.zeros(self.dimension)
            direction[index] = 1.0
            try:
                bound = self._linear_range(direction)
            except LPFailure:
                return self._axis_box_volume()
            if bound is None:
                return 0.0
            if not bound.is_bounded:
                return math.inf
            volume *= bound.width
        return volume

    def _axis_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Corners of the box cut out by ``A``'s axis-aligned rows alone.

        The polytope lies inside that box; an axis no such row bounds spans
        the whole line.  Needs no LP.
        """
        lower = np.full(self.dimension, -np.inf)
        upper = np.full(self.dimension, np.inf)
        for row, rhs in zip(self.a, self.b):
            (axes,) = np.nonzero(row)
            if len(axes) != 1:
                continue
            axis = axes[0]
            limit = rhs / row[axis]
            if row[axis] > 0.0:
                upper[axis] = min(upper[axis], limit)
            else:
                lower[axis] = max(lower[axis], limit)
        return lower, upper

    def _axis_box_volume(self) -> float:
        """Volume of :meth:`_axis_box`: a sound upper bound on the polytope's
        volume, ``inf`` when some axis is unbounded."""
        lower, upper = self._axis_box()
        widths = upper - lower
        if np.any(widths <= 0.0):
            return 0.0
        return float(np.prod(widths))

    def axis_box_range(self, coefficients: Sequence[float]) -> Optional[Interval]:
        """Range of ``c·x`` over :meth:`_axis_box` (``None`` if that box is empty).

        It encloses the range over the polytope, so it is the sound stand-in
        for :meth:`bound_linear` when the LP fails; infinite where ``c`` has
        weight on an unbounded axis.
        """
        lower, upper = self._axis_box()
        if np.any(lower > upper):
            return None
        coefficients = np.asarray(coefficients, dtype=float)
        positive, negative = coefficients > 0.0, coefficients < 0.0
        lo = float(
            np.dot(coefficients[positive], lower[positive])
            + np.dot(coefficients[negative], upper[negative])
        )
        hi = float(
            np.dot(coefficients[positive], upper[positive])
            + np.dot(coefficients[negative], lower[negative])
        )
        return Interval(lo, hi)


class SlabProfile(NamedTuple):
    """A parent polytope's triangulation, for measuring its slab cells.

    Row ``i`` of ``simplices`` indexes the ``n + 1`` corners of simplex ``i``
    in ``vertices``; ``volumes`` are the simplices' volumes and ``total``
    their exactly rounded sum, the parent's volume.  The simplices tile the
    parent, so ``V(t) = vol(parent ∩ {d·x ≤ t})`` is the sum of each
    simplex's share below ``t`` (:meth:`cut_volumes`).
    """

    vertices: np.ndarray
    simplices: np.ndarray
    volumes: np.ndarray
    total: float

    def cut_volumes(self, direction: np.ndarray, cuts: np.ndarray) -> list[float]:
        """``V(t)`` along ``direction`` for every ``t`` in ``cuts``.

        A simplex with ``k`` of its ``n + 1`` corners at height ``d·v ≤ t``
        contributes the part of it below ``t``: the cone from its lowest
        corner over a staircase triangulation of the crossing points
        (:func:`_near_share`).  When ``k > (n + 1) / 2`` the part above is
        measured instead and subtracted.  Every ``(simplex, t)`` pair is
        computed elementwise and each ``V(t)`` is an exactly rounded sum,
        so ``V(t)`` is the same float whichever other cut values share the
        call.
        """
        dimension = self.vertices.shape[1]
        # Heights one coordinate at a time: elementwise, never a BLAS sum.
        height = self.vertices[:, 0] * direction[0]
        for axis in range(1, dimension):
            height = height + self.vertices[:, axis] * direction[axis]
        heights = np.sort(height[self.simplices], axis=1)
        cuts = np.asarray(cuts, dtype=float)
        below = (heights[None, :, :] <= cuts[:, None, None]).sum(axis=2)
        parts = np.where(below > dimension, self.volumes, 0.0)
        for count in np.unique(below).tolist():
            if count == 0 or count > dimension:
                continue
            rows, columns = np.nonzero(below == count)
            corners, cut = heights[columns], cuts[rows]
            if 2 * count <= dimension + 1:
                share = _near_share(corners[:, :count], corners[:, count:], cut)
            else:
                share = 1.0 - _near_share(corners[:, count:], corners[:, :count], cut)
            parts[rows, columns] = self.volumes[columns] * share
        return [math.fsum(row) for row in parts.tolist()]


def _near_share(near: np.ndarray, far: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """Share of a simplex's volume on the side of ``d·x = cut`` holding the
    corners of height ``near`` (the other corners are at height ``far``).

    That part is the convex hull of the near corners ``v_i`` and the points
    ``p_ij`` where the edges ``v_i w_j`` cross the cut.  A projective map
    takes it to a product of two simplices, so the staircase triangulation
    of the grid ``q_i0 = v_i``, ``q_ij = p_i(j-1)`` (one simplex per
    monotone path from ``(0, 0)`` to its far corner) triangulates it.  In
    barycentric coordinates each path's simplex is a triangular matrix
    whose diagonal holds the crossing weights, so its share is a product
    of them; the paths are summed by dynamic programming over the grid.
    """
    gap = np.abs(far[:, None, :] - near[:, :, None])
    toward = np.abs(cut[:, None, None] - near[:, :, None]) / gap
    away = np.abs(far[:, None, :] - cut[:, None, None]) / gap
    width = far.shape[1]
    row = [np.ones(len(cut))]
    for j in range(width):
        row.append(row[j] * toward[:, 0, j])
    for i in range(1, near.shape[1]):
        step = [row[0]]
        for j in range(width):
            step.append(row[j + 1] * away[:, i, j] + step[j] * toward[:, i, j])
        row = step
    return row[width]


def cell_volumes(cells: Sequence[Polytope], cache=None) -> list[Interval]:
    """``[cell.volume_bounds(cache) for cell in cells]``: :func:`slab_volumes`
    of the cells' :meth:`Polytope.slab_split`."""
    return slab_volumes([cell.slab_split() for cell in cells], cache)


def slab_volumes(slabs: Sequence[tuple], cache=None) -> list[Interval]:
    """Volume bounds of the slab cells ``parent ∩ {lo ≤ d·x ≤ hi}`` given
    as ``(parent, d, lo, hi)`` (:meth:`Polytope.slab_split`; ``d`` ``None``:
    the uncut parent), measured in batches.

    Cells are grouped by their parent and direction; each group's cut
    values go through one :func:`_slab_volumes` call.  Cells of dimension
    0 or 1 need no parent and are measured on their own.
    """
    results: list[Optional[Interval]] = [None] * len(slabs)
    groups: dict = {}
    for index, (parent, direction, lo, hi) in enumerate(slabs):
        if parent.dimension <= 1:
            results[index] = _slab_cell(parent, direction, lo, hi)._own_volume()
            continue
        key = (parent.cache_key(), None if direction is None else direction.tobytes())
        groups.setdefault(key, (parent, direction, []))[2].append((index, lo, hi))
    for parent, direction, members in groups.values():
        volumes = _slab_volumes(parent, direction, [(lo, hi) for _, lo, hi in members], cache)
        for (index, _, _), volume in zip(members, volumes):
            results[index] = volume
    return results


def _slab_cell(
    parent: Polytope, direction: Optional[np.ndarray], lo: float, hi: float
) -> Polytope:
    """The cell ``parent ∩ {lo ≤ d·x ≤ hi}`` as a polytope (``parent``
    itself when uncut): built only to measure it on its own."""
    if direction is None:
        return parent
    return parent.add_constraints([direction, -direction], [hi, -lo])


def _slab_volumes(
    parent: Polytope,
    direction: Optional[np.ndarray],
    slabs: list[tuple[float, float]],
    cache=None,
) -> list[Interval]:
    """Volumes of ``parent ∩ {lo ≤ d·x ≤ hi}`` for the ``(lo, hi)`` in
    ``slabs`` (``direction`` ``None``: the uncut parent)."""
    try:
        center_radius = parent._chebyshev(cache)
    except LPFailure:
        return [
            Interval(0.0, _slab_cell(parent, direction, lo, hi)._axis_box_volume())
            for lo, hi in slabs
        ]
    if center_radius is None or center_radius[1] <= FLATNESS_RADIUS:
        return [Interval.point(0.0)] * len(slabs)
    profile = (
        parent.slab_profile(center_radius) if cache is None
        else cache.profile(parent, center_radius)
    )
    if profile is None:
        return [
            Interval(0.0, _slab_cell(parent, direction, lo, hi)._bounding_box_volume())
            for lo, hi in slabs
        ]
    slack = VOLUME_SLACK * profile.total
    if direction is None:
        return [_padded(profile.total, slack)] * len(slabs)
    cuts = np.unique([cut for slab in slabs for cut in slab])
    at = dict(zip(cuts.tolist(), profile.cut_volumes(direction, cuts)))
    # A slab of width 0 is a hyperplane section: volume exactly 0.
    return [
        _padded(at[hi] - at[lo], slack) if lo < hi else Interval.point(0.0)
        for lo, hi in slabs
    ]


def _slab_ends(upper: np.ndarray, rhs: np.ndarray) -> tuple:
    """``(rhs, is_upper)`` of each row of a slab run; ``upper`` says which
    rows equal the slab's direction (the others equal its negation)."""
    return tuple(zip(rhs.tolist(), upper.tolist()))


def _padded(volume: float, slack: float) -> Interval:
    """``[volume − slack, volume + slack]``, clipped at 0."""
    return Interval(max(0.0, volume - slack), max(0.0, volume + slack))


def _enclosure(value: Fraction) -> Interval:
    """The narrowest float interval containing ``value``."""
    nearest = float(value)
    exact = Fraction(nearest)
    return Interval(
        nearest if exact <= value else math.nextafter(nearest, -math.inf),
        nearest if exact >= value else math.nextafter(nearest, math.inf),
    )
