"""Convex polytopes in halfspace representation.

The linear interval trace semantics (paper Section 6.4) reduces path
denotations to integrals over convex polytopes ``{α : A α ≤ b}``.  GuBPI uses
the external tools Vinci/LattE for exact volume computation and an LP solver
for bounding linear forms; this module provides both from scratch on top of
``scipy`` (with a pure-Python fallback for vertex enumeration):

* feasibility and Chebyshev centre via linear programming,
* bounds on a linear function over the polytope (:meth:`Polytope.bound_linear`),
  the LP optima as HiGHS returns them,
* volume via halfspace intersection + convex hull, with sound
  ``[0, box volume]`` fallback bounds when the geometry degenerates.

The volume is *not* exact: it is the float Qhull computes over joggled
(``QJ``) input, returned as a point interval rounded to nearest.  It can miss
the true volume by ~1e-6 relative; certified volumes are an open ROADMAP
item.

**Flatness rule.**  A polytope whose largest inscribed ball has radius
``≤ 1e-9`` (:data:`FLATNESS_RADIUS`) is treated as lower-dimensional, i.e. of
volume exactly 0 (:meth:`Polytope.is_full_dimensional`).  Every subset of
such a polytope is flat too, which lets the linear analyzer settle a whole
family of cells from their common base.

**Inherited interior points.**  Qhull's halfspace intersection needs a
point strictly inside the polytope, and the flatness rule needs a radius.
Most polytopes the linear analyzer measures are *cells*: a parent polytope
cut by a slab ``lo ≤ d·x ≤ hi`` (the trailing rows that are ``±``-equal to
the last row).  Such a cell takes its point from its parent instead of its
own Chebyshev LP (:meth:`Polytope.interior_point`): the point on the path
argmin → Chebyshev centre → argmax of ``d`` over the parent at the slab's
middle value, certified by its distance ``ρ`` to every row of the cell.  A
ball of radius ``ρ`` fits inside the cell, so ``ρ`` bounds the Chebyshev
radius from below and the flatness verdict cannot change; when ``ρ ≤``
:data:`INHERITED_RADIUS` the cell solves its own Chebyshev LP as before.
The point is a pure function of the cell's own ``(A, b)``: the parent's
centre and extreme points are themselves LPs on the parent's rows, which a
geometry cache (any object with ``chebyshev(polytope)`` and
``extreme_points(polytope, direction)``, e.g. the linear analyzer's
``GeometryCache``) may memoise but never changes.

All LPs run on the low-overhead HiGHS kernel (:mod:`repro.polytope.highs`)
when its binding is available, with presolve off: each polytope lazily
prepares its constraint system once and solves every objective (atom
bounds, feasibility) against it, and the Chebyshev LP ``[A | ‖aᵢ‖]`` is
prepared once per constraint matrix ``A`` (per thread) and re-solved for
each right-hand side ``b``.  The kernel is bit-identical to
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

import itertools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

from ..intervals import Interval
from . import highs as _highs

__all__ = [
    "FLATNESS_RADIUS",
    "INHERITED_RADIUS",
    "LPFailure",
    "Polytope",
    "PolytopeError",
]

#: Chebyshev radius at or below which a polytope counts as lower-dimensional
#: (volume exactly 0).
FLATNESS_RADIUS = 1e-9

#: Certified radius an inherited interior point needs to replace the cell's
#: own Chebyshev LP — well above :data:`FLATNESS_RADIUS`, so Qhull gets a
#: point clearly inside and the flatness verdict is settled by it.
INHERITED_RADIUS = 1e-7

#: ``linprog`` options of every fallback LP: the kernel's option set.
_LINPROG_OPTIONS = {"presolve": False}

#: Chebyshev LP skeletons kept per thread (least recently used evicted).
_CHEBYSHEV_SKELETONS = 64

#: Per-thread skeleton store: a prepared ``[A | ‖aᵢ‖]`` system has its
#: right-hand side swapped on every solve, so it must not cross threads.
_SKELETONS = threading.local()


class PolytopeError(Exception):
    """Raised on malformed polytope operations."""


class LPFailure(PolytopeError):
    """The LP solver returned neither an optimum nor a proof of infeasibility."""


def _chebyshev_skeleton(a: np.ndarray) -> "_highs.PreparedLP":
    """The prepared Chebyshev LP ``[A | ‖aᵢ‖] (x, r) ≤ b, r ≥ 0`` of ``A``.

    Keyed on ``A``'s shape and exact bytes; the caller passes its own ``b``
    to every solve.  Cells of one base polytope share few distinct matrices,
    so most Chebyshev solves skip the build.
    """
    store = getattr(_SKELETONS, "store", None)
    if store is None:
        store = _SKELETONS.store = OrderedDict()
    key = (a.shape, a.tobytes())
    skeleton = store.get(key)
    if skeleton is not None:
        store.move_to_end(key)
        return skeleton
    norms = np.linalg.norm(a, axis=1)
    col_lower = np.concatenate([np.full(a.shape[1], -np.inf), [0.0]])
    skeleton = store[key] = _highs.PreparedLP(
        np.hstack([a, norms.reshape(-1, 1)]), np.zeros(a.shape[0]), col_lower=col_lower
    )
    if len(store) > _CHEBYSHEV_SKELETONS:
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

    def _linear_range(self, coefficients: Sequence[float], constant: float = 0.0) -> Optional[Interval]:
        """:meth:`bound_linear`, raising :class:`LPFailure` when an LP fails."""
        extremes = self._linear_extremes(coefficients, constant)
        return None if extremes is None else extremes[0]

    def _linear_extremes(
        self, coefficients: Sequence[float], constant: float = 0.0
    ) -> Optional[tuple[Interval, np.ndarray, np.ndarray]]:
        """Range of ``c·x + constant`` with an argmin and an argmax of ``c·x``.

        ``None`` if the polytope is empty; raises :class:`LPFailure` when an
        LP fails.
        """
        if self.dimension == 0:
            origin = np.zeros(0)
            return None if self.is_empty() else (Interval.point(constant), origin, origin)
        coefficients = np.asarray(coefficients, dtype=float)
        lower = self._optimise(coefficients, minimise=True)
        if lower is None:
            return None
        upper = self._optimise(coefficients, minimise=False)
        if upper is None:
            return None
        lo, hi = lower[0] + constant, upper[0] + constant
        if lo > hi:
            lo, hi = hi, lo
        return Interval(lo, hi), lower[1], upper[1]

    def extreme_points(self, direction: Sequence[float]) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """A minimiser and a maximiser of ``direction · x`` (``None`` if empty).

        Raises :class:`LPFailure` when an LP fails (an unbounded direction
        included).  The points are those of the LP pair
        :meth:`bound_linear` solves for ``direction``, so an atom sweep that
        already bounded ``d`` has them too
        (:meth:`~repro.polytope.batch.BatchPolytope.bound_rows`).
        """
        direction = np.asarray(direction, dtype=float)
        low = self._solve(1.0 * direction)
        if low is None:
            return None
        high = self._solve(-1.0 * direction)
        if high is None:
            return None
        return low[1], high[1]

    def prepared_lp(self) -> Optional["_highs.PreparedLP"]:
        """The polytope's constraint system, loaded into the HiGHS kernel once.

        ``None`` when the direct binding is unavailable (callers then take
        the ``linprog`` fallback).  Lazily built and memoised per instance,
        so every objective bounded over this polytope — atom sweeps,
        feasibility checks — shares one prepared model.
        """
        prepared = self.__dict__.get("_prepared_lp", False)
        if prepared is False:
            prepared = (
                _highs.PreparedLP(self.a, self.b) if _highs.kernel_available() else None
            )
            object.__setattr__(self, "_prepared_lp", prepared)
        return prepared

    def _optimise(
        self, coefficients: np.ndarray, minimise: bool
    ) -> Optional[tuple[float, np.ndarray]]:
        """The optimum of ``coefficients · x`` and a point attaining it
        (``None`` if infeasible).

        Raises :class:`LPFailure` when the solver fails.
        """
        sign = 1.0 if minimise else -1.0
        solution = self._solve(sign * coefficients)
        if solution is None:
            return None
        return float(sign * solution[0]), solution[1]

    def _solve(self, cost: np.ndarray) -> Optional[tuple[float, np.ndarray]]:
        """Minimum of ``cost · x`` and a minimiser (``None`` if infeasible).

        Raises :class:`LPFailure` when the solver fails.
        """
        prepared = self.prepared_lp()
        if prepared is not None:
            status, fun, x = prepared.solve(cost)
            if status == _highs.INFEASIBLE:
                return None
            if status != _highs.OPTIMAL:
                raise LPFailure("linear objective LP failed")
            return fun, np.asarray(x, dtype=float)
        result = linprog(
            cost,
            A_ub=self.a,
            b_ub=self.b,
            bounds=[(None, None)] * self.dimension,
            method="highs",
            options=_LINPROG_OPTIONS,
        )
        if result.status == 2:  # infeasible
            return None
        if not result.success:
            raise LPFailure(result.message)
        return result.fun, np.asarray(result.x, dtype=float)

    def is_empty(self) -> bool:
        """Feasibility check via LP."""
        if self.dimension == 0:
            # A zero-dimensional polytope is the single point (); it is empty
            # exactly when some constraint ``0 <= b`` fails.
            return bool(np.any(self.b < 0.0))
        prepared = self.prepared_lp()
        if prepared is not None:
            status, _, _ = prepared.solve(np.zeros(self.dimension))
            return status == _highs.INFEASIBLE
        result = linprog(
            np.zeros(self.dimension),
            A_ub=self.a,
            b_ub=self.b,
            bounds=[(None, None)] * self.dimension,
            method="highs",
            options=_LINPROG_OPTIONS,
        )
        return result.status == 2

    def chebyshev_center(self) -> Optional[tuple[np.ndarray, float]]:
        """Centre and radius of the largest inscribed ball (``None`` if empty).

        Raises :class:`LPFailure` when the LP fails, so a solver error is
        never mistaken for emptiness.  The LP's constraint matrix is prepared
        once per ``A`` (see :func:`_chebyshev_skeleton`); re-passing the whole
        model on every solve keeps the floats those of a fresh solve.
        """
        if self.dimension == 0:
            return None if self.is_empty() else (np.zeros(0), math.inf)
        objective = np.zeros(self.dimension + 1)
        objective[-1] = -1.0  # maximise the radius
        if _highs.kernel_available():
            status, _, x = _chebyshev_skeleton(self.a).solve(objective, self.b)
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

        ``False`` means :meth:`volume_bounds` is exactly ``[0, 0]`` — for this
        polytope and for every subset of it.  A failed Chebyshev LP proves
        nothing, so it counts as full-dimensional (nothing gets skipped).
        ``cache`` optionally memoises the Chebyshev LP (see the module
        docstring).
        """
        try:
            center_radius = self._chebyshev(cache)
        except LPFailure:
            return True
        return center_radius is not None and center_radius[1] > FLATNESS_RADIUS

    def interior_point(self, cache=None) -> Optional[tuple[np.ndarray, float]]:
        """A point inside the polytope and a radius ``ρ`` of a ball around it
        that fits inside (``None`` if empty).

        The inherited point (:meth:`_inherited_point`) when one is certified
        with ``ρ >`` :data:`INHERITED_RADIUS`, otherwise the Chebyshev centre
        and radius.  A pure function of ``(A, b)``: ``cache`` (see the module
        docstring) only memoises the LPs involved.  Raises
        :class:`LPFailure` when the Chebyshev LP fails.
        """
        inherited = self._inherited_point(cache)
        if inherited is not None:
            return inherited
        return self._chebyshev(cache)

    def _inherited_point(self, cache=None) -> Optional[tuple[np.ndarray, float]]:
        """The interior point a slab cell inherits from its parent, or ``None``.

        The cell's trailing rows ``±``-equal to its last row ``d`` must bound
        ``d·x`` from both sides (``lo ≤ d·x ≤ hi``); the rows before them
        form the parent.  From the parent's Chebyshev centre ``q`` and its
        extreme points along ``d`` (never an inherited point: one level
        only), the candidate is the point of the path argmin → ``q`` →
        argmax where ``d·x`` is the middle of ``[lo, hi]`` (clipped to the
        parent's range).  It is kept when its distance ``ρ`` to every row of
        the cell exceeds :data:`INHERITED_RADIUS`.  Any LP failure, an empty
        parent or an unbounded direction just means ``None``.
        """
        a, b = self.a, self.b
        direction = a[-1]
        if self.dimension == 0 or not direction.any():
            return None
        upper = (a == direction).all(axis=1)
        parallel = upper | (a == -direction).all(axis=1)
        if parallel.all():
            return None
        split = len(a) - int(np.argmin(parallel[::-1]))
        upper = upper[split:]
        if upper.all() or not upper.any():
            return None  # a one-sided cut is no slab
        hi = float(b[split:][upper].min())
        lo = float(-b[split:][~upper].max())

        parent = Polytope(a[:split], b[:split])
        try:
            center_radius = parent._chebyshev(cache)
            if center_radius is None:
                return None
            extremes = (
                parent.extreme_points(direction) if cache is None
                else cache.extreme_points(parent, direction)
            )
        except LPFailure:
            return None
        if extremes is None:
            return None
        center = center_radius[0]
        low_point, high_point = extremes
        low, middle, high = direction @ low_point, direction @ center, direction @ high_point
        lo, hi = max(lo, low), min(hi, high)
        if not lo < hi:
            return None
        value = 0.5 * (lo + hi)
        if value <= middle:
            start, end = low_point, center
            share = (value - low) / (middle - low) if middle > low else 1.0
        else:
            start, end = center, high_point
            share = (value - middle) / (high - middle)
        point = start + share * (end - start)

        norms = np.sqrt((a * a).sum(axis=1))
        if not (norms > 0.0).all():
            return None
        radius = float(((b - a @ point) / norms).min())
        if radius > INHERITED_RADIUS:
            return point, radius
        return None

    # ------------------------------------------------------------------
    # Volume
    # ------------------------------------------------------------------
    def vertices(
        self, center_radius: Optional[tuple[np.ndarray, float]] = None
    ) -> Optional[np.ndarray]:
        """Vertex enumeration via Qhull halfspace intersection (``None`` on failure).

        ``center_radius`` lets a caller that already solved the Chebyshev LP
        (e.g. :meth:`volume_bounds`) pass its result in instead of paying for
        the identical solve again.
        """
        if self.dimension == 0:
            return np.zeros((1, 0))
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
        if self.dimension == 1:
            bound = self.bound_linear([1.0])
            if bound is None:
                return None
            return np.array([[bound.lo], [bound.hi]])
        halfspaces = np.hstack([self.a, -self.b.reshape(-1, 1)])
        try:
            intersection = HalfspaceIntersection(halfspaces, center)
            return np.asarray(intersection.intersections)
        except (QhullError, ValueError):
            return None

    def volume_bounds(self, cache=None) -> Interval:
        """Bounds on the Lebesgue volume.

        In the regular case the result is a point interval: Qhull's volume
        of the joggled (``QJ``) vertex set, rounded to nearest — close to the
        true volume but not a certified enclosure of it (see the ROADMAP's
        certified-volume item).  An empty or flat polytope (Chebyshev radius
        ``≤`` :data:`FLATNESS_RADIUS`) has volume exactly 0.  When Qhull
        fails on a full-dimensional polytope the fallback is
        ``[0, volume of the bounding box]``; when an LP fails it is
        ``[0, volume of the axis-aligned rows' box]``.  Both keep every
        downstream bound sound, just less precise.

        Qhull starts from :meth:`interior_point`; ``cache`` memoises its LPs
        without changing the result.
        """
        if self.dimension == 0:
            return Interval.point(0.0) if self.is_empty() else Interval.point(1.0)
        try:
            center_radius = self.interior_point(cache)
        except LPFailure:
            return Interval(0.0, self._axis_box_volume())
        if center_radius is None:
            return Interval.point(0.0)
        _, radius = center_radius
        if radius <= FLATNESS_RADIUS:
            # Lower-dimensional (or empty): Lebesgue volume 0.
            return Interval.point(0.0)
        if self.dimension == 1:
            try:
                bound = self._linear_range([1.0])
            except LPFailure:
                return Interval(0.0, self._axis_box_volume())
            if bound is None:
                return Interval.point(0.0)
            return Interval.point(bound.width)
        vertices = self.vertices(center_radius)
        if vertices is None or len(vertices) <= self.dimension:
            return Interval(0.0, self._bounding_box_volume())
        try:
            hull = ConvexHull(vertices, qhull_options="QJ")
            return Interval.point(float(hull.volume))
        except (QhullError, ValueError):
            return Interval(0.0, self._bounding_box_volume())

    def volume(self) -> float:
        """The upper end of :meth:`volume_bounds` (the Qhull volume in the
        regular case, otherwise the fallback's upper bound)."""
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
