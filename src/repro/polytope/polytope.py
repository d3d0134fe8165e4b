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

All LPs run on the low-overhead HiGHS kernel (:mod:`repro.polytope.highs`)
when its binding is available: each polytope lazily prepares its constraint
system once and solves every objective (atom bounds, feasibility) against
it, and the Chebyshev LP ``[A | ‖aᵢ‖]`` is prepared once per constraint
matrix ``A`` (per thread) and re-solved for each right-hand side ``b``.  The
kernel is bit-identical to ``scipy.optimize.linprog`` by construction, and
``linprog`` remains the automatic fallback.

An LP that fails — neither an optimum nor a proof of infeasibility — is not
read as emptiness: :class:`LPFailure` reaches the volume code, which widens
to ``[0, v]`` with ``v`` the volume of the box cut out by ``A``'s
axis-aligned rows (``inf`` when that box is unbounded).
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

__all__ = ["FLATNESS_RADIUS", "LPFailure", "Polytope", "PolytopeError"]

#: Chebyshev radius at or below which a polytope counts as lower-dimensional
#: (volume exactly 0).
FLATNESS_RADIUS = 1e-9

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
        if self.dimension == 0:
            return None if self.is_empty() else Interval.point(constant)
        coefficients = np.asarray(coefficients, dtype=float)
        lower = self._optimise(coefficients, minimise=True)
        if lower is None:
            return None
        upper = self._optimise(coefficients, minimise=False)
        if upper is None:
            return None
        lo, hi = lower + constant, upper + constant
        if lo > hi:
            lo, hi = hi, lo
        return Interval(lo, hi)

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

    def _optimise(self, coefficients: np.ndarray, minimise: bool) -> Optional[float]:
        """The optimum of ``coefficients · x`` (``None`` if infeasible).

        Raises :class:`LPFailure` when the solver fails.
        """
        sign = 1.0 if minimise else -1.0
        prepared = self.prepared_lp()
        if prepared is not None:
            status, fun, _ = prepared.solve(sign * coefficients)
            if status == _highs.INFEASIBLE:
                return None
            if status != _highs.OPTIMAL:
                raise LPFailure("linear objective LP failed")
            return float(sign * fun)
        result = linprog(
            sign * coefficients,
            A_ub=self.a,
            b_ub=self.b,
            bounds=[(None, None)] * self.dimension,
            method="highs",
        )
        if result.status == 2:  # infeasible
            return None
        if not result.success:
            raise LPFailure(result.message)
        return float(sign * result.fun)

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
            )
            if result.status == 2:  # infeasible
                return None
            if not result.success:
                raise LPFailure(result.message)
            x = result.x
        center = np.asarray(x[:-1], dtype=float)
        radius = float(x[-1])
        return center, radius

    def is_full_dimensional(self) -> bool:
        """Whether the inscribed ball's radius exceeds :data:`FLATNESS_RADIUS`.

        ``False`` means :meth:`volume_bounds` is exactly ``[0, 0]`` — for this
        polytope and for every subset of it.  A failed Chebyshev LP proves
        nothing, so it counts as full-dimensional (nothing gets skipped).
        """
        try:
            center_radius = self.chebyshev_center()
        except LPFailure:
            return True
        return center_radius is not None and center_radius[1] > FLATNESS_RADIUS

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

    def volume_bounds(self) -> Interval:
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
        """
        if self.dimension == 0:
            return Interval.point(0.0) if self.is_empty() else Interval.point(1.0)
        try:
            center_radius = self.chebyshev_center()
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

    def _axis_box_volume(self) -> float:
        """Volume of the box cut out by ``A``'s axis-aligned rows alone.

        The polytope lies inside that box, so this is a sound upper bound on
        its volume that needs no LP; ``inf`` when some axis is unbounded.
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
        widths = upper - lower
        if np.any(widths <= 0.0):
            return 0.0
        return float(np.prod(widths))
