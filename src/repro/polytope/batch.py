"""Batched LP bounding of many linear forms over one polytope.

The linear analyzer bounds every score atom over every target-restricted
polytope — 2 LPs per atom per polytope.  Issued through
``scipy.optimize.linprog`` each of those pays the full wrapper cost (option
validation, input cleaning, sparse construction); issued through
:class:`BatchPolytope` the polytope's constraint system is prepared once and
all objectives run against it on the direct HiGHS kernel
(:mod:`repro.polytope.highs`).

The results are bit-identical to calling :meth:`Polytope.bound_linear` per
form — :class:`BatchPolytope` goes through the exact same per-polytope
prepared model and result mapping, it just amortises the setup across the
batch — except that a failed LP widens to a sound range instead of ``None``.
When the kernel binding is unavailable every solve degrades to the
``linprog`` fallback inside :meth:`Polytope._optimise` automatically (with
presolve off, like the kernel).

The sweep's LPs also yield an argmin and an argmax per form — the points
:meth:`Polytope.extreme_points` returns for that row.  A slab cell cut from
the polytope along an atom row inherits its interior point from them
(:meth:`Polytope.interior_point`), so collecting them here saves the
cell its own Chebyshev LP at no extra solve.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..intervals import Interval
from .polytope import LPFailure, Polytope

__all__ = ["BatchPolytope"]


class BatchPolytope:
    """Bounds many linear objectives over one polytope in one prepared sweep."""

    __slots__ = ("polytope",)

    def __init__(self, polytope: Polytope) -> None:
        self.polytope = polytope

    def bound_rows(
        self,
        rows: Sequence[Sequence[float]],
        points: Optional[dict] = None,
    ) -> list[Optional[Interval]]:
        """``[polytope.bound_linear(row) for row in rows]``, batched.

        One prepared model serves all ``2 * len(rows)`` solves.  Each entry
        is the range of ``row · x`` over the polytope, or ``None`` when the
        polytope is empty (every later entry is then ``None`` too, as an
        empty polytope bounds nothing).  Unlike ``bound_linear``, a failed
        LP is not read as emptiness: that row's entry widens to its range
        over the polytope's axis box (:meth:`Polytope.axis_box_range`).

        ``points``, when given, receives ``index → (argmin, argmax)`` for
        every row whose LP pair succeeded (the polytope's
        :meth:`~Polytope.extreme_points` along that row).
        """
        polytope = self.polytope
        results: list[Optional[Interval]] = []
        infeasible = False
        for index, row in enumerate(rows):
            if infeasible:
                results.append(None)
                continue
            try:
                extremes = polytope._linear_extremes(row)
            except LPFailure:
                bound = polytope.axis_box_range(row)
            else:
                bound = None if extremes is None else extremes[0]
                if extremes is not None and points is not None:
                    points[index] = extremes[1:]
            if bound is None:
                infeasible = True
            results.append(bound)
        return results

    def bound_rhs_variants(
        self,
        extra_rows: Sequence[Sequence[float]],
        rhs_variants: Sequence[Sequence[float]],
        cost: Sequence[float],
    ) -> list[Optional[Interval]]:
        """Range of ``cost · x`` over the polytope + ``extra_rows ≤ rhs`` per variant.

        All variants share one augmented constraint matrix — only the
        right-hand side differs — so each variant is a fresh
        :class:`Polytope` view over shared row structure.  Bit-identical to
        constructing and bounding each restricted polytope separately.
        """
        results: list[Optional[Interval]] = []
        for rhs in rhs_variants:
            restricted = (
                self.polytope.add_constraints(extra_rows, rhs)
                if len(extra_rows)
                else self.polytope
            )
            results.append(restricted.bound_linear(cost))
        return results

    def is_empty(self) -> bool:
        """Feasibility of the base polytope (shares the prepared model)."""
        return self.polytope.is_empty()

    def dense_objectives(self, forms, dimension: int) -> np.ndarray:
        """Dense ``(len(forms), dimension)`` objective matrix of linear forms."""
        out = np.zeros((len(forms), dimension))
        for index, form in enumerate(forms):
            for var, coeff in form.coeffs:
                if var >= dimension:
                    raise ValueError(
                        f"variable α_{var} outside dimension {dimension}"
                    )
                out[index, var] = coeff
        return out
