"""Batched LP bounding of many linear forms over one polytope.

The linear analyzer bounds every score atom over every target-restricted
polytope — up to 2 LPs per atom per polytope: one per side of the atom's
range that can matter (a side its interval constant makes infinite is not
solved).  Issued through
``scipy.optimize.linprog`` each of those pays the full wrapper cost (option
validation, input cleaning, sparse construction); issued through
:class:`BatchPolytope` all objectives run on the direct HiGHS kernel
(:mod:`repro.polytope.highs`) against the model prepared once for the
polytope's constraint matrix ``A``, which every polytope with the same
``A`` shares (per thread), each solve passing the polytope's own ``b``.

The results are bit-identical to calling :meth:`Polytope.bound_linear` per
form — :class:`BatchPolytope` goes through the exact same prepared model
and result mapping — except that a failed LP widens to a sound range
instead of ``None``.
When the kernel binding is unavailable every solve degrades to the
``linprog`` fallback inside :meth:`Polytope._optimise` automatically (with
presolve off, like the kernel).
"""

from __future__ import annotations

from typing import Optional, Sequence

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
        sides: Optional[Sequence[tuple[bool, bool]]] = None,
    ) -> list[Optional[Interval]]:
        """``[polytope.bound_linear(row) for row in rows]``, batched.

        One prepared model (per constraint matrix) serves every solve.  Each entry is the range of
        ``row · x`` over the polytope, or ``None`` when the polytope is
        empty (every later entry is then ``None`` too, as an empty polytope
        bounds nothing).  ``sides[i]`` says which of row ``i``'s minimum
        and maximum to solve for (both by default); an unsolved side reads
        ``-inf`` / ``inf``, so a row with neither costs no LP and proves no
        emptiness.  Unlike ``bound_linear``, a failed LP is not read as
        emptiness: that row's entry widens to its range over the polytope's
        axis box (:meth:`Polytope.axis_box_range`).
        """
        polytope = self.polytope
        results: list[Optional[Interval]] = []
        infeasible = False
        for index, row in enumerate(rows):
            if infeasible:
                results.append(None)
                continue
            try:
                bound = polytope._linear_range(
                    row, sides=(True, True) if sides is None else sides[index]
                )
            except LPFailure:
                bound = polytope.axis_box_range(row)
            if bound is None:
                infeasible = True
            results.append(bound)
        return results
