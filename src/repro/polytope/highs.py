"""Low-overhead deterministic LP kernel over scipy's vendored HiGHS.

Profiling the linear analyzer shows that ~80% of the time spent in
``scipy.optimize.linprog(method="highs")`` is Python wrapper overhead —
option validation, input cleaning and sparse re-construction — with only a
small fraction in the actual HiGHS solve.  The polytope substrate issues
thousands of small LPs per query (atom bounds, feasibility checks, Chebyshev
centres), so that overhead dominates the whole linear route.

This module drives the *same* vendored HiGHS binding that scipy ships
(``scipy.optimize._highspy``) directly:

* one ``_Highs`` solver instance per thread, with scipy's exact option set
  passed once (``presolve`` on, dual simplex, no logging) instead of being
  re-validated per call;
* a :class:`PreparedLP` per constraint system ``A x ≤ b``: the CSC structure
  is built once (directly with numpy, see :func:`csc_arrays`) and many
  objectives — or, for a shared constraint matrix, many right-hand sides —
  are solved against it by mutating the model's cost (and row-bound) vector
  and re-passing the model.

**Bit-identity contract**: every solve replaces the full model via
``passModel`` — exactly the cold-start path ``linprog`` takes — so the
returned objective values are bit-identical to ``linprog(c, A_ub=a, b_ub=b,
bounds=..., method="highs")``.  (Warm-starting via ``changeColsCost`` without
re-passing the model is measurably *not* bit-identical and is deliberately
not used.)  The contract is pinned by ``tests/test_linear_fast_path.py``.

When the private binding is unavailable (:func:`kernel_available` is false),
callers fall back to ``scipy.optimize.linprog`` — no new dependency is
introduced either way.
"""

from __future__ import annotations

import threading
from typing import Optional

import numpy as np

try:  # the binding is private to scipy; degrade gracefully if it moves
    import scipy.optimize._highspy._core as _core
    from scipy.optimize._highspy._core import simplex_constants as _simplex_constants
except ImportError:  # pragma: no cover - depends on the scipy build
    _core = None
    _simplex_constants = None

__all__ = [
    "PreparedLP",
    "csc_arrays",
    "kernel_available",
    "OPTIMAL",
    "INFEASIBLE",
    "FAILED",
]

#: Solve outcomes, mirroring the scipy ``linprog`` status codes the polytope
#: layer branches on (0 = optimal, 2 = infeasible, 4 = anything else).
OPTIMAL = 0
INFEASIBLE = 2
FAILED = 4


def kernel_available() -> bool:
    """Whether the direct HiGHS binding can be used on this host."""
    return _core is not None


#: One solver instance per thread: the thread backend runs analyzers
#: concurrently and a ``_Highs`` object is not thread-safe, while per-thread
#: reuse keeps the option pass a one-time cost.
_STATE = threading.local()


def _highs_instance():
    highs = getattr(_STATE, "highs", None)
    if highs is None:
        options = _core.HighsOptions()
        # scipy's exact option set for linprog(method="highs") defaults —
        # matching it option-for-option is part of the bit-identity contract.
        options.presolve = "on"
        options.highs_debug_level = _core.HighsDebugLevel.kHighsDebugLevelNone
        options.log_to_console = False
        options.output_flag = False
        options.simplex_strategy = (
            _simplex_constants.SimplexStrategy.kSimplexStrategyDual
        )
        highs = _core._Highs()
        highs.passOptions(options)
        _STATE.highs = highs
    return highs


def csc_arrays(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, indices, data)`` of the dense matrix ``a`` in CSC form.

    The same arrays — values, order and ``int32`` index dtype —
    ``scipy.sparse.csc_array(a)`` produces: entries that compare equal to
    zero (``-0.0`` included) are dropped, columns are stored left to right
    and rows ascend within each column.  Built with three numpy passes
    instead of scipy's COO round trip, which dominated the cost of
    preparing a small LP.
    """
    columns = a.T  # a view: iterating it in C order walks ``a`` column-major
    nonzero = columns != 0
    indptr = np.zeros(a.shape[1] + 1, dtype=np.int32)
    np.cumsum(nonzero.sum(axis=1), out=indptr[1:])
    indices = np.nonzero(nonzero)[1].astype(np.int32)
    return indptr, indices, columns[nonzero]


class PreparedLP:
    """A constraint system ``A x ≤ b`` loaded once, solved for many costs.

    The CSC encoding of ``A`` and the model skeleton (column/row bounds) are
    built once; :meth:`solve` swaps in an objective (and optionally a new
    right-hand side ``b``), re-passes the model to the per-thread solver and
    runs it.  Column bounds default to free
    variables (``linprog``'s ``bounds=[(None, None)] * n``); callers with
    partially bounded variables (e.g. the Chebyshev radius) pass explicit
    arrays.
    """

    __slots__ = ("_lp", "dimension")

    def __init__(
        self,
        a: np.ndarray,
        b: np.ndarray,
        col_lower: Optional[np.ndarray] = None,
        col_upper: Optional[np.ndarray] = None,
    ) -> None:
        a = np.atleast_2d(np.asarray(a, dtype=np.float64))
        b = np.asarray(b, dtype=np.float64).reshape(-1)
        rows, cols = a.shape
        indptr, indices, data = csc_arrays(a)
        lp = _core.HighsLp()
        lp.num_col_ = cols
        lp.num_row_ = rows
        lp.a_matrix_.num_col_ = cols
        lp.a_matrix_.num_row_ = rows
        lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
        lp.col_cost_ = np.zeros(cols)
        lp.col_lower_ = (
            np.full(cols, -np.inf) if col_lower is None
            else np.asarray(col_lower, dtype=np.float64)
        )
        lp.col_upper_ = (
            np.full(cols, np.inf) if col_upper is None
            else np.asarray(col_upper, dtype=np.float64)
        )
        lp.row_lower_ = np.full(rows, -np.inf)
        lp.row_upper_ = b
        lp.a_matrix_.start_ = indptr
        lp.a_matrix_.index_ = indices
        lp.a_matrix_.value_ = data
        self._lp = lp
        self.dimension = cols

    def solve(self, cost: np.ndarray, row_upper: Optional[np.ndarray] = None):
        """Minimise ``cost · x`` subject to the prepared constraints.

        ``row_upper`` replaces the right-hand side ``b`` for this and every
        later solve; the model is re-passed whole either way, so the floats
        equal those of a fresh ``PreparedLP(a, row_upper, ...)``.  A prepared
        system whose ``b`` is swapped must not be shared across threads.

        Returns ``(status, fun, x)``: the objective value and primal solution
        on :data:`OPTIMAL`, ``(status, None, None)`` otherwise.
        """
        highs = _highs_instance()
        lp = self._lp
        if row_upper is not None:
            lp.row_upper_ = np.asarray(row_upper, dtype=np.float64)
        lp.col_cost_ = np.asarray(cost, dtype=np.float64)
        if highs.passModel(lp) == _core.HighsStatus.kError:
            return FAILED, None, None
        if highs.run() == _core.HighsStatus.kError:
            return FAILED, None, None
        status = highs.getModelStatus()
        if status == _core.HighsModelStatus.kInfeasible:
            return INFEASIBLE, None, None
        if status != _core.HighsModelStatus.kOptimal:
            return FAILED, None, None
        info = highs.getInfo()
        return OPTIMAL, info.objective_function_value, highs.getSolution().col_value
