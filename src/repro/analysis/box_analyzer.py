"""Standard interval trace semantics for a single symbolic path (Section 6.3).

The sample space of a path is the product of the supports of its sample
variables.  The analyser partitions every variable's domain into sub-intervals
(a grid of boxes = interval traces restricted to this path) and evaluates the
constraints, score values and result value of the path in interval arithmetic
on every box:

* a box contributes to the **lower** bound of a target only when every
  constraint is satisfied for *all* points of the box and the result interval
  is *contained* in the target;
* it contributes to the **upper** bound when every constraint is satisfiable
  by *some* point of the box and the result interval *intersects* the target.

The mass of a box is the product of the exact prior probabilities of its
per-variable intervals (for a uniform(0, 1) variable this is just the width,
i.e. the paper's ``vol``); non-uniform priors are therefore handled natively
as in Appendix E.1.  Unbounded supports are split along quantiles so that
every cell carries equal prior mass.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

import numpy as np

from ..distributions import ContinuousDistribution, DiscreteDistribution, Distribution
from ..intervals import Interval
from ..symbolic.paths import Relation, SymbolicPath
from .config import AnalysisOptions
from .vectorize import (
    TableProgramEvaluator,
    compile_expr_roots,
    compile_table_roots,
    vec_mul as _vec_mul,
    vec_product as _vec_product,
)

__all__ = ["BoxPathAnalyzer", "analyze_path_boxes", "analyze_table_boxes", "split_domain"]

def split_domain(dist: Distribution, parts: int) -> list[Interval]:
    """Split the support of a prior into cells.

    * Finite discrete supports become one *point cell* per support value, so
      branching on discrete draws is decided exactly and the resulting bounds
      are tight (this is how the Table 2 benchmarks come out exact).
    * Bounded continuous supports are split uniformly in value.
    * Unbounded supports are split uniformly in *probability* using the
      quantile function, which keeps every cell's prior mass equal and finite
      (the two extreme cells stretch to ±∞ but still carry mass ``1/parts``).
    """
    if isinstance(dist, DiscreteDistribution):
        values = sorted(set(dist.support_values()))
        if values:
            return [Interval.point(value) for value in values]
        return [dist.support()]
    support = dist.support()
    if parts <= 1:
        return [support]
    if support.is_bounded:
        return support.split(parts)
    if isinstance(dist, ContinuousDistribution):
        cuts = [dist.quantile(k / parts) for k in range(1, parts)]
        edges = [support.lo, *cuts, support.hi]
        cells = []
        for lo, hi in zip(edges, edges[1:]):
            if hi < lo:
                lo, hi = hi, lo
            cells.append(Interval(lo, hi))
        return cells
    return [support]


def _grid_parts(dimension: int, options: AnalysisOptions) -> int:
    """Per-dimension split count respecting the total box budget."""
    parts = options.splits_per_dimension
    if dimension <= 0:
        return 1
    while parts > 1 and parts ** dimension > options.max_boxes_per_path:
        parts -= 1
    return max(1, parts)


# ----------------------------------------------------------------------
# Vectorised cell evaluation
#
# A per-cell loop evaluates every constraint, score and the result value
# once per grid cell — for a path with thousands of cells that is thousands
# of Python interpreter round-trips per expression node.  The sweep instead
# compiles the path's expressions into one flat program
# (:mod:`repro.analysis.vectorize`, shared with the linear analyser) and
# evaluates each instruction once over *all* cells as a pair of (lo, hi)
# NumPy arrays.  The evaluator is total — a cell whose value is undefined
# gets ``[-∞, ∞]`` — so the sweep is the only route, zero-variable paths
# included.
# ----------------------------------------------------------------------


def _constraint_masks(relation: str, glo: np.ndarray, ghi: np.ndarray):
    """Vectorised ``holds_exists`` / ``holds_forall`` for one constraint."""
    if relation == Relation.LEQ:
        return glo <= 0.0, ghi <= 0.0
    if relation == Relation.LT:
        return glo < 0.0, ghi < 0.0
    if relation == Relation.GT:
        return ghi > 0.0, glo > 0.0
    return ghi >= 0.0, glo >= 0.0


def _cell_arrays(distributions: Sequence[Distribution], options: AnalysisOptions):
    """The cell grid as arrays: bounds ``(n, d)`` and masses ``(n,)``.

    Every variable's domain is split by :func:`split_domain`, zero-mass point
    cells are dropped, and the product grid is laid out in lexicographic
    order (the last variable varies fastest).  A cell's mass is the product
    of its per-variable masses, multiplied left to right from 1.  ``None``
    when some variable has no cell.  No variables give one cell of mass 1
    (bounds of shape ``(1, 0)``).  Takes the distribution sequence directly
    so the materialised and columnar routes read one grid.
    """
    if not distributions:
        return np.empty((1, 0)), np.empty((1, 0)), np.ones(1)
    parts = _grid_parts(len(distributions), options)
    lows, highs, masses = [], [], []
    for dist in distributions:
        cells = []
        for cell in split_domain(dist, parts):
            cell_mass = dist.measure(cell)
            if cell_mass <= 0.0 and cell.width == 0.0:
                continue
            cells.append((cell, cell_mass))
        if not cells:
            return None
        lows.append(np.array([cell.lo for cell, _ in cells]))
        highs.append(np.array([cell.hi for cell, _ in cells]))
        masses.append(np.array([mass for _, mass in cells]))
    lo_grid = np.meshgrid(*lows, indexing="ij")
    hi_grid = np.meshgrid(*highs, indexing="ij")
    mass_grid = np.meshgrid(*masses, indexing="ij")
    los = np.stack([grid.reshape(-1) for grid in lo_grid], axis=1)
    his = np.stack([grid.reshape(-1) for grid in hi_grid], axis=1)
    mass = np.ones(los.shape[0])
    for grid in mass_grid:
        mass = mass * grid.reshape(-1)
    return los, his, mass


def _program_entry(compiled, relations, distributions):
    """A path's sweep program from its compiled roots.

    ``compiled`` is ``(instructions, positions)`` of the constraint roots,
    then the score roots, then the result root — the order the sweep
    consumes them, so lazy evaluation short-circuits exactly there.  The
    entry is ``(instructions, constraint (position, relation) pairs, score
    positions, result position, distributions)``.
    """
    instrs, positions = compiled
    count = len(relations)
    return (
        instrs,
        tuple(zip(positions[:count], relations)),
        positions[count:-1],
        positions[-1],
        distributions,
    )


def _path_program(path: SymbolicPath):
    """The sweep program of a materialised path (a :func:`_program_entry`)."""
    roots = [constraint.expr for constraint in path.constraints]
    roots.extend(path.scores)
    roots.append(path.result)
    return _program_entry(
        compile_expr_roots(roots),
        [constraint.relation for constraint in path.constraints],
        path.distributions,
    )


def _boxes_sweep(program, arrays, targets: Sequence[Interval]) -> list[tuple[float, float]]:
    """The grid sweep shared by the materialised and columnar routes.

    ``program`` is a :func:`_program_entry` and ``arrays`` the
    :func:`_cell_arrays` grid of its distributions.  Both routes run this
    one fold over the same instruction format, which is what makes them
    bit-identical.  The fold never abandons: the evaluator gives undefined
    cells ``[-∞, ∞]``, and ``0 · ∞ = 0`` keeps the weights NaN-free.
    """
    if arrays is None:
        return [(0.0, 0.0) for _ in targets]
    instrs, constraints, score_positions, result_position, _ = program
    los, his, mass = arrays
    eval_expr = TableProgramEvaluator(
        instrs, los.shape[0], var_leaf=lambda index: (los[:, index], his[:, index])
    ).eval_to
    possible = mass > 0.0
    definite = possible.copy()
    for position, relation in constraints:
        glo, ghi = eval_expr(position)
        exists_mask, forall_mask = _constraint_masks(relation, glo, ghi)
        possible &= exists_mask
        definite &= forall_mask
    if not possible.any():
        return [(0.0, 0.0) for _ in targets]

    weight_lo = np.ones(los.shape[0])
    weight_hi = np.ones(los.shape[0])
    for position in score_positions:
        slo, shi = eval_expr(position)
        # meet with [0, inf); an all-negative score interval collapses to 0.
        slo = np.maximum(slo, 0.0)
        negative = shi < slo
        slo = np.where(negative, 0.0, slo)
        shi = np.where(negative, 0.0, shi)
        weight_lo, weight_hi = _vec_mul(weight_lo, weight_hi, slo, shi)
    weight_lo = np.maximum(weight_lo, 0.0)
    weight_hi = np.maximum(weight_hi, 0.0)

    value_lo, value_hi = eval_expr(result_position)
    upper_mass = _vec_product(mass, weight_hi)
    lower_mass = _vec_product(mass, weight_lo)

    results: list[tuple[float, float]] = []
    for target in targets:
        intersects = possible & (value_hi >= target.lo) & (value_lo <= target.hi)
        contained = definite & (value_lo >= target.lo) & (value_hi <= target.hi)
        upper = float(np.sum(upper_mass, where=intersects, initial=0.0))
        lower = float(np.sum(lower_mass, where=contained, initial=0.0))
        results.append((lower, upper))
    return results


#: ``table.scratch`` key of the box analyzer's per-path compiled programs.
_TABLE_SCRATCH_KEY = "box-analyzer"

#: ``table.scratch`` key of the per-distribution-signature cell-grid cache.
_GRID_SCRATCH_KEY = "box-analyzer-grids"

#: How many cell grids one table attachment keeps.  Grids depend only on the
#: distribution signature and the split knobs, and path sets reuse a handful
#: of signatures (e.g. ``(U(0,1),) * depth`` per pedestrian recursion depth),
#: so a small LRU serves whole workloads while bounding memory.
_GRID_CACHE_CAP = 16

#: Cache-miss sentinel (``None`` is a legitimate cached value).
_GRID_MISS = object()


def _table_cell_arrays(table, index: int, distributions, options: AnalysisOptions):
    """The (cached) cell grid of path ``index``.

    The grid depends only on the path's distribution signature (stable dist
    ids — a cache home only the columnar table provides) and the split
    options; within one attachment every path of the same shape — and every
    repeated query — reuses one grid.  The sweep never mutates grid arrays,
    so sharing is safe and bit-neutral.
    """
    cache = table.scratch.get(_GRID_SCRATCH_KEY)
    if cache is None:
        cache = table.scratch.setdefault(_GRID_SCRATCH_KEY, OrderedDict())
    key = (
        tuple(int(dist_id) for dist_id in table.path_dist_ids(index)),
        options.splits_per_dimension,
        options.max_boxes_per_path,
    )
    # The thread backend shares one table (and this cache) across pool
    # threads: read the entry atomically and tolerate losing the LRU
    # bookkeeping races — a concurrent eviction at worst recomputes a grid,
    # never corrupts one (grids are immutable once built).
    entry = cache.get(key, _GRID_MISS)
    if entry is not _GRID_MISS:
        try:
            cache.move_to_end(key)
        except KeyError:  # evicted between get() and move_to_end()
            pass
        return entry
    arrays = _cell_arrays(distributions, options)
    cache[key] = arrays
    while len(cache) > _GRID_CACHE_CAP:
        try:
            cache.popitem(last=False)
        except KeyError:  # another thread already evicted
            break
    return arrays


def _box_program(table, index: int):
    """The compiled sweep program of path ``index`` (memoised per table).

    Compiled once per table attachment and reused by every chunk and every
    query over it (a :func:`_program_entry`).
    """
    cache = table.scratch.get(_TABLE_SCRATCH_KEY)
    if cache is None:
        cache = table.scratch.setdefault(_TABLE_SCRATCH_KEY, {})
    if index in cache:
        return cache[index]
    expr_ids, rel_ids = table.constraint_ids(index)
    roots = [int(expr_id) for expr_id in expr_ids]
    roots.extend(int(score_id) for score_id in table.score_ids(index))
    roots.append(table.result_id(index))
    entry = cache[index] = _program_entry(
        compile_table_roots(table, roots),
        [Relation.ALL[int(rel_id)] for rel_id in rel_ids],
        table.path_distributions(index),
    )
    return entry


def analyze_table_boxes(
    table,
    index: int,
    targets: Sequence[Interval],
    options: AnalysisOptions,
) -> list[tuple[float, float]]:
    """Bounds for path ``index`` straight from the table's node/CSR arrays.

    The columnar fast path: the path's expressions are compiled once per
    table attachment into a flat program (:func:`_box_program`); each query
    then builds the cell grid from the (shared) distribution records and
    executes the program lazily over it — no
    :class:`~repro.symbolic.SymbolicPath` is materialised and no expression
    tree is walked.  The sweep is the one that :func:`analyze_path_boxes`
    runs, so results are bit-identical to the materialised route.
    """
    program = _box_program(table, index)
    return _boxes_sweep(program, _table_cell_arrays(table, index, program[4], options), targets)


def analyze_path_boxes(
    path: SymbolicPath,
    targets: Sequence[Interval],
    options: AnalysisOptions,
) -> list[tuple[float, float]]:
    """Bounds on ``⟦Ψ⟧_lb(U)`` / ``⟦Ψ⟧_ub(U)`` for every target ``U``.

    Returns one ``(lower, upper)`` pair per entry of ``targets``.  The grid
    is evaluated in one vectorised sweep over all cells (a zero-variable
    path is a grid of one cell).
    """
    return _boxes_sweep(_path_program(path), _cell_arrays(path.distributions, options), targets)


class BoxPathAnalyzer:
    """Registry adapter for the standard interval trace semantics.

    Box splitting is the universal fallback: it is applicable to every
    symbolic path, so it should come last in an analyzer preference list.
    """

    name = "box"

    def applicable(self, path: SymbolicPath, options: AnalysisOptions) -> bool:
        return True

    def analyze(
        self,
        path: SymbolicPath,
        targets: Sequence[Interval],
        options: AnalysisOptions,
    ) -> list[tuple[float, float]]:
        return analyze_path_boxes(path, targets, options)

    def analyze_batch(
        self,
        paths: Sequence[SymbolicPath],
        targets: Sequence[Interval],
        options: AnalysisOptions,
    ) -> list[list[tuple[float, float]]]:
        """Per-path contributions for a whole chunk of materialised paths.

        The runtime chunk loop calls ``analyze_batch`` only for analysers
        without :meth:`analyze_table`, so this analyser's chunks run that
        instead; this method serves callers holding ``SymbolicPath``
        objects.  Each path runs the same sweep as :meth:`analyze`, so batch
        results are identical to per-path calls.
        """
        return [analyze_path_boxes(path, targets, options) for path in paths]

    # -- columnar fast path --------------------------------------------
    def applicable_table(self, table, index: int, options: AnalysisOptions) -> bool:
        """Box splitting is universal, from the table as from objects."""
        return True

    def analyze_table(
        self,
        table,
        indices,
        targets: Sequence[Interval],
        options: AnalysisOptions,
    ) -> list[list[tuple[float, float]]]:
        """Per-path contributions straight from a ``PathTable`` slice.

        One result list per index, bit-identical to decoding each path and
        calling :meth:`analyze` (see :func:`analyze_table_boxes`).
        """
        return [analyze_table_boxes(table, index, targets, options) for index in indices]
