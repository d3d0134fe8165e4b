"""Vectorised interval evaluation of symbolic expressions over many cells.

Both grid-style analysers sweep one expression over a large family of
interval assignments: the box analyser evaluates constraints/scores/results
over every cell of a sample-space grid, and the linear analyser evaluates
score *templates* over every combination of score-atom range chunks.  Doing
that with the scalar interval evaluator costs one Python tree walk (plus one
:class:`~repro.intervals.Interval` allocation per node) per cell.

This module lifts the evaluation to NumPy: every expression node is
evaluated once over *all* cells as a pair of ``(lo, hi)`` float arrays.
Exact IEEE operations (add, sub, neg, mul, min, max, abs, square) are lifted
wholesale — elementwise double arithmetic produces bit-identical endpoints
to the scalar interval ops, including the measure-theoretic ``0 · ∞ = 0``
convention.  Any other primitive takes its scalar interval lifting applied
cell-wise, so a vectorised sweep never changes *which* liftings define the
bounds.

The evaluator is total: it never abandons a sweep.  A cell whose value is
undefined — a NaN endpoint from an ``∞ − ∞`` corner case, or a lifting that
raises ``ValueError`` — gets ``[-∞, ∞]`` on that cell only, and every other
cell keeps its floats.  That is sound: ``[-∞, ∞]`` makes a guard possible but
never definite, turns a score into ``[0, ∞]`` after the meet with ``[0, ∞)``
and meets every non-empty target.  A program defect (an empty constant, an
unknown node, a missing leaf callback) raises ``ValueError`` or
``TypeError``.

Leaf resolution is pluggable: callers provide callbacks mapping a
sample-variable and/or atom-placeholder *index* to its per-cell bound
arrays, so the same evaluator serves sample-variable grids and atom-range
grids.

There is one evaluator.  A path's expressions are compiled into a flat
instruction program — from the node columns of a
:class:`~repro.symbolic.arena.PathTable` (:func:`compile_table_roots`,
cached per table attachment) or from materialised expression roots
(:func:`compile_expr_roots`) — and :class:`TableProgramEvaluator` executes
it lazily per cell grid through the one lifting kernel
(:func:`apply_primitive_cells`).  Shared sub-DAGs run once per sweep, and
repeated queries skip the compilation entirely.  ``exp`` and ``log``, like
every primitive without an array lifting here, always take their scalar
(libm) interval lifting cell by cell.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from ..distributions.continuous import _MAX_SQUARABLE, _SQRT_2PI, Beta
from ..intervals import REALS, Interval, get_primitive
from ..symbolic.arena import KIND_ATOM, KIND_CONST, KIND_PRIM, KIND_VAR
from ..symbolic.value import SAtom, SConst, SPrim, SVar, SymExpr

__all__ = [
    "TableProgramEvaluator",
    "apply_primitive_cells",
    "compile_expr_roots",
    "compile_table_roots",
    "vec_mul",
    "vec_product",
]

def vec_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise product under the measure-theoretic ``0 · inf = 0``.

    Overflow to ``±inf`` matches CPython float semantics and is sound for
    interval endpoints, so both warnings are suppressed.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        product = a * b
    return np.where((a == 0.0) | (b == 0.0), 0.0, product)


def vec_mul(alo: np.ndarray, ahi: np.ndarray, blo: np.ndarray, bhi: np.ndarray):
    """Interval multiplication ``[alo, ahi] · [blo, bhi]``, elementwise."""
    products = (
        vec_product(alo, blo),
        vec_product(alo, bhi),
        vec_product(ahi, blo),
        vec_product(ahi, bhi),
    )
    lo = np.minimum(np.minimum(products[0], products[1]), np.minimum(products[2], products[3]))
    hi = np.maximum(np.maximum(products[0], products[1]), np.maximum(products[2], products[3]))
    return lo, hi


def apply_primitive_cells(
    op: str,
    args: list[tuple[np.ndarray, np.ndarray]],
    count: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)`` arrays of primitive ``op`` applied to per-cell arg bounds.

    The interval-lifting kernel of :class:`TableProgramEvaluator`, whichever
    compiler produced the program.  A cell whose scalar lifting raises
    ``ValueError`` or returns the empty interval gets ``[-∞, ∞]``.
    """
    if op == "add":
        (alo, ahi), (blo, bhi) = args
        return alo + blo, ahi + bhi
    if op == "sub":
        (alo, ahi), (blo, bhi) = args
        return alo - bhi, ahi - blo
    if op == "neg":
        ((alo, ahi),) = args
        return -ahi, -alo
    if op == "mul":
        (alo, ahi), (blo, bhi) = args
        return vec_mul(alo, ahi, blo, bhi)
    if op == "min":
        (alo, ahi), (blo, bhi) = args
        return np.minimum(alo, blo), np.minimum(ahi, bhi)
    if op == "max":
        (alo, ahi), (blo, bhi) = args
        return np.maximum(alo, blo), np.maximum(ahi, bhi)
    if op == "abs":
        ((alo, ahi),) = args
        magnitude_lo = np.minimum(np.abs(alo), np.abs(ahi))
        magnitude_hi = np.maximum(np.abs(alo), np.abs(ahi))
        spans_zero = (alo <= 0.0) & (ahi >= 0.0)
        return np.where(spans_zero, 0.0, magnitude_lo), magnitude_hi
    if op == "square":
        ((alo, ahi),) = args
        lo, hi = vec_mul(alo, ahi, alo, ahi)
        spans_zero = (alo <= 0.0) & (ahi >= 0.0)
        square_hi = np.maximum(vec_product(alo, alo), vec_product(ahi, ahi))
        return np.where(spans_zero, 0.0, lo), np.where(spans_zero, square_hi, hi)
    kernel = _ARRAY_LIFTINGS.get(op)
    if kernel is not None:
        return kernel(args, count)
    # Every other primitive: apply its scalar interval lifting cell-wise.
    primitive = get_primitive(op)
    out_lo = np.empty(count)
    out_hi = np.empty(count)
    for cell in range(count):
        try:
            intervals = [Interval(float(alo[cell]), float(ahi[cell])) for alo, ahi in args]
            value = primitive.apply_interval(*intervals)
        except ValueError:
            # A NaN argument (an ``∞ − ∞`` corner case upstream) or an
            # invalid lifting result: the value is undefined on this cell.
            value = REALS
        if value.is_empty:
            value = REALS
        out_lo[cell] = value.lo
        out_hi[cell] = value.hi
    return out_lo, out_hi


def _invalid_arguments(args) -> np.ndarray:
    """Cells where some ``(lo, hi)`` argument is no interval: a NaN endpoint,
    or ``lo > hi`` other than the empty interval's ``(∞, -∞)``."""
    bad = np.zeros(args[0][0].shape, dtype=bool)
    for lo, hi in args:
        bad |= np.isnan(lo) | np.isnan(hi)
        bad |= (lo > hi) & ~((lo == math.inf) & (hi == -math.inf))
    return bad


def _widen(out_lo: np.ndarray, out_hi: np.ndarray, bad: np.ndarray):
    """``[-∞, ∞]`` on the ``bad`` cells, in place."""
    out_lo[bad] = -math.inf
    out_hi[bad] = math.inf
    return out_lo, out_hi


# ---------------------------------------------------------------------------
# Flattened per-cell liftings of the heavy density primitives
#
# The generic fallback above builds three Interval objects per cell and
# dispatches through the primitive registry — for a 50k-cell score sweep
# that is hundreds of thousands of allocations.  The kernels below replicate
# the scalar lifting's float operations *exactly* (same expressions, same
# libm calls, same edge-case order, Interval-construction validation
# included), just without the object churn — so the engine's bounds stay
# bit-identical while the per-cell cost drops by an order of magnitude.
# ---------------------------------------------------------------------------


def _normal_pdf_cells(args, count: int):
    """All cells of ``normal_pdf``: array plumbing, scalar ``math.exp``.

    The reference semantics is
    :meth:`repro.distributions.continuous.Normal.pdf_interval_params` as the
    generic loop applies it per cell; this kernel replicates its float
    operations exactly (pinned by ``tests/test_columnar.py``).  The interval
    plumbing (endpoint validation mirroring ``Interval.__post_init__``, the
    ``values - mean`` distance, its absolute value, the ``std`` meet) runs
    as exact IEEE array operations; only the density evaluations — whose
    ``math.exp`` must match libm bit-for-bit — run per cell.  A cell where
    the scalar lifting raises ``ValueError`` — an invalid argument, an
    ``∞ − ∞`` distance, a lower bound above the upper one — gets
    ``[-∞, ∞]``, as in the generic loop.
    """
    (mlo, mhi), (slo, shi), (vlo, vhi) = args
    bad = _invalid_arguments(args)
    out_lo = np.zeros(count)
    out_hi = np.zeros(count)
    with np.errstate(invalid="ignore", over="ignore"):
        # Any empty argument (the (inf, -inf) representation): the point 0.
        empty = ((vlo > vhi) | (mlo > mhi) | (slo > shi)) & ~bad
        sig_lo_arr = np.maximum(slo, 1e-300)
        std_empty = (sig_lo_arr > shi) & ~empty & ~bad  # meet with [1e-300, inf) empty
        out_hi[std_empty] = math.inf
        # distance = (values - mean).abs() — the scalar route only reaches
        # this for cells that passed the emptiness checks, so a NaN distance
        # (inf − inf) is undefined only on those cells.
        d_lo = vlo - mhi
        d_hi = vhi - mlo
        bad |= (np.isnan(d_lo) | np.isnan(d_hi)) & ~(empty | std_empty)
        active_mask = ~(empty | std_empty | bad)
        spans_zero = (d_lo <= 0.0) & (d_hi >= 0.0)
        abs_lo = np.abs(d_lo)
        abs_hi = np.abs(d_hi)
        d_min_arr = np.where(spans_zero, 0.0, np.minimum(abs_lo, abs_hi))
        d_max_arr = np.maximum(abs_lo, abs_hi)

    active = np.flatnonzero(active_mask).tolist()
    if not active:
        return _widen(out_lo, out_hi, bad)
    d_min_l = d_min_arr.tolist()
    d_max_l = d_max_arr.tolist()
    sig_lo_l = sig_lo_arr.tolist()
    sig_hi_l = shi.tolist()
    exp = math.exp
    isfinite = math.isfinite
    norm = _SQRT_2PI
    limit = _MAX_SQUARABLE
    for index in active:
        d_min = d_min_l[index]
        sig_lo = sig_lo_l[index]
        sig_hi = sig_hi_l[index]
        # Upper bound: smallest distance, best sigma.  A ratio beyond
        # ``limit`` has density 0 (as in the scalar route), and ``**`` would
        # raise on it.
        if isfinite(d_min):
            ratio = d_min / sig_lo
            first = exp(-0.5 * ratio ** 2) / (sig_lo * norm) if ratio <= limit else 0.0
            ratio = d_min / sig_hi
            second = exp(-0.5 * ratio ** 2) / (sig_hi * norm) if ratio <= limit else 0.0
        else:
            first = second = 0.0
        upper = first if first >= second else second
        if d_min > 0 and sig_lo <= d_min <= sig_hi:
            best = exp(-0.5 * (d_min / d_min) ** 2) / (d_min * norm)
            if best > upper:
                upper = best
        if d_min == 0.0:
            peak = 1.0 / (sig_lo * norm)
            if peak > upper:
                upper = peak
        # Lower bound: largest distance, worst sigma.
        d_max = d_max_l[index]
        if isfinite(d_max):
            ratio = d_max / sig_lo
            first = exp(-0.5 * ratio ** 2) / (sig_lo * norm) if ratio <= limit else 0.0
            ratio = d_max / sig_hi
            second = exp(-0.5 * ratio ** 2) / (sig_hi * norm) if ratio <= limit else 0.0
            lower = first if first <= second else second
        else:
            lower = 0.0
        if lower < 0.0:
            lower = 0.0
        if lower > upper:  # the scalar route's Interval validation raises
            lower, upper = -math.inf, math.inf
        out_lo[index] = lower
        out_hi[index] = upper
    return _widen(out_lo, out_hi, bad)


def _uniform_pdf_cells(args, count: int):
    """All cells of ``uniform_pdf``, as exact whole-array float operations.

    The reference semantics is
    ``repro.distributions.primitives._uniform_pdf_interval`` as the generic
    loop applies it per cell.  Every branch of that function — the empty /
    non-positive-width short-circuits, the conservative ``[0, 1/width.lo]``
    envelope, and the exact ``Uniform(low, high).pdf_interval(value)`` kernel
    for point parameters — reduces to IEEE subtractions, divisions and
    comparisons, so unlike ``normal_pdf`` there is no per-cell libm tail:
    the whole lifting vectorises without a scalar loop and stays
    bit-identical.  Cells where the scalar lifting raises ``ValueError`` get
    ``[-∞, ∞]``.
    """
    (llo, lhi), (hlo, hhi), (vlo, vhi) = args
    bad = _invalid_arguments(args)
    out_lo = np.zeros(count)
    out_hi = np.zeros(count)
    with np.errstate(invalid="ignore", divide="ignore"):
        # width = high - low; an empty argument makes the width empty, whose
        # hi (-inf) falls through the non-positive-width short-circuit below.
        empty_lh = (llo > lhi) | (hlo > hhi)
        width_lo = hlo - lhi
        width_hi = hhi - llo
        # inf − inf: the scalar Interval construction raises here.
        bad |= (np.isnan(width_lo) | np.isnan(width_hi) | (width_lo > width_hi)) & ~empty_lh
        active = ~empty_lh & (width_hi > 0.0)
        # General envelope: density at most 1/width.lo (∞ when the width can
        # vanish); the value argument does not sharpen this branch.
        max_density = np.where(width_lo <= 0.0, math.inf, 1.0 / width_lo)
        exact = (llo == lhi) & (hlo == hhi) & (hlo > llo)
        general = active & ~exact
        out_hi[general] = max_density[general]
        # Point parameters: Uniform(low.lo, high.lo).pdf_interval(value).
        # The division mirrors Uniform._density = 1/(high − low) exactly.
        kernel = active & exact
        density = np.where(kernel, 1.0 / (hlo - llo), 0.0)
        clip_lo = np.maximum(vlo, llo)
        clip_hi = np.minimum(vhi, hlo)
        hit = kernel & ~(clip_lo > clip_hi)
        out_hi[hit] = density[hit]
        # The lower bound is the density only when the support contains the
        # whole value interval (an empty value is contained vacuously, but
        # such cells already failed the clip test above).
        contained = hit & (llo <= vlo) & (vhi <= hlo)
        out_lo[contained] = density[contained]
    return _widen(out_lo, out_hi, bad)


def _beta_pdf_cells(args, count: int):
    """All cells of ``beta_pdf``: array plumbing, scalar kernel per point cell.

    The reference semantics is
    ``repro.distributions.primitives._beta_pdf_interval`` per cell: interval
    parameters yield the conservative ``[0, ∞]``, point parameters evaluate
    ``Beta(α, β).pdf_interval(value)`` — whose ``lgamma``-based normaliser
    must match libm bit-for-bit, so those cells run the scalar kernel.  The
    :class:`~repro.distributions.continuous.Beta` instances are memoised per
    parameter pair, which is where the speed-up comes from: a score sweep
    uses one or two parameter pairs across thousands of cells, and the three
    ``lgamma`` calls per construction dominate the generic loop.  A cell
    where the scalar lifting raises ``ValueError`` (an invalid argument, or a
    non-positive point parameter, which ``Beta.__init__`` rejects) gets
    ``[-∞, ∞]``.
    """
    (alo, ahi), (blo, bhi), (vlo, vhi) = args
    bad = _invalid_arguments(args)
    out_lo = np.zeros(count)
    out_hi = np.full(count, math.inf)
    point = (alo == ahi) & (blo == bhi) & ~bad
    bad |= point & ((alo <= 0.0) | (blo <= 0.0))
    cells = np.flatnonzero(point & ~bad)
    if cells.size == 0:
        return _widen(out_lo, out_hi, bad)
    alo_l = alo.tolist()
    blo_l = blo.tolist()
    vlo_l = vlo.tolist()
    vhi_l = vhi.tolist()
    distributions: dict = {}
    for index in cells.tolist():
        key = (alo_l[index], blo_l[index])
        dist = distributions.get(key)
        if dist is None:
            dist = distributions[key] = Beta(key[0], key[1])
        try:
            value = dist.pdf_interval(Interval(vlo_l[index], vhi_l[index]))
        except ValueError:
            value = REALS
        if value.is_empty:
            value = REALS
        out_lo[index] = value.lo
        out_hi[index] = value.hi
    return _widen(out_lo, out_hi, bad)


#: op name -> flattened array lifting (must be bit-identical to the scalar
#: interval lifting of the same primitive).
_ARRAY_LIFTINGS = {
    "normal_pdf": _normal_pdf_cells,
    "uniform_pdf": _uniform_pdf_cells,
    "beta_pdf": _beta_pdf_cells,
}


# ---------------------------------------------------------------------------
# Compiled programs and their evaluator
# ---------------------------------------------------------------------------

#: A callback resolving a *leaf index* (SVar/SAtom ``index``) to per-cell
#: ``(lo, hi)`` arrays.  Programs never hold leaf objects, so lookups are
#: keyed by the raw index instead of a node.
IndexLeafLookup = Callable[[int], tuple[np.ndarray, np.ndarray]]

#: Instruction tags of a compiled program.
_I_VAR = 0
_I_CONST = 1
_I_ATOM = 2
_I_PRIM = 3

#: ``table.scratch`` key of the cached ``tolist()`` walk columns (Python
#: lists index an order of magnitude faster than NumPy scalars, and the walk
#: is pure indexing).
_WALK_COLUMNS_KEY = "vectorize-walk-columns"


def _walk_columns(table):
    cols = table.scratch.get(_WALK_COLUMNS_KEY)
    if cols is None:
        cols = table.scratch.setdefault(
            _WALK_COLUMNS_KEY,
            (
                table.column("node_kind").tolist(),
                table.column("node_ia").tolist(),
                table.column("node_ib").tolist(),
                table.column("node_ic").tolist(),
                table.column("const_lo").tolist(),
                table.column("const_hi").tolist(),
                table.column("children").tolist(),
            ),
        )
    return cols


def compile_table_roots(table, root_ids) -> tuple[list[tuple], tuple[int, ...]]:
    """Compile table expression roots into a flat evaluation program.

    Returns ``(instrs, positions)``: a topologically-ordered instruction
    list — ``(_I_VAR, index)``, ``(_I_CONST, lo, hi)``, ``(_I_ATOM, index)``
    or ``(_I_PRIM, op, arg_positions)`` — plus the instruction position of
    every requested root (in request order).  Shared sub-DAGs across the
    roots compile to a single instruction, and roots listed earlier never
    depend on instructions emitted for later roots — evaluating the program
    lazily therefore short-circuits exactly like evaluating the roots one by
    one.

    Compilation walks the node columns once; callers cache the program (in
    ``table.scratch``) so repeated sweeps — every chunk and every query of
    one attachment — skip the walk entirely.  An empty interval constant
    raises ``ValueError`` and an unknown node kind ``TypeError``: both are
    defects of the program, since the type system reifies bottom as a
    non-empty interval.
    """
    kind, ia, ib, ic, const_lo, const_hi, children = _walk_columns(table)
    slots: dict[int, int] = {}
    instrs: list[tuple] = []
    for root in root_ids:
        if root in slots:
            continue
        stack: list[tuple[int, bool]] = [(root, False)]
        while stack:
            current, expanded = stack.pop()
            if current in slots:
                continue
            node_kind = kind[current]
            if node_kind == KIND_PRIM and not expanded:
                stack.append((current, True))
                start = ib[current]
                for child in children[start : start + ic[current]]:
                    stack.append((child, False))
                continue
            if node_kind == KIND_VAR:
                instrs.append((_I_VAR, ia[current]))
            elif node_kind == KIND_CONST:
                lo = const_lo[current]
                hi = const_hi[current]
                if lo > hi:  # the empty interval (mirrors Interval.is_empty)
                    raise ValueError(f"empty interval constant at node {current}")
                instrs.append((_I_CONST, lo, hi))
            elif node_kind == KIND_ATOM:
                instrs.append((_I_ATOM, ia[current]))
            elif node_kind == KIND_PRIM:
                start = ib[current]
                args = tuple(slots[child] for child in children[start : start + ic[current]])
                instrs.append((_I_PRIM, table.ops[ia[current]], args))
            else:
                raise TypeError(f"unknown node kind {node_kind} at node {current}")
            slots[current] = len(instrs) - 1
    return instrs, tuple(slots[root] for root in root_ids)


def compile_expr_roots(roots) -> tuple[list[tuple], tuple[int, ...]]:
    """Compile materialised expression roots into a flat evaluation program.

    The expression-tree analogue of :func:`compile_table_roots`, producing
    the same instruction format for :class:`TableProgramEvaluator`.  The
    linear analyzer compiles a path's score templates once and replays the
    program for every polytope sweep (2 readings × all targets); the box
    analyzer compiles a materialised path's constraint, score and result
    roots in the order :func:`compile_table_roots` gets them from a table.
    Sub-expressions shared *by object identity* across the roots
    compile to a single instruction; structurally-equal copies evaluate to
    identical arrays either way, so sharing never affects the floats.

    An empty interval constant raises ``ValueError`` and an unknown node
    type ``TypeError``, as in :func:`compile_table_roots`.  Callers caching
    the program must keep the root expressions alive alongside it — the
    instruction slots are keyed by ``id()`` during compilation only, but a
    cache entry that outlives its roots could be matched against recycled
    ids.
    """
    slots: dict[int, int] = {}
    instrs: list[tuple] = []
    for root in roots:
        if id(root) in slots:
            continue
        stack: list[tuple[SymExpr, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            key = id(node)
            if key in slots:
                continue
            if isinstance(node, SPrim) and not expanded:
                stack.append((node, True))
                for child in node.args:
                    stack.append((child, False))
                continue
            if isinstance(node, SVar):
                instrs.append((_I_VAR, node.index))
            elif isinstance(node, SConst):
                if node.interval.is_empty:
                    raise ValueError(f"empty interval constant {node!r}")
                instrs.append((_I_CONST, node.interval.lo, node.interval.hi))
            elif isinstance(node, SAtom):
                instrs.append((_I_ATOM, node.index))
            elif isinstance(node, SPrim):
                args = tuple(slots[id(child)] for child in node.args)
                instrs.append((_I_PRIM, node.op, args))
            else:
                raise TypeError(f"unknown expression node {type(node).__name__}")
            slots[key] = len(instrs) - 1
    return instrs, tuple(slots[id(root)] for root in roots)


class TableProgramEvaluator:
    """Lazy evaluation of a compiled table program over one cell grid.

    :meth:`eval_to` runs the instruction prefix up to a root position and
    returns its ``(lo, hi)`` arrays; a cell with a NaN endpoint at the root
    gets ``[-∞, ∞]`` (only in the returned arrays: instructions that read the
    root's slot see its raw values, as a recursive tree walk would).
    Laziness matters: callers request roots in program order, so a sweep
    that dies early (e.g. no cell satisfies the constraints) never executes
    the instructions of later roots — exactly the short-circuit behaviour of
    evaluating the roots one by one.  Each instruction runs at most once per
    grid, so sub-DAGs shared across a path's expressions are evaluated once
    per sweep.
    """

    __slots__ = ("instrs", "count", "var_leaf", "atom_leaf", "values")

    def __init__(
        self,
        instrs: list[tuple],
        count: int,
        var_leaf: Optional[IndexLeafLookup] = None,
        atom_leaf: Optional[IndexLeafLookup] = None,
    ) -> None:
        self.instrs = instrs
        self.count = count
        self.var_leaf = var_leaf
        self.atom_leaf = atom_leaf
        self.values: list[tuple[np.ndarray, np.ndarray]] = []

    def eval_to(self, position: int) -> tuple[np.ndarray, np.ndarray]:
        values = self.values
        if position >= len(values):
            instrs = self.instrs
            count = self.count
            # Overflow to ±inf matches CPython float arithmetic and is sound
            # for interval endpoints; NaN is checked at every root below.
            with np.errstate(over="ignore", invalid="ignore"):
                while len(values) <= position:
                    instr = instrs[len(values)]
                    tag = instr[0]
                    if tag == _I_PRIM:
                        args = [values[slot] for slot in instr[2]]
                        values.append(apply_primitive_cells(instr[1], args, count))
                    elif tag == _I_VAR:
                        if self.var_leaf is None:
                            raise TypeError("program reads a sample variable but has no var_leaf")
                        values.append(self.var_leaf(instr[1]))
                    elif tag == _I_CONST:
                        values.append((np.full(count, instr[1]), np.full(count, instr[2])))
                    else:
                        if self.atom_leaf is None:
                            raise TypeError("program reads a score atom but has no atom_leaf")
                        values.append(self.atom_leaf(instr[1]))
        lo, hi = values[position]
        undefined = np.isnan(lo) | np.isnan(hi)
        if undefined.any():
            return _widen(lo.copy(), hi.copy(), undefined)
        return lo, hi
