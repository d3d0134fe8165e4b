"""Linear interval trace semantics for a single symbolic path (Section 6.4).

Applicable when the path's constraints and return value are interval-linear
functions of the sample variables and every prior is a (bounded) uniform
distribution.  The path denotation becomes an integral of the score product
over a convex polytope:

* without scores it is a plain polytope volume (Qhull's float, see
  :meth:`~repro.polytope.Polytope.volume_bounds`);
* with scores, every score value is decomposed into a template over *linear
  atoms* (Appendix E.1); each atom's range over the polytope is bounded by an
  LP, split into chunks, and each chunk contributes
  ``volume(polytope ∩ chunk) · inf/sup(template over the chunk)``
  (Proposition 6.4).

Separate polytopes ``𝔓_lb`` / ``𝔓_ub`` realise the universal / existential
reading of constraints containing interval constants (introduced by
``approxFix``).

Three engineering refinements keep the geometry computations cheap without
affecting soundness:

* **variable elimination** — a sample variable that occurs only in
  single-variable constraints (e.g. the ``⊕_p`` branching draws) is factored
  out analytically as an exact probability mass instead of adding a polytope
  dimension;
* **cross-path geometry caching** — LP results, flatness checks and
  volumes are memoised in a :class:`GeometryCache` keyed on the polytope's
  *exact* H-representation bytes.  Every cached computation is a
  deterministic pure function of those bytes, so a hit returns the identical
  float64s a fresh computation would — which is what makes it sound to share
  the cache across the paths of a chunk (and, on the columnar route, across
  chunks and queries of a table attachment) without bounds depending on how
  paths are partitioned;
* **base-first flatness** — an empty or flat base polytope (Chebyshev
  radius ``≤ 1e-9``, the rule :meth:`~repro.polytope.Polytope.volume_bounds`
  applies to every cell) integrates to 0 at once: each combination cell lies
  inside its base, so every cell volume would be 0 too, and the atom LPs and
  cell volumes are skipped; and
* **batched LP kernels** — each polytope's constraint system is prepared
  once on the low-overhead HiGHS kernel (:mod:`repro.polytope.highs`) and
  all atom objectives sweep it in one batch (:class:`~repro.polytope.batch.
  BatchPolytope`); the score-combination loop pre-computes its constraint
  rows per atom chunk instead of per combination and looks volumes up by the
  restricted polytope's byte key without materialising it on a hit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..distributions import Uniform
from ..intervals import Interval
from ..polytope import BatchPolytope, Polytope
from ..symbolic.linear import LinearForm, decompose_score, extract_linear
from ..symbolic.paths import Relation, SymbolicPath
from ..symbolic.value import evaluate_with_atoms
from .config import AnalysisOptions
from .vectorize import (
    ScalarFallback,
    TableProgramEvaluator,
    checked_cells,
    compile_expr_roots,
    vec_mul,
)

__all__ = [
    "GeometryCache",
    "LinearPathAnalyzer",
    "linear_analysis_applicable",
    "analyze_path_linear",
    "analyze_table_linear",
    "linear_table_applicable",
]

_NON_NEGATIVE = Interval(0.0, math.inf)

#: upper-bound chunks with a score weight below this threshold skip the exact
#: volume computation (their full prior mass is added instead, which is sound)
_NEGLIGIBLE_WEIGHT = 1e-10


def linear_analysis_applicable(path: SymbolicPath) -> bool:
    """Whether the optimised linear semantics can handle this path."""
    if not path.is_linear:
        return False
    for dist in path.distributions:
        if not isinstance(dist, Uniform):
            return False
        if not dist.support().is_bounded:
            return False
    return True


# ----------------------------------------------------------------------
# Constraint translation (universal vs existential readings)
# ----------------------------------------------------------------------

def _upper_row(form: LinearForm, limit: float, dimension: int, universal: bool) -> Optional[tuple[list[float], float]]:
    """Row for ``form ≤ limit``; ``None`` = unsatisfiable, empty row = trivially true."""
    constant = form.constant.hi if universal else form.constant.lo
    rhs = limit - constant
    dense = form.dense_row(dimension)
    if math.isinf(rhs) or not any(dense):
        # A variable-free constraint: decide it outright.
        return ([], rhs) if rhs >= 0 else None
    return dense, rhs


def _lower_row(form: LinearForm, limit: float, dimension: int, universal: bool) -> Optional[tuple[list[float], float]]:
    """Row for ``form ≥ limit`` (encoded as ``-form ≤ -limit``)."""
    constant = form.constant.lo if universal else form.constant.hi
    rhs = constant - limit
    dense = form.dense_row(dimension)
    if math.isinf(rhs) or not any(dense):
        return ([], rhs) if rhs >= 0 else None
    return [-c for c in dense], rhs


def _rows_for_relation(
    form: LinearForm, relation: str, dimension: int, universal: bool
) -> Optional[list[tuple[list[float], float]]]:
    """Rows for ``form ⊲⊳ 0`` under the requested reading (``None`` = unsat)."""
    if relation in (Relation.LEQ, Relation.LT):
        row = _upper_row(form, 0.0, dimension, universal)
    else:
        row = _lower_row(form, 0.0, dimension, universal)
    if row is None:
        return None
    return [row] if row[0] else []


def _rows_for_target(
    form: LinearForm, target: Interval, dimension: int, universal: bool
) -> Optional[list[tuple[list[float], float]]]:
    """Rows restricting the result value to ``target`` (⊆ for lb, ∩≠∅ for ub)."""
    rows: list[tuple[list[float], float]] = []
    if math.isfinite(target.hi):
        row = _upper_row(form, target.hi, dimension, universal)
        if row is None:
            return None
        if row[0]:
            rows.append(row)
    if math.isfinite(target.lo):
        row = _lower_row(form, target.lo, dimension, universal)
        if row is None:
            return None
        if row[0]:
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Variable elimination
# ----------------------------------------------------------------------

def _single_variable_interval(
    form: LinearForm, relation: str, universal: bool
) -> Optional[Interval]:
    """Allowed values of ``α`` for a single-variable constraint ``c·α + k ⊲⊳ 0``."""
    ((_, coeff),) = form.coeffs
    constant = form.constant
    if relation in (Relation.LEQ, Relation.LT):
        bound_constant = constant.hi if universal else constant.lo
        if math.isinf(bound_constant):
            return None if bound_constant > 0 else Interval(-math.inf, math.inf)
        # c·α ≤ -k
        limit = -bound_constant / coeff
        return Interval(-math.inf, limit) if coeff > 0 else Interval(limit, math.inf)
    bound_constant = constant.lo if universal else constant.hi
    if math.isinf(bound_constant):
        return Interval(-math.inf, math.inf) if bound_constant > 0 else None
    limit = -bound_constant / coeff
    return Interval(limit, math.inf) if coeff > 0 else Interval(-math.inf, limit)


@dataclass
class _Reduction:
    """Result of splitting the path variables into polytope vs eliminated ones."""

    kept: list[int]
    index_map: Dict[int, int]
    factor_lower: float
    factor_upper: float
    supports: list[Interval]
    density: float


def _reduce_variables(
    distributions: Sequence,
    constraint_forms: Sequence[tuple[LinearForm, str]],
    protected: set[int],
) -> _Reduction:
    """Factor out variables that occur only in single-variable constraints."""
    single_constraints: Dict[int, list[tuple[LinearForm, str]]] = {}
    multi_vars: set[int] = set(protected)
    for form, relation in constraint_forms:
        variables = form.variables()
        if len(variables) == 1:
            (index,) = tuple(variables)
            single_constraints.setdefault(index, []).append((form, relation))
        else:
            multi_vars.update(variables)

    factor_lower = 1.0
    factor_upper = 1.0
    kept: list[int] = []
    for index in range(len(distributions)):
        dist = distributions[index]
        if index in multi_vars or (index not in single_constraints and index in protected):
            kept.append(index)
            continue
        if index not in single_constraints and index not in protected:
            # Unconstrained and unused: integrates to total mass 1.
            continue
        allowed_lower = Interval(-math.inf, math.inf)
        allowed_upper = Interval(-math.inf, math.inf)
        for form, relation in single_constraints[index]:
            lower_piece = _single_variable_interval(form, relation, universal=True)
            upper_piece = _single_variable_interval(form, relation, universal=False)
            allowed_lower = allowed_lower.meet(lower_piece) if lower_piece else Interval.empty()
            allowed_upper = allowed_upper.meet(upper_piece) if upper_piece else Interval.empty()
        factor_lower *= dist.measure(allowed_lower.meet(dist.support()))
        factor_upper *= dist.measure(allowed_upper.meet(dist.support()))

    index_map = {old: new for new, old in enumerate(kept)}
    supports = [distributions[old].support() for old in kept]
    density = 1.0
    for old in kept:
        dist = distributions[old]
        assert isinstance(dist, Uniform)
        density *= 1.0 / (dist.high - dist.low)
    return _Reduction(
        kept=kept,
        index_map=index_map,
        factor_lower=factor_lower,
        factor_upper=factor_upper,
        supports=supports,
        density=density,
    )


def _remap(form: LinearForm, index_map: Dict[int, int]) -> LinearForm:
    return LinearForm(
        tuple((index_map[i], c) for i, c in form.coeffs),
        form.constant,
    )


# ----------------------------------------------------------------------
# Cross-path geometry caching
# ----------------------------------------------------------------------

#: A geometry-cache key: the exact ``(A.tobytes(), b.tobytes())`` of a
#: polytope's H-representation (:meth:`Polytope.cache_key`).
_GeometryKey = tuple[bytes, bytes]


class GeometryCache:
    """Memoises geometry computations keyed on exact H-representation bytes.

    Four stores share one keying discipline — the raw float64 bytes of the
    polytope's ``(A, b)``, never rounded (an earlier revision rounded the key
    to 12 decimals, which can collide *distinct* polytopes and hand one the
    other's volume):

    * ``volumes`` — :meth:`Polytope.volume_bounds` results,
    * ``full_dimension`` — :meth:`Polytope.is_full_dimensional` results: one
      Chebyshev solve per polytope settles whether it is empty or flat
      (volume 0, for it and for every cell inside it),
    * ``atom_bounds`` — batched atom LP sweeps (keyed additionally on the
      dense objective bytes), and
    * ``programs`` — compiled score-template programs (keyed on the template
      tuple's identity; entries keep the templates alive so a recycled
      ``id()`` can never alias).

    **Sharing invariant**: every cached computation is a deterministic pure
    function of its key, so a hit returns the identical float64s a fresh
    computation would.  That makes one cache safe to share across the paths
    of a chunk, across chunks, and across queries — bounds never depend on
    which path populated an entry, hence not on chunk boundaries either
    (pinned by ``tests/test_linear_fast_path.py``).  Concurrent use from the
    thread backend is benign for the same reason: racing writers insert
    identical values.

    ``volume_hits`` / ``volume_misses`` (and the aggregate ``hits`` /
    ``misses``) feed the perf benchmarks; they have no semantic role.
    """

    __slots__ = (
        "volumes",
        "full_dimension",
        "atom_bounds",
        "programs",
        "volume_hits",
        "volume_misses",
        "hits",
        "misses",
    )

    def __init__(self) -> None:
        self.volumes: Dict[_GeometryKey, Interval] = {}
        self.full_dimension: Dict[_GeometryKey, bool] = {}
        self.atom_bounds: Dict[tuple[_GeometryKey, bytes], tuple] = {}
        self.programs: Dict[int, tuple] = {}
        self.volume_hits = 0
        self.volume_misses = 0
        self.hits = 0
        self.misses = 0

    def volume(self, polytope: Polytope) -> Interval:
        """Volume bounds of ``polytope`` (:meth:`Polytope.volume_bounds`), memoised."""
        key = polytope.cache_key()
        value = self.volumes.get(key)
        if value is None:
            self.misses += 1
            self.volume_misses += 1
            value = self.volumes[key] = polytope.volume_bounds()
        else:
            self.hits += 1
            self.volume_hits += 1
        return value

    def volume_restricted(
        self,
        base: Polytope,
        key: _GeometryKey,
        rows: Sequence[Sequence[float]],
        rhs: Sequence[float],
    ) -> Interval:
        """Volume bounds of ``base ∩ {rows·x ≤ rhs}`` under a precomputed key.

        ``key`` must equal ``base.add_constraints(rows, rhs).cache_key()`` —
        callers assemble it by concatenating the base polytope's bytes with
        the rows' float64 bytes (``np.vstack``/``np.concatenate`` preserve
        C-order, so the concatenation is exactly the restricted
        H-representation's bytes).  On a hit the restricted polytope is never
        materialised, which is what the combination loop buys here.
        """
        value = self.volumes.get(key)
        if value is None:
            self.misses += 1
            self.volume_misses += 1
            restricted = base.add_constraints(rows, rhs) if len(rows) else base
            value = self.volumes[key] = restricted.volume_bounds()
        else:
            self.hits += 1
            self.volume_hits += 1
        return value

    def full_dimensional(self, polytope: Polytope) -> bool:
        """Whether ``polytope`` can have non-zero volume, memoised.

        ``False`` (empty, or Chebyshev radius ``≤ 1e-9``) means every subset
        of ``polytope`` has :meth:`Polytope.volume_bounds` exactly 0.  A
        failed LP reads as ``True``, so a solver error never zeroes a bound.
        """
        key = polytope.cache_key()
        value = self.full_dimension.get(key)
        if value is None:
            self.misses += 1
            value = self.full_dimension[key] = polytope.is_full_dimensional()
        else:
            self.hits += 1
        return value

    def bound_atom_rows(
        self, polytope: Polytope, dense_rows: Sequence[Sequence[float]], rows_key: bytes
    ) -> tuple:
        """Batched ranges of the atom objectives over ``polytope``, memoised.

        ``rows_key`` is the concatenated float64 bytes of ``dense_rows``;
        the full key pairs it with the polytope's H-representation bytes.
        """
        key = (polytope.cache_key(), rows_key)
        value = self.atom_bounds.get(key)
        if value is None:
            self.misses += 1
            value = self.atom_bounds[key] = tuple(
                BatchPolytope(polytope).bound_rows(dense_rows)
            )
        else:
            self.hits += 1
        return value

    def template_program(self, templates):
        """Compiled evaluation program of the score templates (``None`` when
        a template cannot be expressed as a program — the factor sweep then
        walks the expression trees as before)."""
        key = id(templates)
        entry = self.programs.get(key)
        if entry is None or entry[0] is not templates:
            try:
                program = compile_expr_roots(
                    [decomposition.template for decomposition in templates]
                )
            except ScalarFallback:
                program = None
            entry = self.programs[key] = (templates, program)
        return entry[1]

    def stats(self) -> Dict[str, int]:
        """Counter snapshot for the perf benchmarks."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "volume_hits": self.volume_hits,
            "volume_misses": self.volume_misses,
            "unique_volumes": len(self.volumes),
            "unique_full_dimension": len(self.full_dimension),
            "unique_atom_sweeps": len(self.atom_bounds),
        }


# ----------------------------------------------------------------------
# Main analysis
# ----------------------------------------------------------------------

def analyze_path_linear(
    path: SymbolicPath,
    targets: Sequence[Interval],
    options: AnalysisOptions,
    cache: Optional[GeometryCache] = None,
) -> list[tuple[float, float]]:
    """Bounds on ``⟦Ψ⟧_lb(U)`` / ``⟦Ψ⟧_ub(U)`` for every target ``U``.

    ``cache`` optionally shares a :class:`GeometryCache` across calls (see
    its sharing invariant); by default each path gets a fresh one.
    """
    result_form = extract_linear(path.result)
    assert result_form is not None, "analyze_path_linear requires a linear result"
    constraint_forms = path.linear_constraints()

    # Decompose all scores over a shared atom list.
    atoms: list[LinearForm] = []
    templates = [decompose_score(score, atoms) for score in path.scores]
    return _analyze_linear_forms(
        result_form, constraint_forms, atoms, templates, path.distributions,
        targets, options, cache,
    )


def _analyze_linear_forms(
    result_form: LinearForm,
    constraint_forms: Sequence[tuple[LinearForm, str]],
    atoms: Sequence[LinearForm],
    templates,
    distributions: Sequence,
    targets: Sequence[Interval],
    options: AnalysisOptions,
    cache: Optional[GeometryCache] = None,
) -> list[tuple[float, float]]:
    """The linear semantics at the forms level (paths already decomposed).

    Both routes feed this core — :func:`analyze_path_linear` extracts the
    forms from a materialised path, :func:`analyze_table_linear` from the
    columnar table (with per-table memoisation) — so their bounds are
    bit-identical by construction.  The inputs are treated as read-only.
    """
    cache = cache if cache is not None else GeometryCache()
    protected = set(result_form.variables())
    for atom in atoms:
        protected.update(atom.variables())
    reduction = _reduce_variables(distributions, constraint_forms, protected)
    dimension = len(reduction.kept)
    if reduction.factor_upper <= 0.0:
        return [(0.0, 0.0) for _ in targets]

    result_form = _remap(result_form, reduction.index_map)
    constraint_forms = [
        (_remap(form, reduction.index_map), relation)
        for form, relation in constraint_forms
        if all(index in reduction.index_map for index in form.variables())
    ]
    atoms = [_remap(atom, reduction.index_map) for atom in atoms]

    base = Polytope.from_box(reduction.supports)
    lower_poly: Optional[Polytope] = base
    upper_poly: Optional[Polytope] = base
    for form, relation in constraint_forms:
        for universal in (True, False):
            rows = _rows_for_relation(form, relation, dimension, universal)
            if universal:
                if rows is None:
                    lower_poly = None
                elif rows and lower_poly is not None:
                    lower_poly = lower_poly.add_constraints(
                        [r for r, _ in rows], [b for _, b in rows]
                    )
            else:
                if rows is None:
                    upper_poly = None
                elif rows and upper_poly is not None:
                    upper_poly = upper_poly.add_constraints(
                        [r for r, _ in rows], [b for _, b in rows]
                    )

    lower = [0.0] * len(targets)
    upper = [0.0] * len(targets)
    if (
        options.prune_empty_paths
        and upper_poly is not None
        and not cache.full_dimensional(upper_poly)
    ):
        # Flat or empty: every target polytope lies inside ``upper_poly`` (and
        # ``lower_poly`` inside it), so every volume below would be 0.
        return list(zip(lower, upper))

    for index, target in enumerate(targets):
        if lower_poly is not None and reduction.factor_lower > 0.0:
            rows = _rows_for_target(result_form, target, dimension, universal=True)
            if rows is not None:
                restricted = (
                    lower_poly.add_constraints([r for r, _ in rows], [b for _, b in rows])
                    if rows
                    else lower_poly
                )
                lower[index] = reduction.factor_lower * _integrate(
                    restricted, templates, atoms, reduction.density, options, cache, is_lower=True
                )
        if upper_poly is not None:
            rows = _rows_for_target(result_form, target, dimension, universal=False)
            if rows is not None:
                restricted = (
                    upper_poly.add_constraints([r for r, _ in rows], [b for _, b in rows])
                    if rows
                    else upper_poly
                )
                upper[index] = reduction.factor_upper * _integrate(
                    restricted, templates, atoms, reduction.density, options, cache, is_lower=False
                )
    return list(zip(lower, upper))


def _chunk_entry(
    atom: LinearForm, chunk: Interval, dimension: int, is_lower: bool
) -> Optional[tuple]:
    """Constraint rows pinning ``atom`` into ``chunk``, with their cache bytes.

    Returns ``None`` when the chunk is unsatisfiable under the requested
    reading, ``()`` when it holds trivially (no rows), and otherwise
    ``(rows, rhs, a_bytes, b_bytes)`` where the byte strings are the exact
    float64 encoding the rows append to a polytope's H-representation — the
    combination loop concatenates them into geometry-cache keys without
    materialising the restricted polytope.  The row construction (and its
    upper-then-lower order) is exactly the one the per-combination loop used,
    just hoisted: the rows depend only on ``(atom, chunk)``, never on which
    combination the chunk appears in.
    """
    rows: list[list[float]] = []
    rhs: list[float] = []
    if math.isfinite(chunk.hi):
        row = _upper_row(atom, chunk.hi, dimension, universal=is_lower)
        if row is None:
            return None
        if row[0]:
            rows.append(row[0])
            rhs.append(row[1])
    if math.isfinite(chunk.lo):
        row = _lower_row(atom, chunk.lo, dimension, universal=is_lower)
        if row is None:
            return None
        if row[0]:
            rows.append(row[0])
            rhs.append(row[1])
    if not rows:
        return ()
    a_bytes = b"".join(np.asarray(row, dtype=float).tobytes() for row in rows)
    b_bytes = np.asarray(rhs, dtype=float).tobytes()
    return rows, rhs, a_bytes, b_bytes


def _integrate(
    polytope: Polytope,
    templates,
    atoms: list[LinearForm],
    density: float,
    options: AnalysisOptions,
    cache: GeometryCache,
    is_lower: bool,
) -> float:
    """Bound ``∫_polytope ∏ templates(atoms) dα`` from below or above.

    The combination sweep is batched: all atom objectives are bounded over
    the polytope in one prepared-LP sweep, the constraint rows are built once
    per atom chunk instead of once per combination, and every volume is
    looked up in the shared :class:`GeometryCache` by the restricted
    polytope's byte key (assembled from the precomputed row bytes) so a hit
    never materialises the polytope.

    An empty or flat polytope returns 0 before any atom LP: every cell lies
    inside it, so every cell volume is 0.  ``tests/test_linear_fast_path.py``
    pins this loop against :func:`_integrate_reference`, the pre-batching
    scalar original: bit for bit on full-dimensional polytopes; on flat ones
    the reference may add negligible-weight terms (``< 1e-10`` per cell) to
    its upper bound that this shortcut drops.
    """
    if not templates:
        volume = cache.volume(polytope)
        return density * (volume.lo if is_lower else volume.hi)
    if not cache.full_dimensional(polytope):
        return 0.0

    # Bound every atom over the polytope — one batched LP sweep over the
    # polytope's prepared constraint system — and split each range into
    # chunks.
    dimension = polytope.dimension
    dense_rows = [atom.dense_row(dimension) for atom in atoms]
    rows_key = b"".join(np.asarray(row, dtype=float).tobytes() for row in dense_rows)
    bases = cache.bound_atom_rows(polytope, dense_rows, rows_key)
    atom_ranges: list[list[Interval]] = []
    for atom, base in zip(atoms, bases):
        if base is None:
            return 0.0
        atom_ranges.append(_split_interval(base + atom.constant, options.score_splits))

    # Respect the combination budget by coarsening atoms until it fits.
    while _combination_count(atom_ranges) > options.max_score_combinations:
        widest = max(range(len(atom_ranges)), key=lambda i: len(atom_ranges[i]))
        if len(atom_ranges[widest]) <= 1:
            break
        hull = Interval(atom_ranges[widest][0].lo, atom_ranges[widest][-1].hi)
        atom_ranges[widest] = _split_interval(hull, max(1, len(atom_ranges[widest]) // 2))

    # Pre-compute the weight factor of every atom-range combination in one
    # vectorised sweep over the whole product grid (the scalar per-combination
    # branch below is the historical fallback and remains the reference
    # semantics — the sweep reproduces its floats bit-for-bit).
    factors = None
    if options.vectorized_scores and atoms:
        factors = _vectorized_factors(
            atom_ranges, templates, is_lower, options.vectorized_transcendentals,
            program=cache.template_program(templates),
        )

    # Pre-compute each chunk's constraint rows and their cache-key bytes once
    # per (atom, chunk) — the product loop then only concatenates.
    per_atom = [
        [(chunk, _chunk_entry(atom, chunk, dimension, is_lower)) for chunk in chunks]
        for atom, chunks in zip(atoms, atom_ranges)
    ]

    base_a_key, base_b_key = polytope.cache_key()
    total = 0.0
    for combo_index, combination in enumerate(itertools.product(*per_atom)):
        if factors is not None and factors[combo_index] == 0.0:
            # A zero weight annihilates the chunk's contribution regardless of
            # feasibility, so the constraint rows and the volume computation
            # can both be skipped.  (The scalar branch below cannot hoist this
            # check: computing the weight is what the sweep made cheap.)
            continue
        if any(entry is None for _, entry in combination):
            continue
        if factors is not None:
            factor = float(factors[combo_index])
        else:
            weight = Interval.point(1.0)
            for template in templates:
                score_bounds = evaluate_with_atoms(
                    template.template, [chunk for chunk, _ in combination]
                )
                score_bounds = score_bounds.meet(_NON_NEGATIVE)
                if score_bounds.is_empty:
                    score_bounds = Interval.point(0.0)
                weight = weight * score_bounds
            factor = max(0.0, weight.lo if is_lower else weight.hi)
        if factor == 0.0:
            continue
        if not is_lower and math.isfinite(factor) and factor < _NEGLIGIBLE_WEIGHT:
            # ``density · volume`` never exceeds the prior mass 1 of the chunk,
            # so adding the weight itself is a sound (and cheap) upper bound —
            # this skips a volume computation for far-tail chunks.
            total += factor
            continue
        rows: list[list[float]] = []
        rhs: list[float] = []
        a_parts = [base_a_key]
        b_parts = [base_b_key]
        for _, entry in combination:
            if entry:
                rows.extend(entry[0])
                rhs.extend(entry[1])
                a_parts.append(entry[2])
                b_parts.append(entry[3])
        volume = cache.volume_restricted(
            polytope, (b"".join(a_parts), b"".join(b_parts)), rows, rhs
        )
        volume_value = volume.lo if is_lower else volume.hi
        if volume_value <= 0.0:
            continue
        total += density * volume_value * factor
        if math.isinf(total):
            return math.inf
    return total


def _integrate_reference(
    polytope: Polytope,
    templates,
    atoms: list[LinearForm],
    density: float,
    options: AnalysisOptions,
    is_lower: bool,
) -> float:
    """The pre-batching per-combination integration loop, kept as a test
    oracle.

    Bounds atoms with one scalar LP pair each, rebuilds the constraint rows
    per combination, evaluates every score template with the scalar interval
    evaluator and computes every chunk volume directly — no geometry cache,
    no vectorised factor sweep, no prepared-LP batching.
    ``tests/test_linear_fast_path.py`` asserts :func:`_integrate` reproduces
    this loop's floats bit for bit; production routes never call it.
    """
    if not templates:
        volume = polytope.volume_bounds()
        return density * (volume.lo if is_lower else volume.hi)
    if polytope.is_empty():
        return 0.0

    atom_ranges: list[list[Interval]] = []
    for atom in atoms:
        base = polytope.bound_linear(atom.as_dense(polytope.dimension))
        if base is None:
            return 0.0
        atom_ranges.append(_split_interval(base + atom.constant, options.score_splits))

    while _combination_count(atom_ranges) > options.max_score_combinations:
        widest = max(range(len(atom_ranges)), key=lambda i: len(atom_ranges[i]))
        if len(atom_ranges[widest]) <= 1:
            break
        hull = Interval(atom_ranges[widest][0].lo, atom_ranges[widest][-1].hi)
        atom_ranges[widest] = _split_interval(hull, max(1, len(atom_ranges[widest]) // 2))

    dimension = polytope.dimension
    total = 0.0
    for combination in itertools.product(*atom_ranges):
        rows: list[list[float]] = []
        rhs: list[float] = []
        feasible = True
        for atom, chunk in zip(atoms, combination):
            if math.isfinite(chunk.hi):
                row = _upper_row(atom, chunk.hi, dimension, universal=is_lower)
                if row is None:
                    feasible = False
                    break
                if row[0]:
                    rows.append(row[0])
                    rhs.append(row[1])
            if math.isfinite(chunk.lo):
                row = _lower_row(atom, chunk.lo, dimension, universal=is_lower)
                if row is None:
                    feasible = False
                    break
                if row[0]:
                    rows.append(row[0])
                    rhs.append(row[1])
        if not feasible:
            continue
        weight = Interval.point(1.0)
        for template in templates:
            score_bounds = evaluate_with_atoms(template.template, list(combination))
            score_bounds = score_bounds.meet(_NON_NEGATIVE)
            if score_bounds.is_empty:
                score_bounds = Interval.point(0.0)
            weight = weight * score_bounds
        factor = max(0.0, weight.lo if is_lower else weight.hi)
        if factor == 0.0:
            continue
        if not is_lower and math.isfinite(factor) and factor < _NEGLIGIBLE_WEIGHT:
            total += factor
            continue
        chunk_polytope = polytope.add_constraints(rows, rhs) if rows else polytope
        volume = chunk_polytope.volume_bounds()
        volume_value = volume.lo if is_lower else volume.hi
        if volume_value <= 0.0:
            continue
        total += density * volume_value * factor
        if math.isinf(total):
            return math.inf
    return total


def _vectorized_factors(
    atom_ranges: list[list[Interval]],
    templates,
    is_lower: bool,
    transcendentals: bool = False,
    program=None,
):
    """Weight factor of every atom-range combination, in one meshgrid sweep.

    Builds the full product grid of atom chunks (in :func:`itertools.product`
    order: the last atom varies fastest) as ``(combinations × atoms)`` bound
    arrays and evaluates every score template over it with the shared
    vectorised interval evaluator.  The result is bit-identical to the scalar
    per-combination loop — exact IEEE operations are lifted wholesale and
    everything else falls back to the scalar interval lifting per cell — so
    enabling ``vectorized_scores`` never moves a bound.  Returns ``None``
    when the sweep cannot express a template (the caller then runs the
    scalar loop).

    ``program`` optionally supplies the templates pre-compiled by
    :func:`~repro.analysis.vectorize.compile_expr_roots`
    (:meth:`GeometryCache.template_program` caches them): the sweep then
    replays flat instructions instead of re-walking the expression trees,
    through the same lifting kernel — identical arrays either way.
    """
    if not templates:
        return None
    count = _combination_count(atom_ranges)
    if count <= 1:
        return None
    lo_grid = np.meshgrid(
        *[np.array([chunk.lo for chunk in cells]) for cells in atom_ranges], indexing="ij"
    )
    hi_grid = np.meshgrid(
        *[np.array([chunk.hi for chunk in cells]) for cells in atom_ranges], indexing="ij"
    )
    combos_lo = np.stack([grid.reshape(-1) for grid in lo_grid], axis=1)
    combos_hi = np.stack([grid.reshape(-1) for grid in hi_grid], axis=1)

    def atom_leaf(leaf):
        return combos_lo[:, leaf.index], combos_hi[:, leaf.index]

    try:
        weight_lo = np.ones(count)
        weight_hi = np.ones(count)
        evaluator = None
        if program is not None:
            evaluator = TableProgramEvaluator(
                program[0],
                count,
                atom_leaf=lambda index: (combos_lo[:, index], combos_hi[:, index]),
                transcendentals=transcendentals,
            )
        for position, template in enumerate(templates):
            if evaluator is not None:
                score_lo, score_hi = evaluator.eval_to(program[1][position])
            else:
                score_lo, score_hi = checked_cells(
                    template.template, count, atom_leaf=atom_leaf,
                    transcendentals=transcendentals,
                )
            # meet with [0, inf); an empty meet collapses to the point 0.
            score_lo = np.maximum(score_lo, 0.0)
            empty = score_hi < score_lo
            score_lo = np.where(empty, 0.0, score_lo)
            score_hi = np.where(empty, 0.0, score_hi)
            weight_lo, weight_hi = vec_mul(weight_lo, weight_hi, score_lo, score_hi)
        if np.isnan(weight_lo).any() or np.isnan(weight_hi).any():
            raise ScalarFallback
    except ScalarFallback:
        return None
    return np.maximum(0.0, weight_lo if is_lower else weight_hi)


# ----------------------------------------------------------------------
# Columnar fast path
# ----------------------------------------------------------------------

#: Key of the linear analyzer's memo space inside ``PathTable.scratch``.
_TABLE_SCRATCH_KEY = "linear-analyzer"


def _table_cache(table) -> dict:
    """This analyzer's per-table memo: forms, score decompositions, dist checks.

    Living in ``table.scratch``, the memo survives across chunks and queries
    of one table attachment — a worker that analysed chunk 3 of a query has
    already extracted the linear forms chunk 7 (and the next query) needs.
    The ``geometry`` entry is the attachment's shared :class:`GeometryCache`:
    its exact-bytes keying (see the class docstring) is what makes volumes,
    feasibility checks and atom LP sweeps reusable across paths, chunks and
    queries without bounds depending on chunk boundaries.  The scratch memo
    travels with the attachment under every transport (arena segments reuse
    the worker's table object, so the memo warms up across chunks there
    too).
    """
    cache = table.scratch.get(_TABLE_SCRATCH_KEY)
    if cache is None:
        cache = table.scratch.setdefault(_TABLE_SCRATCH_KEY, {
            "forms": {},  # node id -> Optional[LinearForm]
            "scores": {},  # tuple of score node ids -> (atoms, templates)
            "dists": {},  # dist id -> bounded-uniform?
            "applicable": {},  # path index -> bool (the predicate is options-free)
            "path_dists": {},  # path index -> tuple[Distribution, ...]
            "geometry": GeometryCache(),  # cross-path geometry memo
        })
    return cache


def _path_distributions(table, index: int, cache: dict):
    distributions = cache["path_dists"].get(index)
    if distributions is None:
        distributions = cache["path_dists"][index] = table.path_distributions(index)
    return distributions


def _table_form(table, node_id: int, forms: dict) -> Optional[LinearForm]:
    """``extract_linear`` of a table node, memoised per node id."""
    if node_id in forms:
        return forms[node_id]
    form = extract_linear(table.decode_expr(node_id))
    forms[node_id] = form
    return form


def linear_table_applicable(table, index: int, options: AnalysisOptions) -> bool:
    """Table-level :func:`linear_analysis_applicable` (same predicate).

    Memoised per path index — the predicate depends only on the path
    structure, so routing repeated queries over one attachment is a dict
    hit.
    """
    cache = _table_cache(table)
    known = cache["applicable"].get(index)
    if known is not None:
        return known

    def compute() -> bool:
        dist_ok = cache["dists"]
        for raw_id in table.path_dist_ids(index):
            dist_id = int(raw_id)
            ok = dist_ok.get(dist_id)
            if ok is None:
                dist = table.distributions[dist_id]
                ok = isinstance(dist, Uniform) and dist.support().is_bounded
                dist_ok[dist_id] = ok
            if not ok:
                return False
        forms = cache["forms"]
        if _table_form(table, table.result_id(index), forms) is None:
            return False
        expr_ids, _ = table.constraint_ids(index)
        return all(
            _table_form(table, int(expr_id), forms) is not None for expr_id in expr_ids
        )

    result = compute()
    cache["applicable"][index] = result
    return result


def analyze_table_linear(
    table,
    index: int,
    targets: Sequence[Interval],
    options: AnalysisOptions,
    cache: Optional[dict] = None,
) -> list[tuple[float, float]]:
    """Bounds for path ``index`` from the table, without materialising it.

    Linear forms (per node id) and score decompositions (per score-id
    tuple) come from the per-table memo, so across the chunks and repeated
    queries of one attachment each unique expression is extracted and
    decomposed exactly once.  The polytope integration itself runs the same
    forms-level core as the materialised route — bounds are bit-identical.
    """
    cache = cache if cache is not None else _table_cache(table)
    prepared = cache.setdefault("prepared", {}).get(index)
    if prepared is None:
        forms = cache["forms"]
        result_form = _table_form(table, table.result_id(index), forms)
        assert result_form is not None, "analyze_table_linear requires a linear result"
        expr_ids, rel_ids = table.constraint_ids(index)
        constraint_forms: list[tuple[LinearForm, str]] = []
        for expr_id, rel_id in zip(expr_ids, rel_ids):
            form = _table_form(table, int(expr_id), forms)
            if form is None:
                raise ValueError("path has a non-linear constraint")
            constraint_forms.append((form, Relation.ALL[int(rel_id)]))

        score_key = tuple(int(score_id) for score_id in table.score_ids(index))
        entry = cache["scores"].get(score_key)
        if entry is None:
            atoms: list[LinearForm] = []
            templates = tuple(
                decompose_score(table.decode_expr(score_id), atoms) for score_id in score_key
            )
            entry = cache["scores"][score_key] = (tuple(atoms), templates)
        atoms, templates = entry
        prepared = cache["prepared"][index] = (
            result_form,
            tuple(constraint_forms),
            atoms,
            templates,
            _path_distributions(table, index, cache),
        )

    result_form, constraint_forms, atoms, templates, distributions = prepared
    geometry = cache.get("geometry")
    if geometry is None:
        geometry = cache.setdefault("geometry", GeometryCache())
    return _analyze_linear_forms(
        result_form, constraint_forms, atoms, templates, distributions,
        targets, options, geometry,
    )


def _split_interval(interval: Interval, parts: int) -> list[Interval]:
    if interval.is_point or parts <= 1 or not interval.is_bounded:
        return [interval]
    return interval.split(parts)


def _combination_count(atom_ranges: list[list[Interval]]) -> int:
    count = 1
    for cells in atom_ranges:
        count *= len(cells)
    return count


class LinearPathAnalyzer:
    """Registry adapter for the optimised linear semantics (Section 6.4)."""

    name = "linear"

    def applicable(self, path: SymbolicPath, options: AnalysisOptions) -> bool:
        return linear_analysis_applicable(path)

    def analyze(
        self,
        path: SymbolicPath,
        targets: Sequence[Interval],
        options: AnalysisOptions,
    ) -> list[tuple[float, float]]:
        return analyze_path_linear(path, targets, options)

    def analyze_batch(
        self,
        paths: Sequence[SymbolicPath],
        targets: Sequence[Interval],
        options: AnalysisOptions,
    ) -> list[list[tuple[float, float]]]:
        """Per-path contributions for a chunk (identical to per-path calls).

        One :class:`GeometryCache` is shared across the chunk's paths.  The
        cache key is the polytope's *exact* H-representation bytes and every
        cached computation is a deterministic pure function of that key, so
        a hit returns the identical float64s a fresh computation would —
        the bounds cannot depend on which path populated an entry, hence not
        on how paths were partitioned into chunks either.  (The paths of one
        program share box constraints and score atoms heavily, so cross-path
        hits are the common case, not an accident.)
        """
        cache = GeometryCache()
        return [
            analyze_path_linear(path, targets, options, cache) for path in paths
        ]

    # -- columnar fast path --------------------------------------------
    def applicable_table(self, table, index: int, options: AnalysisOptions) -> bool:
        return linear_table_applicable(table, index, options)

    def analyze_table(
        self,
        table,
        indices,
        targets: Sequence[Interval],
        options: AnalysisOptions,
    ) -> list[list[tuple[float, float]]]:
        """Per-path contributions straight from a ``PathTable`` slice.

        The score-combination sweep (and the whole polytope integration)
        runs on forms pulled from the per-table memo — bit-identical to the
        materialised route (see :func:`analyze_table_linear`).
        """
        cache = _table_cache(table)
        return [
            analyze_table_linear(table, index, targets, options, cache) for index in indices
        ]
