"""Linear interval trace semantics for a single symbolic path (Section 6.4).

Applicable when the path's constraints and return value are interval-linear
functions of the sample variables and every prior is a (bounded) uniform
distribution.  The path denotation becomes an integral of the score product
over a convex polytope:

* without scores it is a plain polytope volume (from the parent polytope's
  triangulation, padded outward, see
  :meth:`~repro.polytope.Polytope.volume_bounds`);
* with scores, every score value is decomposed into a template over *linear
  atoms* (Appendix E.1); each atom's range over the polytope is bounded by an
  LP, split into chunks, and each chunk contributes
  ``volume(polytope ∩ chunk) · inf/sup(template over the chunk)``
  (Proposition 6.4).

Separate polytopes ``𝔓_lb`` / ``𝔓_ub`` realise the universal / existential
reading of constraints containing interval constants (introduced by
``approxFix``); each target cuts both, and the lower / upper bound
integrates over the cut of ``𝔓_lb`` / ``𝔓_ub``.

All cuts of one path are integrated in one pass (:func:`_integrate`), and
several engineering refinements keep its geometry cheap without affecting
soundness:

* **variable elimination** — a sample variable that occurs only in
  single-variable constraints (e.g. the ``⊕_p`` branching draws) is factored
  out analytically as an exact probability mass instead of adding a polytope
  dimension;
* **cross-path geometry caching** — LP results, flatness checks and
  volumes are memoised in a :class:`GeometryCache` keyed on *exact* floats:
  a polytope's H-representation bytes, or a cell's slab.  Every cached
  computation is a deterministic pure function of its key, so a hit returns
  the identical float64s a fresh computation would — which is what makes it
  sound to share the cache across the paths of a chunk (and, on the
  columnar route, across chunks and queries of a table attachment) without
  bounds depending on how paths are partitioned;
* **one sweep per polytope** — a cut shared by both readings (every cut
  without interval constants) gets one batched atom-LP sweep on the
  low-overhead HiGHS kernel (:mod:`repro.polytope.highs`,
  :class:`~repro.polytope.batch.BatchPolytope`) and one factor sweep over
  the chunk-combination grid, which yields both readings' weights.  An atom
  LP is solved only for a side of the atom's range its interval constant
  leaves finite (``α₁ + … + α₄ + [0, ∞)`` needs no maximum);
* **one flatness rule** — a scored cut is not checked for flatness
  itself.  Its cells are measured by the volume layer, whose parent rule
  (Chebyshev radius ``≤ 1e-9``, see
  :meth:`~repro.polytope.Polytope.volume_bounds`) zeroes every cell of a
  flat parent — a flat cut that is the parent of its cells shares that one
  Chebyshev LP — while a cell that is a slab of the full-dimensional path
  polytope is measured from that polytope, however thin.  Only a flat or
  empty path polytope is pruned before any atom LP, since every cut of it
  is flat too; and
* **cells as slabs of a known parent, in one batch** — each cell is
  described as ``(parent, d, lo, hi)`` (:func:`_cell`,
  :meth:`~repro.polytope.Polytope.pair_slab` with the cell's chunk rows,
  which reads a ``±d`` row pair straight from its right-hand sides):
  never built, looked up by its slab, and the misses are measured together
  (:func:`~repro.polytope.polytope.slab_volumes`): one batched ``V(t)``
  call per parent polytope and direction, from the parent's triangulation
  (:class:`~repro.polytope.polytope.SlabProfile`).  So a score-free path's
  bounded targets share one profile of the path polytope, and a refinement
  round that splits an atom more finely runs no new Qhull.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..distributions import Uniform
from ..intervals import Interval
from ..polytope import BatchPolytope, Polytope
from ..polytope.polytope import slab_volumes
from ..symbolic.linear import LinearForm, decompose_score, extract_linear
from ..symbolic.paths import Relation, SymbolicPath
from ..symbolic.value import evaluate_with_atoms
from .config import AnalysisOptions
from .vectorize import (
    TableProgramEvaluator,
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


#: ``form ⊲⊳ 0`` as ``form ∈ half-line``, per relation.
_RELATION_RANGES = {
    Relation.LEQ: Interval(-math.inf, 0.0),
    Relation.LT: Interval(-math.inf, 0.0),
    Relation.GT: Interval(0.0, math.inf),
    Relation.GEQ: Interval(0.0, math.inf),
}


def _rows_for_target(
    form: LinearForm, target: Interval, dimension: int, universal: bool
) -> Optional[list[tuple[list[float], float]]]:
    """Rows restricting ``form`` to ``target`` (⊆ under the universal
    reading, ∩≠∅ under the existential one); ``None`` = unsatisfiable, the
    ``form ≤ hi`` row first.  A target with no finite point (the empty
    interval, ``[∞, ∞]``, ``[-∞, -∞]``) holds no real value of ``form``."""
    if target.lo == math.inf or target.hi == -math.inf:
        return None
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

def _volume_key(parent: Polytope, direction: Optional[np.ndarray], lo: float, hi: float):
    """The ``volumes`` key of the slab cell ``parent ∩ {lo ≤ d·x ≤ hi}``:
    the parent's exact H-representation bytes (:meth:`Polytope.cache_key`)
    when it is uncut, else ``(parent key, d bytes, lo, hi)``."""
    if direction is None:
        return parent.cache_key()
    return parent.cache_key(), direction.tobytes(), lo, hi

#: Entries kept per :class:`GeometryCache` store (least recently used
#: evicted).  A long-lived ``Model`` keeps its table's cache across queries;
#: the cap keeps that memory flat while holding a cold depth-4 pedestrian
#: query's working set several times over.
_GEOMETRY_CACHE_ENTRIES = 4096

#: The ``profiles`` store keeps this share of the entries: a triangulation
#: takes a few KiB where the other stores keep a float or a key.  At the
#: default cap that is 512 parents, ten cold pedestrian queries' worth.
_PROFILE_SHARE = 8

_MISSING = object()


class _BoundedStore(OrderedDict):
    """One :class:`GeometryCache` store: an LRU map capped at
    :data:`_GEOMETRY_CACHE_ENTRIES` (divided by ``share``).

    :meth:`lookup` and :meth:`remember` hold a lock, so engine threads
    sharing the cache can look up and evict concurrently without an
    ``OrderedDict`` reordering error.  The values are computed outside it.
    """

    def __init__(self, share: int = 1) -> None:
        super().__init__()
        self._share = share
        self._lock = threading.Lock()

    def __reduce__(self):
        # A lock cannot be pickled (a table's scratch memo travels with a
        # pickled execution); the copy starts with a fresh one.
        return type(self), (self._share,), None, None, iter(list(self.items()))

    def lookup(self, key):
        """The value under ``key`` (marked recently used), else ``_MISSING``."""
        with self._lock:
            value = self.get(key, _MISSING)
            if value is not _MISSING:
                self.move_to_end(key)
            return value

    def remember(self, key, value):
        """Store ``value`` under ``key``, evicting past the cap; returns it."""
        with self._lock:
            self[key] = value
            self.move_to_end(key)
            while len(self) > max(1, _GEOMETRY_CACHE_ENTRIES // self._share):
                self.popitem(last=False)
        return value


class GeometryCache:
    """Memoises geometry computations keyed on exact floats.

    Its stores share one keying discipline — the raw float64 bytes of a
    polytope's ``(A, b)``, never rounded (an earlier revision rounded the key
    to 12 decimals, which can collide *distinct* polytopes and hand one the
    other's volume):

    * ``volumes`` — volume bounds of slab cells, keyed on the slab
      (:func:`_volume_key`): ``(parent key, d bytes, lo, hi)`` for the cell
      ``parent ∩ {lo ≤ d·x ≤ hi}``, the polytope's own key for an uncut one,
    * ``full_dimension`` — :meth:`Polytope.is_full_dimensional` results:
      whether a path polytope is empty or flat (volume 0, for it and for
      every cell cut from it),
    * ``centers`` — :meth:`Polytope.chebyshev_center` results, so the
      flatness check of a polytope and the triangulation its cells are
      measured from share one Chebyshev LP,
    * ``profiles`` — :meth:`Polytope.slab_profile` results: one
      triangulation per parent polytope, which every slab cell of the
      parent is measured from, in every refinement round,
    * ``atom_bounds`` — batched atom LP sweeps (keyed additionally on the
      dense objective bytes and the sides solved), and
    * ``programs`` — compiled score-template programs (keyed on the template
      tuple's identity; entries keep the templates alive so a recycled
      ``id()`` can never alias).

    **Purity rule**: every cached computation is a deterministic pure
    function of its key, computed the same way with or without a cache, so
    a hit returns the identical float64s a fresh computation would.  In
    particular a cell's volume depends on its slab only: the parent's
    profile is read off the parent's rows, ``V(t)`` at one cut value is the
    same float whichever cells share its batch, and the fallbacks measure
    ``parent ∩ slab``.  However the cell's rows were written, equal slabs
    get equal volumes (:meth:`Polytope.slab_split` reads the slab off
    them).  That makes one cache safe to share across the paths of a chunk,
    across chunks, and across queries — bounds never depend on which path
    populated an entry, hence not on chunk boundaries either (pinned by
    ``tests/test_linear_fast_path.py``).

    **Bounded stores**: each store keeps its :data:`_GEOMETRY_CACHE_ENTRIES`
    most recently used entries (``profiles``: a :data:`_PROFILE_SHARE`-th
    of them).  By the purity rule an eviction only costs a recomputation of
    the same floats.  Concurrent use from the thread backend is safe: racing
    writers insert identical values, and each store's lookups and evictions
    are serialised by its lock.

    ``volume_hits`` / ``volume_misses`` count volume lookups for the tests
    and :meth:`stats`; nothing else reads them, and they have no semantic
    role.
    """

    __slots__ = (
        "volumes",
        "full_dimension",
        "centers",
        "profiles",
        "atom_bounds",
        "programs",
        "volume_hits",
        "volume_misses",
    )

    def __init__(self) -> None:
        self.volumes = _BoundedStore()
        self.full_dimension = _BoundedStore()
        self.centers = _BoundedStore()
        self.profiles = _BoundedStore(_PROFILE_SHARE)
        self.atom_bounds = _BoundedStore()
        self.programs = _BoundedStore()
        self.volume_hits = 0
        self.volume_misses = 0

    def _memo(self, store: _BoundedStore, key, compute):
        """``store``'s value under ``key``, computed by ``compute()`` on a miss."""
        value = store.lookup(key)
        return store.remember(key, compute()) if value is _MISSING else value

    def volume(self, polytope: Polytope) -> Interval:
        """Volume bounds of ``polytope`` (:meth:`Polytope.volume_bounds`), memoised."""
        return self.volume_restricted(*polytope.slab_split())

    def volume_restricted(
        self, parent: Polytope, direction: Optional[np.ndarray], lo: float, hi: float
    ) -> Interval:
        """Volume bounds of the slab cell ``parent ∩ {lo ≤ d·x ≤ hi}``
        (:meth:`restricted_volumes` for one cell)."""
        return self.restricted_volumes([(parent, direction, lo, hi)])[0]

    def restricted_volumes(self, cells: Sequence[tuple]) -> list[Interval]:
        """Volume bounds of every slab cell ``(parent, d, lo, hi)`` in
        ``cells``: ``parent ∩ {lo ≤ d·x ≤ hi}`` as
        :meth:`Polytope.slab_split` describes it (``d`` ``None``: the uncut
        parent).

        A cell is looked up by its slab (:func:`_volume_key`), never built;
        the misses are measured together
        (:func:`~repro.polytope.polytope.slab_volumes`), each distinct slab
        once, in one batched ``V(t)`` call per parent and direction.
        """
        results: list = [None] * len(cells)
        missing: dict = {}
        for index, cell in enumerate(cells):
            key = _volume_key(*cell)
            value = self.volumes.lookup(key)
            if value is _MISSING:
                missing.setdefault(key, []).append(index)
            else:
                results[index] = value
        self.volume_hits += len(cells) - len(missing)
        self.volume_misses += len(missing)
        if missing:
            measured = slab_volumes([cells[indices[0]] for indices in missing.values()], self)
            for (key, indices), volume in zip(missing.items(), measured):
                self.volumes.remember(key, volume)
                for index in indices:
                    results[index] = volume
        return results

    def full_dimensional(self, polytope: Polytope) -> bool:
        """Whether ``polytope`` can have non-zero volume, memoised.

        ``False`` (empty, or Chebyshev radius ``≤ 1e-9``) means every cell
        cut from ``polytope`` has :meth:`Polytope.volume_bounds` exactly 0.
        A failed LP reads as ``True``, so a solver error never zeroes a bound.
        """
        return self._memo(
            self.full_dimension, polytope.cache_key(),
            lambda: polytope.is_full_dimensional(self),
        )

    def chebyshev(self, polytope: Polytope):
        """:meth:`Polytope.chebyshev_center` of ``polytope``, memoised.

        A failed LP raises :class:`~repro.polytope.polytope.LPFailure` and
        is not stored.
        """
        return self._memo(self.centers, polytope.cache_key(), polytope.chebyshev_center)

    def profile(self, polytope: Polytope, center_radius):
        """:meth:`Polytope.slab_profile` of ``polytope``, memoised.

        ``center_radius`` must be ``polytope``'s own Chebyshev centre and
        radius (:meth:`chebyshev`), so the key determines it.  A Qhull
        failure is stored as ``None``.
        """
        return self._memo(
            self.profiles, polytope.cache_key(),
            lambda: polytope.slab_profile(center_radius),
        )

    def bound_atom_rows(
        self,
        polytope: Polytope,
        dense_rows: Sequence[Sequence[float]],
        rows_key: bytes,
        sides: tuple[tuple[bool, bool], ...],
    ) -> tuple:
        """Batched ranges of the atom objectives over ``polytope``, memoised.

        ``rows_key`` is the concatenated float64 bytes of ``dense_rows``;
        the full key pairs it with the polytope's H-representation bytes
        and ``sides``, which says per row whether its minimum and maximum
        are solved (:meth:`BatchPolytope.bound_rows`).  ``None`` entries
        mean the polytope is empty; an atom whose LP fails gets its wider
        range over the polytope's axis box instead, so a solver error never
        zeroes a bound.
        """
        return self._memo(
            self.atom_bounds, (polytope.cache_key(), rows_key, sides),
            lambda: tuple(BatchPolytope(polytope).bound_rows(dense_rows, sides)),
        )

    def template_program(self, templates):
        """Compiled evaluation program of the score templates, memoised
        (:func:`~repro.analysis.vectorize.compile_expr_roots`)."""
        key = id(templates)
        entry = self.programs.lookup(key)
        if entry is _MISSING or entry[0] is not templates:
            program = compile_expr_roots([decomposition.template for decomposition in templates])
            entry = self.programs.remember(key, (templates, program))
        return entry[1]

    def stats(self) -> Dict[str, int]:
        """Counter and store-size snapshot (diagnostics; no semantic role)."""
        return {
            "volume_hits": self.volume_hits,
            "volume_misses": self.volume_misses,
            "unique_volumes": len(self.volumes),
            "unique_full_dimension": len(self.full_dimension),
            "unique_centers": len(self.centers),
            "unique_profiles": len(self.profiles),
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

    # ``polytopes[universal]``: 𝔓_lb under ``True``, 𝔓_ub under ``False``
    # (``None`` = unsatisfiable), each built with one ``add_constraints``.
    base = Polytope.from_box(reduction.supports)
    polytopes: Dict[bool, Optional[Polytope]] = {}
    for universal in (True, False):
        per_form = [
            _rows_for_target(form, _RELATION_RANGES[relation], dimension, universal)
            for form, relation in constraint_forms
        ]
        if any(rows is None for rows in per_form):
            polytopes[universal] = None
        else:
            polytopes[universal] = base.add_constraints(
                [row for rows in per_form for row, _ in rows],
                [rhs for rows in per_form for _, rhs in rows],
            )

    bounds = [[0.0, 0.0] for _ in targets]
    upper_poly = polytopes[False]
    if upper_poly is not None and not cache.full_dimensional(upper_poly):
        # Flat or empty: every target polytope lies inside ``upper_poly`` (and
        # ``lower_poly`` inside it), so every volume below would be 0.
        return [tuple(bound) for bound in bounds]

    # One cut per (target, reading), as its reading's polytope and the
    # target's rows; ``slots`` says where its total goes.
    cuts: list[tuple[Polytope, list, list, bool]] = []
    slots: list[tuple[int, int, float]] = []
    readings = ((True, reduction.factor_lower), (False, reduction.factor_upper))
    for index, target in enumerate(targets):
        for position, (universal, factor) in enumerate(readings):
            polytope = polytopes[universal]
            if polytope is None or factor <= 0.0:
                continue
            rows = _rows_for_target(result_form, target, dimension, universal)
            if rows is None:
                continue
            cuts.append((polytope, [r for r, _ in rows], [b for _, b in rows], universal))
            slots.append((index, position, factor))
    totals = _integrate(cuts, templates, atoms, reduction.density, options, cache)
    for (index, position, factor), total in zip(slots, totals):
        bounds[index][position] = factor * total
    return [tuple(bound) for bound in bounds]


def _chunk_rows(
    atoms: Sequence[LinearForm],
    atom_ranges: list[list[Interval]],
    dimension: int,
    universal: bool,
    memo: dict,
) -> list[list]:
    """Per atom and chunk, the ``(rows, rhs)`` arrays pinning the atom into
    the chunk under one reading; ``None`` or ``[]`` as
    :func:`_rows_for_target` (unsatisfiable, trivially true).

    An atom with a point constant has the same rows under both readings;
    ``memo`` hands the second reading the first one's arrays, so the
    cells built from them are described once (:func:`_cell`).
    """
    per_atom = []
    for index, (atom, chunks) in enumerate(zip(atoms, atom_ranges)):
        key = (index, None if atom.constant.is_point else universal)
        if key not in memo:
            cuts = [_rows_for_target(atom, chunk, dimension, universal) for chunk in chunks]
            memo[key] = [
                cut and (np.array([row for row, _ in cut]), np.array([b for _, b in cut]))
                for cut in cuts
            ]
        per_atom.append(memo[key])
    return per_atom


def _cell(polytope: Polytope, combination: Sequence, heads: dict, cells: dict) -> tuple:
    """The slab cell ``(parent, d, lo, hi)`` of ``polytope`` cut by every
    chunk's rows in ``combination`` (:meth:`Polytope.pair_slab`).

    The last chunk with rows is the slab; the rows of the chunks before it
    cut the polytope it is split from, which is built once per prefix
    (``heads``).  The cell itself is never built, and ``cells`` describes
    each combination of row arrays once.
    """
    present = [entry for entry in combination if entry]
    key = tuple(map(id, present))
    cell = cells.get(key)
    if cell is not None:
        return cell
    head = polytope
    if len(present) > 1:
        head = heads.get(key[:-1])
        if head is None:
            head = heads[key[:-1]] = polytope.add_constraints(
                np.vstack([rows for rows, _ in present[:-1]]),
                np.concatenate([rhs for _, rhs in present[:-1]]),
            )
    cell = cells[key] = head.pair_slab(*present[-1]) if present else polytope.slab_split()
    return cell


def _integrate(
    cuts: Sequence[tuple[Polytope, Sequence, Sequence, bool]],
    templates,
    atoms: list[LinearForm],
    density: float,
    options: AnalysisOptions,
    cache: GeometryCache,
) -> list[float]:
    """Bound ``∫_polytope ∏ templates(atoms) dα`` for every ``(base, rows,
    rhs, universal)`` cut, ``polytope = base ∩ {rows·x ≤ rhs}``: from below
    under the universal reading, from above under the existential one.

    Each distinct polytope gets one :func:`_atom_grid` (both readings'
    weights); each cut describes its cells as slabs (:func:`_cell`) from
    its own reading's chunk rows, every cell of every cut is measured in
    one :meth:`GeometryCache.restricted_volumes` call, and each cut's terms
    are then summed in combination order.  A score-free cut is one cell,
    the polytope itself, described as a slab of ``base`` and never built.
    ``tests/test_linear_fast_path.py`` pins each cut
    against the scalar original (``tests/helpers.py::integrate_reference``)
    bit for bit.
    """
    grids: dict = {}
    cells: list[tuple] = []
    # Per cut, ``(factor, cell)`` terms in combination order; ``cell``
    # indexes ``cells``, or is ``None`` for a bare negligible weight.
    plans: list[list[tuple[float, Optional[int]]]] = []
    for base, rows, rhs, universal in cuts:
        if not templates:
            plans.append([(1.0, len(cells))])
            cells.append(base.pair_slab(rows, rhs))
            continue
        polytope = base.add_constraints(rows, rhs)
        key = polytope.cache_key()
        if key not in grids:
            # The atom grid, and the memos both readings of the polytope
            # share: chunk rows, parents and slab cells.
            grids[key] = (_atom_grid(polytope, templates, atoms, options, cache), {}, {}, {})
        grid, rows_memo, heads, slabs = grids[key]
        terms: list[tuple[float, Optional[int]]] = []
        plans.append(terms)
        if grid is None:
            continue
        atom_ranges, (factors_lo, factors_hi) = grid
        factors = factors_lo if universal else factors_hi
        per_atom = _chunk_rows(atoms, atom_ranges, polytope.dimension, universal, rows_memo)
        for combo_index, combination in enumerate(itertools.product(*per_atom)):
            factor = float(factors[combo_index])
            if factor == 0.0 or any(entry is None for entry in combination):
                # A zero weight annihilates the chunk's contribution
                # regardless of feasibility, so no cell is described.
                continue
            if not universal and math.isfinite(factor) and factor < _NEGLIGIBLE_WEIGHT:
                # ``density · volume`` never exceeds the prior mass 1 of the
                # chunk, so adding the weight itself is a sound (and cheap)
                # upper bound — this skips a volume for far-tail chunks.
                terms.append((factor, None))
                continue
            terms.append((factor, len(cells)))
            cells.append(_cell(polytope, combination, heads, slabs))

    volumes = cache.restricted_volumes(cells)
    totals: list[float] = []
    for (_, _, _, universal), terms in zip(cuts, plans):
        if not templates:
            volume = volumes[terms[0][1]]
            totals.append(density * (volume.lo if universal else volume.hi))
            continue
        total = 0.0
        for factor, cell in terms:
            if cell is None:
                total += factor
                continue
            volume = volumes[cell]
            volume_value = volume.lo if universal else volume.hi
            if volume_value <= 0.0:
                continue
            total += density * volume_value * factor
            if math.isinf(total):
                total = math.inf
                break
        totals.append(total)
    return totals


def _atom_grid(
    polytope: Polytope,
    templates,
    atoms: list[LinearForm],
    options: AnalysisOptions,
    cache: GeometryCache,
) -> Optional[tuple]:
    """``(atom_ranges, (factors_lo, factors_hi))`` of a scored polytope, or
    ``None`` when its atom LPs find it empty.

    Flatness is not checked here: every cell is measured by the volume
    layer, whose parent rule zeroes the cells of a flat parent.  All atom
    objectives are bounded over the polytope in one batched LP sweep over
    its prepared constraint system (each side that can matter, see
    :meth:`GeometryCache.bound_atom_rows`); each range is split into
    chunks (coarsened until the combination budget fits), and the weight
    of every chunk combination comes from one sweep over the product grid
    (:func:`_vectorized_factors`).  A grid of one combination — most grids
    of a cold pedestrian query — takes the scalar interval evaluator
    (:func:`_scalar_factors`) instead, which is several times cheaper there
    and gives the same floats.
    """
    dimension = polytope.dimension
    dense_rows = [atom.dense_row(dimension) for atom in atoms]
    rows_key = b"".join(np.asarray(row, dtype=float).tobytes() for row in dense_rows)
    # A side of an atom's range that its interval constant makes infinite
    # stays infinite whatever the LP says, so it is not solved.
    sides = tuple(
        (atom.constant.lo > -math.inf, atom.constant.hi < math.inf) for atom in atoms
    )
    bases = cache.bound_atom_rows(polytope, dense_rows, rows_key, sides)
    atom_ranges: list[list[Interval]] = []
    for atom, base in zip(atoms, bases):
        if base is None:
            return None
        atom_ranges.append(_split_interval(base + atom.constant, options.score_splits))

    # Respect the combination budget by coarsening atoms until it fits.
    while _combination_count(atom_ranges) > options.max_score_combinations:
        widest = max(range(len(atom_ranges)), key=lambda i: len(atom_ranges[i]))
        if len(atom_ranges[widest]) <= 1:
            break
        hull = Interval(atom_ranges[widest][0].lo, atom_ranges[widest][-1].hi)
        atom_ranges[widest] = _split_interval(hull, max(1, len(atom_ranges[widest]) // 2))

    if _combination_count(atom_ranges) > 1:
        factors = _vectorized_factors(atom_ranges, cache.template_program(templates))
    else:
        factors = _scalar_factors(atom_ranges, templates)
    return atom_ranges, factors


def _scalar_factors(atom_ranges: list[list[Interval]], templates) -> tuple[list, list]:
    """``(lo, hi)`` weight factors of every atom-range combination, each
    template evaluated with the scalar interval evaluator.  A template whose
    evaluation raises ``ValueError`` (an ``∞ − ∞`` corner case) is
    undefined there and scores ``[0, ∞]``, as in the sweep."""
    lo: list[float] = []
    hi: list[float] = []
    for combination in itertools.product(*atom_ranges):
        weight = Interval.point(1.0)
        for template in templates:
            try:
                score_bounds = evaluate_with_atoms(template.template, list(combination))
            except ValueError:
                score_bounds = Interval.reals()
            score_bounds = score_bounds.meet(_NON_NEGATIVE)
            if score_bounds.is_empty:
                score_bounds = Interval.point(0.0)
            weight = weight * score_bounds
        lo.append(max(0.0, weight.lo))
        hi.append(max(0.0, weight.hi))
    return lo, hi


def _vectorized_factors(atom_ranges: list[list[Interval]], program):
    """``(lo, hi)`` weight factors of every atom-range combination, in one
    meshgrid sweep.

    Builds the full product grid of atom chunks (in :func:`itertools.product`
    order: the last atom varies fastest) as ``(combinations × atoms)`` bound
    arrays and runs ``program`` — the score templates compiled by
    :func:`~repro.analysis.vectorize.compile_expr_roots`
    (:meth:`GeometryCache.template_program` caches it) — over it.  The
    result is bit-identical to :func:`_scalar_factors` wherever that one
    finishes: exact IEEE operations are lifted wholesale and everything else
    takes the scalar interval lifting per cell.  An undefined score is
    ``[-∞, ∞]`` on its cell, so the weight is NaN-free (``0 · ∞ = 0``).
    """
    count = _combination_count(atom_ranges)
    lo_grid = np.meshgrid(
        *[np.array([chunk.lo for chunk in cells]) for cells in atom_ranges], indexing="ij"
    )
    hi_grid = np.meshgrid(
        *[np.array([chunk.hi for chunk in cells]) for cells in atom_ranges], indexing="ij"
    )
    combos_lo = np.stack([grid.reshape(-1) for grid in lo_grid], axis=1)
    combos_hi = np.stack([grid.reshape(-1) for grid in hi_grid], axis=1)
    instrs, positions = program
    evaluator = TableProgramEvaluator(
        instrs, count, atom_leaf=lambda index: (combos_lo[:, index], combos_hi[:, index])
    )
    weight_lo = np.ones(count)
    weight_hi = np.ones(count)
    for position in positions:
        score_lo, score_hi = evaluator.eval_to(position)
        # meet with [0, inf); an empty meet collapses to the point 0.
        score_lo = np.maximum(score_lo, 0.0)
        empty = score_hi < score_lo
        score_lo = np.where(empty, 0.0, score_lo)
        score_hi = np.where(empty, 0.0, score_hi)
        weight_lo, weight_hi = vec_mul(weight_lo, weight_hi, score_lo, score_hi)
    return np.maximum(0.0, weight_lo), np.maximum(0.0, weight_hi)


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
    queries without bounds depending on chunk boundaries, and its LRU-capped
    stores keep a long-lived attachment's memory flat.  The scratch memo
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
