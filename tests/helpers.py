"""Shared model builders and oracles for the test suite.

These used to live in ``tests/conftest.py``, but importing them via
``from conftest import ...`` is fragile: whichever ``conftest.py`` pytest
loads first (``benchmarks/`` or ``tests/``) wins the ``conftest`` slot in
``sys.modules``, so collecting both directories broke the imports.  Test
modules import the builders explicitly from this module instead.
"""

from __future__ import annotations

import random

from repro.lang import builder as b

__all__ = [
    "simple_observe_model",
    "pedestrian_walk_fixpoint",
    "geometric_program",
    "random_spcf_program",
    "analyze_single_path",
    "_analyze_paths_resolved",
    "integrate_reference",
    "tree_walk_cells",
    "cell_interval",
    "_analyze_cells",
]


def analyze_single_path(path, analyzers, targets, options):
    """Analyse one path with the first applicable analyzer.

    The per-path unit of the materialised oracle below; it raises the
    runtime table loop's error for a path no analyzer accepts.
    """
    from repro.analysis.engine import PathContribution

    for analyzer in analyzers:
        if analyzer.applicable(path, options):
            return PathContribution(
                analyzer_name=analyzer.name,
                truncated=path.truncated,
                contributions=tuple(analyzer.analyze(path, targets, options)),
            )
    names = ", ".join(options.analyzer_names)
    raise RuntimeError(
        f"no analyzer in ({names}) is applicable to a symbolic path; "
        "include the universal 'box' analyzer as a fallback"
    )


def _analyze_paths_resolved(paths, targets, options, analyzers):
    """The materialised chunk loop: the oracle of the runtime's table loop.

    Routes every ``SymbolicPath`` to the first applicable analyzer and hands
    runs of consecutive same-analyzer paths to its ``analyze_batch`` (or
    per-path ``analyze``).  :func:`repro.analysis.parallel.analyze_table_slice`
    must return exactly these contribution records for the same paths.
    """
    from repro.analysis.engine import PathContribution
    from repro.analysis.parallel import _batch_results

    contributions = []
    group = []
    group_analyzer = None

    def flush():
        nonlocal group, group_analyzer
        if not group:
            return
        results = _batch_results(
            group_analyzer,
            getattr(group_analyzer, "analyze_batch", None),
            group,
            targets,
            options,
        )
        for path, result in zip(group, results):
            contributions.append(
                PathContribution(
                    analyzer_name=group_analyzer.name,
                    truncated=path.truncated,
                    contributions=tuple(result),
                )
            )
        group = []
        group_analyzer = None

    for path in paths:
        for analyzer in analyzers:
            if analyzer.applicable(path, options):
                if analyzer is not group_analyzer:
                    flush()
                    group_analyzer = analyzer
                group.append(path)
                break
        else:
            flush()
            contributions.append(analyze_single_path(path, analyzers, targets, options))
    flush()
    return contributions


def integrate_reference(polytope, templates, atoms, density, options, is_lower):
    """The pre-batching per-combination integration loop: the oracle of the
    linear analyzer's ``_integrate``.

    Bounds atoms with one scalar LP pair each, rebuilds the constraint rows
    per combination, evaluates every score template with the scalar interval
    evaluator and measures every chunk volume on its own — no geometry cache,
    no vectorised factor sweep, no prepared-LP batching, no batched cut
    values.  ``tests/test_linear_fast_path.py`` asserts ``_integrate``
    reproduces this loop's floats bit for bit.
    """
    import itertools
    import math

    from repro.analysis.linear_analyzer import (
        _NEGLIGIBLE_WEIGHT,
        _NON_NEGATIVE,
        _combination_count,
        _lower_row,
        _split_interval,
        _upper_row,
    )
    from repro.intervals import Interval
    from repro.symbolic.value import evaluate_with_atoms

    if not templates:
        volume = polytope.volume_bounds()
        return density * (volume.lo if is_lower else volume.hi)
    if polytope.is_empty():
        return 0.0

    atom_ranges = []
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
        rows = []
        rhs = []
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


def tree_walk_cells(expr, count, var_leaf=None, atom_leaf=None):
    """``(lo, hi)`` arrays of ``expr`` over ``count`` cells, by recursion over
    the expression tree: the oracle of the compiled-program evaluator.

    Every node is evaluated through the runtime's lifting kernel
    (``apply_primitive_cells``), but in plain recursion — no compilation, no
    sub-DAG sharing, no laziness.  ``var_leaf`` / ``atom_leaf`` map an
    ``SVar`` / ``SAtom`` node to its per-cell bound arrays.  A cell with a
    NaN endpoint of the result gets ``[-inf, inf]``; an unresolved leaf or an
    empty constant raises ``TypeError``.
    """
    import math

    import numpy as np

    from repro.analysis.vectorize import apply_primitive_cells
    from repro.symbolic.value import SAtom, SConst, SPrim, SVar

    def walk(node):
        if isinstance(node, SVar) and var_leaf is not None:
            return var_leaf(node)
        if isinstance(node, SAtom) and atom_leaf is not None:
            return atom_leaf(node)
        if isinstance(node, SConst) and not node.interval.is_empty:
            return np.full(count, node.interval.lo), np.full(count, node.interval.hi)
        if isinstance(node, SPrim):
            return apply_primitive_cells(node.op, [walk(arg) for arg in node.args], count)
        raise TypeError(f"no per-cell value for {node!r}")

    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = walk(expr)
    undefined = np.isnan(lo) | np.isnan(hi)
    return np.where(undefined, -math.inf, lo), np.where(undefined, math.inf, hi)


def cell_interval(expr, bounds):
    """``expr`` over one cell by the scalar interval evaluator, where an
    evaluation that raises ``ValueError`` (an ``inf - inf`` corner case) is
    undefined and gives ``[-inf, inf]``: the widening rule of the sweep."""
    from repro.intervals import Interval
    from repro.symbolic.value import evaluate_interval

    try:
        return evaluate_interval(expr, bounds)
    except ValueError:
        return Interval.reals()


def _analyze_cells(path, targets, options):
    """The per-cell interval loop: the oracle of the box analyser's sweep.

    Walks the same grid as the sweep (``_cell_arrays``; a zero-variable path
    is one cell of mass 1) and evaluates every constraint, score and the
    result cell by cell with the scalar interval evaluator
    (:func:`cell_interval`), skipping a cell as soon as a constraint rules
    it out.  Per cell its contributions equal the sweep's; the totals are
    summed one by one, where the sweep sums pairwise, so they agree to
    about ``1e-12`` relative.
    """
    import math

    from repro.analysis.box_analyzer import _cell_arrays
    from repro.intervals import Interval

    non_negative = Interval(0.0, math.inf)
    lower = [0.0] * len(targets)
    upper = [0.0] * len(targets)
    arrays = _cell_arrays(path.distributions, options)
    if arrays is None:
        return list(zip(lower, upper))
    los, his, masses = arrays
    for cell_los, cell_his, mass in zip(los.tolist(), his.tolist(), masses.tolist()):
        if mass <= 0.0:
            continue
        bounds = [Interval(lo, hi) for lo, hi in zip(cell_los, cell_his)]
        definitely_satisfied = True
        possibly_satisfied = True
        for constraint in path.constraints:
            guard = cell_interval(constraint.expr, bounds)
            if not constraint.holds_exists(guard):
                possibly_satisfied = False
                break
            if not constraint.holds_forall(guard):
                definitely_satisfied = False
        if not possibly_satisfied:
            continue
        weight = Interval.point(1.0)
        for score in path.scores:
            score_bounds = cell_interval(score, bounds).meet(non_negative)
            if score_bounds.is_empty:
                score_bounds = Interval.point(0.0)
            weight = weight * score_bounds
        value = cell_interval(path.result, bounds)
        for index, target in enumerate(targets):
            if value.intersects(target):
                upper[index] += mass * max(0.0, weight.hi)
            if definitely_satisfied and target.contains_interval(value):
                lower[index] += mass * max(0.0, weight.lo)
    return list(zip(lower, upper))


def simple_observe_model(observed: float = 1.1, std: float = 0.25):
    """``let x = 3 * sample in observe(observed ~ N(x, std)); x`` — analytically tractable."""
    return b.let(
        "x",
        b.mul(3.0, b.sample()),
        b.seq(b.observe_normal(observed, std, b.var("x")), b.var("x")),
    )


def pedestrian_walk_fixpoint():
    """The pedestrian walk fixpoint (paper Example 5.2)."""
    return b.fix(
        "walk",
        "x",
        b.if_leq(
            b.var("x"),
            0.0,
            0.0,
            b.let(
                "step",
                b.sample(),
                b.choice(
                    0.5,
                    b.add(b.var("step"), b.app(b.var("walk"), b.add(b.var("x"), b.var("step")))),
                    b.add(b.var("step"), b.app(b.var("walk"), b.sub(b.var("x"), b.var("step")))),
                ),
            ),
        ),
    )


def geometric_program(p_stop: float = 0.5):
    """A geometric counter via recursion: rounds until a coin comes up heads."""
    loop = b.fix(
        "loop",
        "count",
        b.choice(p_stop, b.var("count"), b.app(b.var("loop"), b.add(b.var("count"), 1.0))),
    )
    return b.app(loop, 0.0)


def random_spcf_program(
    seed: int,
    *,
    max_samples: int = 3,
    max_observes: int = 2,
    max_branches: int = 1,
    allow_recursion: bool = True,
):
    """A small random SPCF term, deterministic in ``seed`` — the fuzz vehicle.

    The generated programs cover the feature axes the differential tests
    care about while staying cheap to analyse:

    * 1–``max_samples`` uniform draws (the path's box dimensions);
    * up to ``max_observes`` score atoms — ``observe normal`` / ``observe
      uniform`` over random (often non-linear) expressions of the bound
      variables, so some programs stay linear-analysable and others force
      the box fallback;
    * up to ``max_branches`` data-dependent ``if`` branches (path splits);
    * optionally a recursive geometric counter folded into the result, so
      the symbolic execution's depth limit produces *truncated* paths.

    Expressions only combine bound variables and constants, so every seed
    yields a closed, well-typed term.
    """
    rng = random.Random(seed)
    names: list[str] = []
    #: ("let", name, value_term) bindings and ("observe", score_term)
    #: effects, in program order; folded into nested lets at the end.
    bindings: list[tuple] = []

    def atom():
        if names and rng.random() < 0.7:
            return b.var(rng.choice(names))
        return b.const(round(rng.uniform(0.1, 1.5), 3))

    def expr(depth: int):
        if depth <= 0 or rng.random() < 0.3:
            return atom()
        op = rng.choice(("add", "sub", "mul"))
        left, right = expr(depth - 1), expr(depth - 1)
        if op == "add":
            return b.add(left, right)
        if op == "sub":
            return b.sub(left, right)
        return b.mul(left, right)

    for index in range(rng.randint(1, max_samples)):
        name = f"x{index}"
        bindings.append(("let", name, b.sample()))
        names.append(name)

    for index in range(rng.randint(0, max_observes)):
        if rng.random() < 0.5:
            atom_term = b.observe_normal(
                round(rng.uniform(0.0, 1.5), 3),
                round(rng.uniform(0.2, 0.6), 3),
                expr(2),
            )
        else:
            # Wide support so the density never vanishes everywhere.
            atom_term = b.observe_uniform(-4.0, 4.0, expr(2))
        bindings.append(("observe", atom_term))

    for index in range(rng.randint(0, max_branches)):
        name = f"br{index}"
        bindings.append(
            ("let", name,
             b.if_leq(expr(1), round(rng.uniform(0.2, 0.8), 3), expr(1), expr(1))),
        )
        names.append(name)

    if allow_recursion and rng.random() < 0.4:
        bindings.append(("let", "rec", geometric_program(round(rng.uniform(0.4, 0.7), 2))))
        names.append("rec")

    result = b.var(names[0])
    for name in names[1:]:
        scale = 0.05 if name == "rec" else 1.0
        result = b.add(result, b.mul(scale, b.var(name)))

    body = result
    for entry in reversed(bindings):
        if entry[0] == "let":
            _, name, value = entry
            body = b.let(name, value, body)
        else:
            body = b.seq(entry[1], body)
    return body
