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
    "_analyze_paths_resolved",
]


def _analyze_paths_resolved(paths, targets, options, analyzers):
    """The materialised chunk loop: the oracle of the runtime's table loop.

    Routes every ``SymbolicPath`` to the first applicable analyzer and hands
    runs of consecutive same-analyzer paths to its ``analyze_batch`` (or
    per-path ``analyze``).  :func:`repro.analysis.parallel.analyze_table_slice`
    must return exactly these contribution records for the same paths.
    """
    from repro.analysis.engine import PathContribution, analyze_single_path
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
