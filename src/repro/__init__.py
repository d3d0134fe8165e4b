"""GuBPI reproduction: guaranteed bounds for posterior inference in universal PPLs.

The package reproduces the system of "Guaranteed Bounds for Posterior
Inference in Universal Probabilistic Programming" (PLDI 2022): an SPCF
modelling language, interval trace semantics, a weight-aware interval type
system, symbolic execution with fixpoint summaries and pluggable path
analysers (polytope-based and box-splitting ship built in), plus the
stochastic and exact baselines used by the paper's evaluation.

The public API is the :class:`Model` facade: it owns one SPCF term, runs the
expensive symbolic execution once per execution-limits configuration and
serves every query from the cached path set::

    from repro import Model, Interval, AnalysisOptions
    from repro.lang import builder as b

    program = b.let("x", b.sample(), b.seq(b.observe_normal(0.7, 0.1, b.var("x")), b.var("x")))
    model = Model(program, AnalysisOptions(score_splits=64))

    query = model.probability(Interval(0.5, 1.0))   # symbolic execution runs here...
    histogram = model.histogram(0.0, 1.0, 10)       # ...and is reused here
    samples = model.sample(10_000, method="importance")

New path-analysis strategies register through
:func:`repro.analysis.register_analyzer` and are selected by name via
``AnalysisOptions(analyzers=...)``.
"""

import sys as _sys

# Deeply recursive probabilistic programs (e.g. the pedestrian walk) are
# evaluated with recursive interpreters; CPython's default recursion limit is
# too small for long random walks, so raise it once at import time.
if _sys.getrecursionlimit() < 100_000:
    _sys.setrecursionlimit(100_000)

from . import analysis, distributions, estimation, exact, inference, intervals, lang, models, polytope, semantics, symbolic, typesystem
from .analysis import (
    AnalysisOptions,
    AnalysisReport,
    CompiledProgram,
    Model,
    ParallelAnalysisExecutor,
    available_analyzers,
    get_analyzer,
    register_analyzer,
)
from .intervals import Interval

__all__ = [
    "intervals",
    "distributions",
    "lang",
    "semantics",
    "typesystem",
    "symbolic",
    "polytope",
    "analysis",
    "inference",
    "exact",
    "estimation",
    "models",
    "Model",
    "CompiledProgram",
    "AnalysisOptions",
    "AnalysisReport",
    "ParallelAnalysisExecutor",
    "register_analyzer",
    "get_analyzer",
    "available_analyzers",
    "Interval",
]

__version__ = "0.2.0"
