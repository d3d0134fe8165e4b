"""Symbolic (interval) paths — the output of symbolic execution.

A symbolic path ``Ψ = (V, n, Δ, Ξ)`` (paper Section 6.1) consists of the
symbolic result value ``V``, the number ``n`` of sample variables drawn along
the path, the branching constraints ``Δ`` and the symbolic score values ``Ξ``.
This reproduction additionally records, per sample variable, the primitive
distribution it was drawn from (``Uniform(0, 1)`` for a plain ``sample``),
which is how non-uniform samples are supported natively (Appendix E.1).

The path denotation ``⟦Ψ⟧(U)`` is the integral of the product of the scores
(times the priors of non-uniform samples) over the assignments that satisfy
the constraints and whose result lies in ``U``; its lower/upper variants
``⟦Ψ⟧_lb`` and ``⟦Ψ⟧_ub`` (Section 6.2) interpret interval constants
universally/existentially.  Those integrals are bounded by the analysers in
:mod:`repro.analysis`; this module only provides the data structure plus exact
*pointwise* evaluation, which the tests use to cross-check the bounds against
Monte Carlo estimates.

Paths are the unit of work of the parallel bound engine
(:mod:`repro.analysis.parallel`): every field is a plain immutable value
(symbolic expressions, distribution records, constraint tuples), so a
``SymbolicPath`` pickles losslessly into process-pool payloads.  Keep it that
way — never attach closures, environments or open resources to a path.
:meth:`SymbolicPath.analysis_cost_hint` provides the deterministic cost
estimate the engine uses to balance chunk boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..distributions import Distribution
from ..intervals import Interval
from .linear import LinearForm, extract_linear
from .value import (
    SymExpr,
    evaluate,
    evaluate_interval,
    sample_variables,
    uses_variables_at_most_once,
)

__all__ = ["Relation", "SymConstraint", "SymbolicPath"]


class Relation:
    """Constraint relations against zero."""

    LEQ = "leq"  # expr <= 0
    LT = "lt"  # expr <  0
    GT = "gt"  # expr >  0
    GEQ = "geq"  # expr >= 0

    ALL = (LEQ, LT, GT, GEQ)


@dataclass(frozen=True)
class SymConstraint:
    """A branching constraint ``expr ⊲⊳ 0``."""

    expr: SymExpr
    relation: str

    def __post_init__(self) -> None:
        if self.relation not in Relation.ALL:
            raise ValueError(f"unknown relation {self.relation!r}")

    def holds(self, value: float) -> bool:
        if self.relation == Relation.LEQ:
            return value <= 0.0
        if self.relation == Relation.LT:
            return value < 0.0
        if self.relation == Relation.GT:
            return value > 0.0
        return value >= 0.0

    def holds_forall(self, values: Interval) -> bool:
        """``∀ t ∈ values. t ⊲⊳ 0`` (used by lower bounds)."""
        if values.is_empty:
            return False
        if self.relation == Relation.LEQ:
            return values.hi <= 0.0
        if self.relation == Relation.LT:
            return values.hi < 0.0
        if self.relation == Relation.GT:
            return values.lo > 0.0
        return values.lo >= 0.0

    def holds_exists(self, values: Interval) -> bool:
        """``∃ t ∈ values. t ⊲⊳ 0`` (used by upper bounds)."""
        if values.is_empty:
            return False
        if self.relation == Relation.LEQ:
            return values.lo <= 0.0
        if self.relation == Relation.LT:
            return values.lo < 0.0
        if self.relation == Relation.GT:
            return values.hi > 0.0
        return values.hi >= 0.0


@dataclass(frozen=True)
class SymbolicPath:
    """One symbolic (interval) path through a program."""

    result: SymExpr
    variable_count: int
    distributions: tuple[Distribution, ...]
    constraints: tuple[SymConstraint, ...]
    scores: tuple[SymExpr, ...]
    truncated: bool = False

    def __post_init__(self) -> None:
        if len(self.distributions) != self.variable_count:
            raise ValueError("one distribution per sample variable is required")

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def variable_domains(self) -> list[Interval]:
        """Support of every sample variable (the integration domain)."""
        return [dist.support() for dist in self.distributions]

    @property
    def is_linear(self) -> bool:
        """All constraints and the result value are interval-linear."""
        if extract_linear(self.result) is None:
            return False
        return all(extract_linear(c.expr) is not None for c in self.constraints)

    def linear_constraints(self) -> list[tuple[LinearForm, str]]:
        """The constraints as linear forms (requires :attr:`is_linear`)."""
        forms = []
        for constraint in self.constraints:
            form = extract_linear(constraint.expr)
            if form is None:
                raise ValueError("path has a non-linear constraint")
            forms.append((form, constraint.relation))
        return forms

    def expressions(self) -> tuple[SymExpr, ...]:
        """Every symbolic expression of the path, in canonical order.

        The order (result, constraint expressions, scores) matches the field
        order the arena encoder (:mod:`repro.symbolic.arena`) serialises, so
        structural walks over a path visit nodes in the same sequence the
        columnar encoding stores them.
        """
        return (self.result, *(c.expr for c in self.constraints), *self.scores)

    def satisfies_single_use_assumption(self) -> bool:
        """Completeness Assumption 1 (Appendix C.3) for this path."""
        return all(uses_variables_at_most_once(expr) for expr in self.expressions())

    def analysis_cost_hint(self) -> float:
        """A rough, deterministic estimate of this path's analysis cost.

        Used by :func:`repro.analysis.parallel.partition_paths` to balance
        chunk boundaries: box-grid analysis is exponential in the number of
        sample variables and linear in constraints and scores, so paths with
        many draws dominate a workload.  Only the *relative* magnitude
        matters; the estimate depends on nothing but the path structure, so
        every run partitions identically.
        """
        structure = 1.0 + len(self.constraints) + 2.0 * len(self.scores)
        return structure * (1.0 + float(self.variable_count) ** 2)

    # ------------------------------------------------------------------
    # Pointwise (concrete) evaluation — used for Monte Carlo cross-checks
    # ------------------------------------------------------------------
    def satisfied_by(self, assignment: Sequence[float]) -> bool:
        try:
            return all(c.holds(evaluate(c.expr, assignment)) for c in self.constraints)
        except ValueError:
            # Interval constants on a truncated path: pointwise evaluation is
            # undefined; such paths never count as concretely satisfied.
            return False

    def weight_at(self, assignment: Sequence[float]) -> float:
        weight = 1.0
        for score in self.scores:
            weight *= evaluate(score, assignment)
        return weight

    def prior_density_at(self, assignment: Sequence[float]) -> float:
        density = 1.0
        for value, dist in zip(assignment, self.distributions):
            density *= dist.pdf(value)
        return density

    def value_at(self, assignment: Sequence[float]) -> float:
        return evaluate(self.result, assignment)

    def integrand_at(self, assignment: Sequence[float], target: Optional[Interval] = None) -> float:
        """The path integrand at a point of the sample space."""
        if not self.satisfied_by(assignment):
            return 0.0
        if target is not None and self.value_at(assignment) not in target:
            return 0.0
        return self.weight_at(assignment) * self.prior_density_at(assignment)

    def monte_carlo_estimate(
        self,
        target: Optional[Interval],
        samples: int,
        rng: np.random.Generator,
    ) -> float:
        """A simple Monte Carlo estimate of ``⟦Ψ⟧(target)`` (testing aid)."""
        if self.variable_count == 0:
            return self.integrand_at((), target)
        total = 0.0
        for _ in range(samples):
            assignment = [dist.sample(rng) for dist in self.distributions]
            if not self.satisfied_by(assignment):
                continue
            if target is not None and self.value_at(assignment) not in target:
                continue
            total += self.weight_at(assignment)
        return total / samples

    # ------------------------------------------------------------------
    # Interval evaluation helpers
    # ------------------------------------------------------------------
    def result_interval(self, bounds: Optional[Sequence[Interval]] = None) -> Interval:
        bounds = list(bounds) if bounds is not None else self.variable_domains()
        return evaluate_interval(self.result, bounds)

    def describe(self) -> str:
        """A short human-readable summary (used in logs and examples)."""
        return (
            f"SymbolicPath(n={self.variable_count}, constraints={len(self.constraints)}, "
            f"scores={len(self.scores)}, linear={self.is_linear}, truncated={self.truncated})"
        )
