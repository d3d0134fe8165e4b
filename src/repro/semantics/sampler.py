"""Efficient big-step evaluation of SPCF programs.

The substitution-based small-step semantics in
:mod:`repro.semantics.reduction` is the reference, but it is too slow to run
tens of thousands of times inside a stochastic inference loop.  This module
provides an environment/closure based evaluator with two entry points:

* :func:`simulate` — draw the trace lazily from a random number generator
  (used by importance sampling, MCMC and SBC), and
* :func:`replay` — run the program on a fixed trace of uniform draws (used by
  trace-space MCMC and by the tests that check agreement with the reference
  semantics).

Both record the sequence of *uniform* draws, the return value and the
accumulated likelihood weight, i.e. exactly ``(s, val_P(s), wt_P(s))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from ..intervals import get_primitive
from ..lang.ast import (
    App,
    Const,
    Fix,
    If,
    IntervalConst,
    Lam,
    Prim,
    Sample,
    Score,
    Term,
    Var,
)
from .trace import Trace, TraceExhausted

__all__ = [
    "EvaluationError",
    "NonTerminationError",
    "ExecutionResult",
    "simulate",
    "replay",
    "replay_extending",
]


class EvaluationError(Exception):
    """Raised when evaluation encounters an ill-formed situation."""


class NonTerminationError(Exception):
    """Raised when evaluation exceeds its step or sample budget."""


@dataclass(frozen=True)
class Closure:
    """A lambda value together with its captured environment."""

    param: str
    body: Term
    env: "Environment"


@dataclass(frozen=True)
class FixClosure:
    """A recursive function value."""

    fname: str
    param: str
    body: Term
    env: "Environment"


Value = Union[float, Closure, FixClosure]


@dataclass(frozen=True)
class Environment:
    """A persistent (linked) environment mapping variables to values."""

    name: Optional[str] = None
    value: Optional[Value] = None
    parent: Optional["Environment"] = None

    def bind(self, name: str, value: Value) -> "Environment":
        return Environment(name, value, self)

    def lookup(self, name: str) -> Value:
        env: Optional[Environment] = self
        while env is not None:
            if env.name == name:
                assert env.value is not None
                return env.value
            env = env.parent
        raise EvaluationError(f"unbound variable {name!r}")


EMPTY_ENV = Environment()


@dataclass
class ExecutionResult:
    """Value, weight and trace of one program execution."""

    value: float
    weight: float
    trace: Trace
    log_weight: float


@dataclass
class _Context:
    """Mutable evaluation context: the trace source and the weight."""

    draw: Callable[[], float]
    log_weight: float = 0.0
    weight_is_zero: bool = False
    trace: list[float] = field(default_factory=list)
    steps: int = 0
    max_steps: int = 10_000_000

    def record_draw(self) -> float:
        value = self.draw()
        self.trace.append(value)
        return value

    def score(self, value: float) -> None:
        if value < 0.0:
            raise EvaluationError(f"score of a negative value {value}")
        if value == 0.0:
            self.weight_is_zero = True
        else:
            self.log_weight += math.log(value)

    def tick(self) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise NonTerminationError(f"evaluation exceeded {self.max_steps} steps")


def _evaluate(term: Term, env: Environment, ctx: _Context) -> Value:
    ctx.tick()
    if isinstance(term, Var):
        return env.lookup(term.name)
    if isinstance(term, Const):
        return term.value
    if isinstance(term, IntervalConst):
        if term.interval.is_point:
            return term.interval.lo
        raise EvaluationError("cannot evaluate a proper interval literal concretely")
    if isinstance(term, Lam):
        return Closure(term.param, term.body, env)
    if isinstance(term, Fix):
        return FixClosure(term.fname, term.param, term.body, env)
    if isinstance(term, Sample):
        uniform = ctx.record_draw()
        if term.dist is None:
            return uniform
        return term.distribution().quantile(uniform)
    if isinstance(term, Score):
        value = _expect_real(_evaluate(term.arg, env, ctx))
        ctx.score(value)
        return value
    if isinstance(term, Prim):
        primitive = get_primitive(term.op)
        arguments = [_expect_real(_evaluate(arg, env, ctx)) for arg in term.args]
        return float(primitive(*arguments))
    if isinstance(term, If):
        condition = _expect_real(_evaluate(term.cond, env, ctx))
        branch = term.then if condition <= 0.0 else term.orelse
        return _evaluate(branch, env, ctx)
    if isinstance(term, App):
        func = _evaluate(term.func, env, ctx)
        argument = _evaluate(term.arg, env, ctx)
        return _apply(func, argument, ctx)
    raise EvaluationError(f"cannot evaluate term {term!r}")


def _apply(func: Value, argument: Value, ctx: _Context) -> Value:
    if isinstance(func, Closure):
        return _evaluate(func.body, func.env.bind(func.param, argument), ctx)
    if isinstance(func, FixClosure):
        env = func.env.bind(func.fname, func).bind(func.param, argument)
        return _evaluate(func.body, env, ctx)
    raise EvaluationError(f"application of a non-function value {func!r}")


def _expect_real(value: Value) -> float:
    if isinstance(value, (int, float)):
        return float(value)
    raise EvaluationError(f"expected a real number, got {value!r}")


def simulate(
    term: Term,
    rng: np.random.Generator,
    max_steps: int = 10_000_000,
) -> ExecutionResult:
    """Run the program once, drawing fresh uniform samples from ``rng``."""
    ctx = _Context(draw=lambda: float(rng.random()), max_steps=max_steps)
    value = _expect_real(_evaluate(term, EMPTY_ENV, ctx))
    weight = 0.0 if ctx.weight_is_zero else math.exp(ctx.log_weight)
    log_weight = -math.inf if ctx.weight_is_zero else ctx.log_weight
    return ExecutionResult(value=value, weight=weight, trace=tuple(ctx.trace), log_weight=log_weight)


def replay_extending(
    term: Term,
    trace: Trace,
    rng: np.random.Generator,
    max_steps: int = 10_000_000,
) -> ExecutionResult:
    """Replay a trace prefix, drawing fresh uniforms once it is exhausted.

    This is the re-execution primitive of lightweight trace-space MCMC: a
    proposal modifies part of the trace, and any samples the new control flow
    needs beyond the recorded prefix are drawn from the prior.
    """
    position = 0

    def draw() -> float:
        nonlocal position
        if position < len(trace):
            value = trace[position]
        else:
            value = float(rng.random())
        position += 1
        return value

    ctx = _Context(draw=draw, max_steps=max_steps)
    value = _expect_real(_evaluate(term, EMPTY_ENV, ctx))
    weight = 0.0 if ctx.weight_is_zero else math.exp(ctx.log_weight)
    log_weight = -math.inf if ctx.weight_is_zero else ctx.log_weight
    return ExecutionResult(value=value, weight=weight, trace=tuple(ctx.trace), log_weight=log_weight)


def replay(
    term: Term,
    trace: Trace,
    require_exact: bool = True,
    max_steps: int = 10_000_000,
) -> ExecutionResult:
    """Run the program on a fixed trace of uniform draws.

    With ``require_exact`` the trace must be consumed entirely (matching the
    paper's definition of a terminating trace); otherwise surplus entries are
    ignored, which is convenient for trace-space MCMC proposals.
    """
    position = 0

    def draw() -> float:
        nonlocal position
        if position >= len(trace):
            raise TraceExhausted(f"trace of length {len(trace)} exhausted")
        value = trace[position]
        position += 1
        return value

    ctx = _Context(draw=draw, max_steps=max_steps)
    value = _expect_real(_evaluate(term, EMPTY_ENV, ctx))
    if require_exact and position != len(trace):
        raise TraceExhausted(
            f"trace has {len(trace)} entries but only {position} were consumed"
        )
    weight = 0.0 if ctx.weight_is_zero else math.exp(ctx.log_weight)
    log_weight = -math.inf if ctx.weight_is_zero else ctx.log_weight
    return ExecutionResult(value=value, weight=weight, trace=tuple(ctx.trace), log_weight=log_weight)
