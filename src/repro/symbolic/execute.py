"""Stochastic symbolic execution with fixpoint over-approximation.

This is the entry point of the GuBPI analysis (paper Section 6.1, Appendix B,
Algorithm 1).  Programs are evaluated with

* every ``sample`` producing a fresh *sample variable*,
* both branches of every conditional explored (recording the guard as a
  symbolic constraint), and
* every ``score`` recorded symbolically.

Recursion is explored up to a configurable fixpoint depth ``D``; any further
application of a recursive function is replaced by its interval-type summary
(the ``approxFix`` operation): the call's result becomes an interval constant
and its weight contribution becomes an interval score.  The result is a
*finite* set of symbolic interval paths whose lower/upper denotations bracket
the program denotation (Theorem 6.2).

Exploration is *iterative*: an explicit worklist of machine states (a
CEK-style abstract machine — control term or value, environment,
continuation, per-path state) replaces the recursive ``_eval`` call tree.
Paths therefore complete one at a time, in canonical depth-first order, and
:meth:`SymbolicExecutor.iter_paths` exposes them as a generator so the
analysis phase can start consuming paths while exploration is still
enumerating (see :func:`repro.analysis.engine.analyze_path_stream`).
:meth:`SymbolicExecutor.run` is a thin wrapper that materialises the stream
into a :class:`SymbolicExecutionResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, Optional, Union

from ..distributions import Distribution, Uniform
from ..intervals import Interval, get_primitive
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
    free_variables,
)
from ..typesystem import (
    ArrowIType,
    BaseIType,
    IntervalType,
    TypeInferenceError,
    WeightedIType,
    infer_weighted_type,
)
from .paths import Relation, SymConstraint, SymbolicPath
from .value import SConst, SPrim, SVar, SymExpr, evaluate_interval

__all__ = [
    "ExecutionLimits",
    "PathExplosionError",
    "PathStream",
    "StreamStats",
    "SymbolicExecutionResult",
    "SymbolicExecutor",
    "stream_symbolic_paths",
    "symbolic_paths",
]

_UNIFORM01 = Uniform(0.0, 1.0)


class PathExplosionError(Exception):
    """Raised when symbolic execution produces more paths than allowed."""


@dataclass(frozen=True)
class ExecutionLimits:
    """Tunable limits of the symbolic exploration.

    ``max_fixpoint_depth`` is the depth limit ``D`` of Algorithm 1 (counted as
    the number of recursive-function applications along a path);
    ``max_paths`` aborts the analysis when the well-known path-explosion
    problem makes it infeasible (Section 7.5).
    """

    max_fixpoint_depth: int = 6
    max_paths: int = 50_000


@dataclass(frozen=True)
class _SClosure:
    param: str
    body: Term
    env: "._SEnv"


@dataclass(frozen=True)
class _SFixClosure:
    fname: str
    param: str
    body: Term
    env: "._SEnv"


@dataclass(frozen=True)
class _SSummaryClosure:
    """A function value produced by ``approxFix`` for higher-order fixpoints.

    Applying it does not evaluate any code: it emits the weight bound of the
    summarised call as an interval score and returns the summarised result
    (an interval constant, or another summary closure for curried functions).
    """

    itype: ArrowIType


SymValue = Union[SymExpr, _SClosure, _SFixClosure, _SSummaryClosure]


@dataclass(frozen=True)
class _SEnv:
    name: Optional[str] = None
    value: Optional[SymValue] = None
    parent: Optional["_SEnv"] = None

    def bind(self, name: str, value: SymValue) -> "_SEnv":
        return _SEnv(name, value, self)

    def lookup(self, name: str) -> SymValue:
        env: Optional[_SEnv] = self
        while env is not None:
            if env.name == name:
                assert env.value is not None
                return env.value
            env = env.parent
        raise KeyError(f"unbound variable {name!r}")


_EMPTY_SENV = _SEnv()


@dataclass
class _PathState:
    """Mutable per-path execution state (copied at branch points)."""

    distributions: list[Distribution] = field(default_factory=list)
    constraints: list[SymConstraint] = field(default_factory=list)
    scores: list[SymExpr] = field(default_factory=list)
    fix_depth: int = 0
    truncated: bool = False
    infeasible: bool = False

    def copy(self) -> "_PathState":
        return _PathState(
            distributions=list(self.distributions),
            constraints=list(self.constraints),
            scores=list(self.scores),
            fix_depth=self.fix_depth,
            truncated=self.truncated,
            infeasible=self.infeasible,
        )

    @property
    def variable_count(self) -> int:
        return len(self.distributions)

    def fresh_variable(self, dist: Distribution) -> SVar:
        self.distributions.append(dist)
        return SVar(len(self.distributions) - 1)

    def domains(self) -> list[Interval]:
        return [dist.support() for dist in self.distributions]


@dataclass(frozen=True)
class SymbolicExecutionResult:
    """All symbolic interval paths of a program plus exploration statistics.

    The result is immutable (paths are stored as a tuple) so it can be cached
    and shared between analysis queries — :class:`repro.Model` compiles a
    program once per :class:`ExecutionLimits` configuration and serves every
    downstream query from the cached result.
    """

    paths: tuple[SymbolicPath, ...]
    truncated_paths: int
    pruned_paths: int

    def __post_init__(self) -> None:
        if not isinstance(self.paths, tuple):
            object.__setattr__(self, "paths", tuple(self.paths))

    @property
    def path_count(self) -> int:
        return len(self.paths)

    @property
    def exact(self) -> bool:
        """True when no fixpoint had to be over-approximated."""
        return self.truncated_paths == 0

    # ------------------------------------------------------------------
    # Columnar view
    # ------------------------------------------------------------------
    def attach_table_source(self, builder) -> None:
        """Adopt a collector's :class:`~repro.symbolic.arena.PathTableBuilder`.

        The batch materialiser and the streamed-query cache tee both collect
        through a builder; handing it over lets :meth:`table` finalise the
        already-accumulated columns instead of re-walking the paths.
        """
        object.__setattr__(self, "_table_source", builder)

    def table(self):
        """The columnar :class:`~repro.symbolic.arena.PathTable` of this path set.

        Built lazily on first use and cached on the (immutable) result, so
        every consumer of one compiled program — the in-process columnar
        analyzers, the shared-memory dispatch transport — shares a single
        table.  When the result was produced by a builder-backed collector
        the cached columns are finalised directly; otherwise the paths are
        interned and packed on first call.
        """
        table = getattr(self, "_table", None)
        if table is None:
            source = getattr(self, "_table_source", None)
            if source is not None and len(source) == len(self.paths):
                table = source.build()
                object.__setattr__(self, "_table_source", None)
            else:
                from .arena import PathTable

                table = PathTable.from_paths(self.paths)
            object.__setattr__(self, "_table", table)
        return table


@dataclass
class StreamStats:
    """Exploration statistics of one streamed symbolic execution.

    The object is filled in *as the stream is consumed*: the counters are
    running totals and ``exhausted`` flips to True only once the generator
    has produced its last path.  A stream that raises mid-way (e.g. a
    :class:`PathExplosionError`) never exhausts — ``exhausted`` stays False
    and the counters cover the prefix produced so far.  After exhaustion the
    counters agree exactly with the fields of the
    :class:`SymbolicExecutionResult` a batch :meth:`SymbolicExecutor.run`
    would have returned.
    """

    emitted_paths: int = 0
    truncated_paths: int = 0
    pruned_paths: int = 0
    exhausted: bool = False


@dataclass
class PathStream:
    """A lazily-explored path set: a generator of paths plus live statistics.

    Iterating the stream drives the symbolic worklist; ``stats`` is updated
    in lock-step.  The stream is single-use (it wraps a generator).
    """

    paths: Iterator[SymbolicPath]
    stats: StreamStats
    limits: ExecutionLimits

    def __iter__(self) -> Iterator[SymbolicPath]:
        return self.paths


#: Worklist task modes: evaluate a term / deliver a value to a continuation.
_EVAL = 0
_DELIVER = 1

#: Continuation-frame tags (first element of each frame tuple).
_K_SCORE = "score"
_K_PRIM = "prim"
_K_IF = "if"
_K_APP_FUNC = "appf"
_K_APP_ARG = "appa"


class SymbolicExecutor:
    """Explores all symbolic paths of a program (Algorithm 1, lines 2–11).

    The exploration is an explicit-worklist abstract machine: every task is a
    ``(mode, item, env, kont, state)`` tuple — either *evaluate term ``item``*
    or *deliver value ``item`` to continuation ``kont``* — and branch points
    (symbolic conditionals) push both successor tasks instead of recursing.
    Because the worklist is a stack and the then-branch is pushed last,
    completed paths appear in exactly the depth-first, then-before-else order
    the historical recursive evaluator produced, which is the canonical path
    order the bound engine's bit-reproducible merge relies on.
    """

    def __init__(self, limits: ExecutionLimits | None = None) -> None:
        self.limits = limits or ExecutionLimits()
        self._pruned = 0
        # ``_summarise``'s typings of one run, keyed on (fixpoint term,
        # argument term, environment types).
        self._summaries: dict = {}

    # ------------------------------------------------------------------
    # Streaming exploration (the primary engine)
    # ------------------------------------------------------------------
    def iter_paths(self, term: Term, stats: Optional[StreamStats] = None) -> Iterator[SymbolicPath]:
        """Generate the symbolic paths of ``term`` one at a time.

        Paths are yielded in canonical depth-first order as soon as they
        complete — the whole path set is never materialised.  Infeasible
        paths (score certainly non-positive) are counted in ``stats`` but not
        yielded.  When the number of completed paths exceeds
        ``limits.max_paths`` a :class:`PathExplosionError` is raised
        *mid-stream*, after the paths within budget have been yielded.
        """
        stats = stats if stats is not None else StreamStats()
        self._pruned = 0
        self._summaries = {}
        max_paths = self.limits.max_paths
        completed = 0
        stack: list[tuple] = [(_EVAL, term, _EMPTY_SENV, None, _PathState())]
        while stack:
            mode, item, env, kont, state = stack.pop()

            if mode == _EVAL:
                if isinstance(item, Var):
                    stack.append((_DELIVER, env.lookup(item.name), None, kont, state))
                elif isinstance(item, Const):
                    stack.append((_DELIVER, SConst(Interval.point(item.value)), None, kont, state))
                elif isinstance(item, IntervalConst):
                    stack.append((_DELIVER, SConst(item.interval), None, kont, state))
                elif isinstance(item, Lam):
                    stack.append((_DELIVER, _SClosure(item.param, item.body, env), None, kont, state))
                elif isinstance(item, Fix):
                    stack.append(
                        (_DELIVER, _SFixClosure(item.fname, item.param, item.body, env), None, kont, state)
                    )
                elif isinstance(item, Sample):
                    dist = item.dist if item.dist is not None else _UNIFORM01
                    stack.append((_DELIVER, state.fresh_variable(dist), None, kont, state))
                elif isinstance(item, Score):
                    stack.append((_EVAL, item.arg, env, (_K_SCORE, kont), state))
                elif isinstance(item, Prim):
                    if not item.args:
                        stack.append((_DELIVER, self._make_prim(item.op, []), None, kont, state))
                    else:
                        frame = (_K_PRIM, item.op, (), tuple(item.args[1:]), env, kont)
                        stack.append((_EVAL, item.args[0], env, frame, state))
                elif isinstance(item, If):
                    stack.append((_EVAL, item.cond, env, (_K_IF, item.then, item.orelse, env, kont), state))
                elif isinstance(item, App):
                    stack.append((_EVAL, item.func, env, (_K_APP_FUNC, item.arg, env, kont), state))
                else:
                    raise TypeError(f"cannot symbolically evaluate {item!r}")
                continue

            # mode == _DELIVER: hand ``item`` (a SymValue) to the continuation.
            value = item
            if kont is None:
                completed += 1
                if completed > max_paths:
                    raise PathExplosionError(
                        f"symbolic execution exceeded {max_paths} paths; "
                        "reduce the fixpoint depth or simplify the program"
                    )
                if state.infeasible:
                    self._pruned += 1
                    stats.pruned_paths += 1
                    continue
                if not isinstance(value, SymExpr):
                    raise TypeError("program must return a ground (real-valued) result")
                stats.emitted_paths += 1
                stats.truncated_paths += int(state.truncated)
                yield SymbolicPath(
                    result=value,
                    variable_count=state.variable_count,
                    distributions=tuple(state.distributions),
                    constraints=tuple(state.constraints),
                    scores=tuple(state.scores),
                    truncated=state.truncated,
                )
                continue

            tag = kont[0]
            if tag == _K_SCORE:
                expr = self._expect_expr(value)
                stack.append((_DELIVER, expr, None, kont[1], self._record_score(expr, state)))
            elif tag == _K_PRIM:
                _, op, done, remaining, frame_env, parent = kont
                done = done + (self._expect_expr(value),)
                if remaining:
                    frame = (_K_PRIM, op, done, remaining[1:], frame_env, parent)
                    stack.append((_EVAL, remaining[0], frame_env, frame, state))
                else:
                    stack.append((_DELIVER, self._make_prim(op, list(done)), None, parent, state))
            elif tag == _K_IF:
                _, then_term, else_term, frame_env, parent = kont
                guard = self._expect_expr(value)
                if isinstance(guard, SConst) and guard.interval.hi <= 0.0:
                    stack.append((_EVAL, then_term, frame_env, parent, state))
                elif isinstance(guard, SConst) and guard.interval.lo > 0.0:
                    stack.append((_EVAL, else_term, frame_env, parent, state))
                else:
                    then_state = state.copy()
                    then_state.constraints.append(SymConstraint(guard, Relation.LEQ))
                    state.constraints.append(SymConstraint(guard, Relation.GT))
                    # Else first, then first-popped: canonical then-before-else order.
                    stack.append((_EVAL, else_term, frame_env, parent, state))
                    stack.append((_EVAL, then_term, frame_env, parent, then_state))
            elif tag == _K_APP_FUNC:
                _, arg_term, frame_env, parent = kont
                stack.append((_EVAL, arg_term, frame_env, (_K_APP_ARG, value, parent), state))
            elif tag == _K_APP_ARG:
                _, func, parent = kont
                if isinstance(func, _SClosure):
                    stack.append((_EVAL, func.body, func.env.bind(func.param, value), parent, state))
                elif isinstance(func, _SSummaryClosure):
                    summary, state = self._apply_summary(func.itype, state)
                    stack.append((_DELIVER, summary, None, parent, state))
                elif isinstance(func, _SFixClosure):
                    if state.fix_depth >= self.limits.max_fixpoint_depth:
                        summary, state = self._approx_fix(func, value, state)
                        stack.append((_DELIVER, summary, None, parent, state))
                    else:
                        state.fix_depth += 1
                        call_env = func.env.bind(func.fname, func).bind(func.param, value)
                        stack.append((_EVAL, func.body, call_env, parent, state))
                else:
                    raise TypeError(f"application of a non-function symbolic value {func!r}")
            else:  # pragma: no cover - defensive
                raise AssertionError(f"unknown continuation frame {tag!r}")
        stats.exhausted = True

    def stream_run(self, term: Term) -> PathStream:
        """Start a streamed exploration: a path generator plus live stats."""
        stats = StreamStats()
        return PathStream(paths=self.iter_paths(term, stats), stats=stats, limits=self.limits)

    # ------------------------------------------------------------------
    def run(self, term: Term) -> SymbolicExecutionResult:
        """Materialise the full path set by collecting the stream columnar-first.

        The batch collector is a :class:`~repro.symbolic.arena.PathTableBuilder`:
        every completed path is structurally interned and appended to the
        columnar tables as it is produced, so the result's paths carry full
        DAG sharing and :meth:`SymbolicExecutionResult.table` finalises
        without another walk.
        """
        from .arena import PathTableBuilder

        stats = StreamStats()
        builder = PathTableBuilder()
        for path in self.iter_paths(term, stats):
            builder.append(path)
        result = SymbolicExecutionResult(
            paths=tuple(builder.paths),
            truncated_paths=stats.truncated_paths,
            pruned_paths=stats.pruned_paths,
        )
        result.attach_table_source(builder)
        return result

    # ------------------------------------------------------------------
    # approxFix: summarise a fixpoint via the interval type system
    # ------------------------------------------------------------------
    def _approx_fix(
        self, closure: _SFixClosure, argument: SymValue, state: _PathState
    ) -> tuple[SymValue, _PathState]:
        state.truncated = True
        weighted = self._summarise(closure, argument, state)
        return self._emit_summary(weighted, state)

    def _apply_summary(self, itype: ArrowIType, state: _PathState) -> tuple[SymValue, _PathState]:
        """Apply a summary closure: emit its weight bound and return its result."""
        state.truncated = True
        return self._emit_summary(itype.res, state)

    def _emit_summary(self, weighted: WeightedIType, state: _PathState) -> tuple[SymValue, _PathState]:
        result_state = state
        weight = weighted.weight.meet(Interval(0.0, math.inf))
        if weight.is_empty:
            weight = Interval(0.0, math.inf)
        if weight != Interval.point(1.0):
            result_state = self._record_score(SConst(weight), result_state)
        if isinstance(weighted.wtype, ArrowIType):
            return _SSummaryClosure(weighted.wtype), result_state
        if isinstance(weighted.wtype, BaseIType):
            return SConst(weighted.wtype.interval), result_state
        return SConst(Interval(-math.inf, math.inf)), result_state

    def _summarise(self, closure: _SFixClosure, argument: SymValue, state: _PathState) -> WeightedIType:
        """The weighted interval type of applying ``closure`` to ``argument``.

        Typing is a pure function of the fixpoint term, the argument's
        interval and the environment's types, so each distinct application
        is typed once per run (``_summaries``).
        """
        domains = state.domains()
        fix_term = Fix(closure.fname, closure.param, closure.body)
        try:
            if isinstance(argument, SymExpr):
                argument_term: Optional[Term] = IntervalConst(evaluate_interval(argument, domains))
            else:
                # A function-valued argument: type the bare fixpoint and apply
                # its arrow type conservatively below.
                argument_term = None
            env_types = self._environment_types(fix_term, closure.env, domains, depth=2)
        except Exception:
            return _CONSERVATIVE
        key = (fix_term, argument_term, frozenset(env_types.items()))
        weighted = self._summaries.get(key)
        if weighted is None:
            weighted = self._summaries[key] = _type_application(fix_term, argument_term, env_types)
        return weighted

    def _environment_types(
        self, term: Term, env: _SEnv, domains: list[Interval], depth: int
    ) -> Dict[str, IntervalType]:
        """Interval types for the free variables captured by a closure."""
        result: Dict[str, IntervalType] = {}
        for name in free_variables(term):
            value = env.lookup(name)
            result[name] = self._interval_type_of(value, domains, depth)
        return result

    def _interval_type_of(self, value: SymValue, domains: list[Interval], depth: int) -> IntervalType:
        if isinstance(value, SymExpr):
            return BaseIType(evaluate_interval(value, domains))
        if depth <= 0:
            raise TypeInferenceError("closure nesting too deep for approxFix summaries")
        if isinstance(value, _SClosure):
            inner_term: Term = Lam(value.param, value.body)
        else:
            inner_term = Fix(value.fname, value.param, value.body)
        env_types = self._environment_types(inner_term, value.env, domains, depth - 1)
        weighted = infer_weighted_type(inner_term, env_types)
        return weighted.wtype

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _record_score(self, expr: SymExpr, state: _PathState) -> _PathState:
        bounds = evaluate_interval(expr, state.domains())
        if bounds.hi <= 0.0:
            # Scoring a value that is certainly non-positive makes the weight
            # of every completion of this path zero (negative scores are
            # errors of weight zero), so the path contributes nothing.
            state.infeasible = True
            return state
        if isinstance(expr, SConst) and expr.interval == Interval.point(1.0):
            return state
        if not isinstance(expr, SConst) and bounds.lo < 0.0:
            # As in the paper, record that the score argument must be >= 0;
            # when the interval bound already proves non-negativity (the
            # common pdf case) the constraint is redundant and would only
            # spoil linearity of the path.
            state.constraints.append(SymConstraint(expr, Relation.GEQ))
        state.scores.append(expr)
        return state

    def _make_prim(self, op: str, args: list[SymExpr]) -> SymExpr:
        if all(isinstance(arg, SConst) for arg in args):
            primitive = get_primitive(op)
            folded = primitive.apply_interval(*(arg.interval for arg in args))  # type: ignore[union-attr]
            return SConst(folded)
        return _simplify_prim(op, args)

    def _expect_expr(self, value: SymValue) -> SymExpr:
        if isinstance(value, SymExpr):
            return value
        raise TypeError(f"expected a ground symbolic value, got {value!r}")


#: The summary of a fixpoint application that could not be typed.
_CONSERVATIVE = WeightedIType(BaseIType(Interval(-math.inf, math.inf)), Interval(0.0, math.inf))


def _type_application(
    fix_term: Fix, argument_term: Optional[Term], env_types: Dict[str, IntervalType]
) -> WeightedIType:
    """``fix_term`` applied to ``argument_term`` (``None``: a function-valued
    argument, applied conservatively), typed under ``env_types``."""
    try:
        if argument_term is None:
            weighted = infer_weighted_type(fix_term, env_types)
            if isinstance(weighted.wtype, ArrowIType):
                return weighted.wtype.res
            return _CONSERVATIVE
        return infer_weighted_type(App(fix_term, argument_term), env_types)
    except Exception:
        return _CONSERVATIVE


def _is_zero(expr: SymExpr) -> bool:
    return isinstance(expr, SConst) and expr.interval == Interval.point(0.0)


def _is_one(expr: SymExpr) -> bool:
    return isinstance(expr, SConst) and expr.interval == Interval.point(1.0)


def _simplify_prim(op: str, args: list[SymExpr]) -> SymExpr:
    """Peephole simplification of postponed primitive applications.

    Keeping symbolic values small matters: it speeds up interval evaluation
    and helps the single-use side condition of the completeness theorem.
    """
    if op == "add":
        left, right = args
        if _is_zero(left):
            return right
        if _is_zero(right):
            return left
    elif op == "sub":
        left, right = args
        if _is_zero(right):
            return left
    elif op == "mul":
        left, right = args
        if _is_one(left):
            return right
        if _is_one(right):
            return left
        if _is_zero(left) or _is_zero(right):
            return SConst(Interval.point(0.0))
    elif op == "div":
        left, right = args
        if _is_one(right):
            return left
    return SPrim(op, tuple(args))


def symbolic_paths(term: Term, limits: ExecutionLimits | None = None) -> SymbolicExecutionResult:
    """Convenience wrapper: all symbolic interval paths of ``term``."""
    return SymbolicExecutor(limits).run(term)


def stream_symbolic_paths(term: Term, limits: ExecutionLimits | None = None) -> PathStream:
    """Convenience wrapper: a lazily-explored :class:`PathStream` of ``term``.

    The returned stream yields exactly the paths :func:`symbolic_paths` would
    materialise, in the same canonical order, but one at a time — the
    streaming bound engine consumes it to overlap path analysis with
    exploration.
    """
    return SymbolicExecutor(limits).stream_run(term)
