"""Structural interning of symbolic expressions, and program fingerprints.

Symbolic paths produced by branching exploration frequently contain *equal
but distinct* sub-expressions: symmetric branches rebuild the same guard and
score values independently, so a 50k-path workload carries the same
``add(α₀, α₁)``-shaped trees thousands of times.  Interning makes
structurally equal expressions the *same object*, so the path-table builder
(:class:`repro.symbolic.arena.PathTableBuilder`) stores each one as a single
shared node.  Interning never changes values — all symbolic expression nodes
are immutable frozen dataclasses, so sharing is safe.

The memo is keyed by the expressions themselves (structural equality/hash of
the frozen dataclasses), so one memo serves a whole path set.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Dict

from .paths import SymConstraint, SymbolicPath
from .value import SPrim, SymExpr

__all__ = [
    "fingerprint_term",
    "intern_expr",
    "intern_constraint",
    "intern_path",
]


_DOUBLE = struct.Struct("<d")


def fingerprint_term(term) -> str:
    """A stable hexadecimal digest of an SPCF term's structure.

    The canonical **program hash** of the service tier: two terms have equal
    fingerprints iff they are structurally equal (same constructors, same
    variable names, same constants bit-for-bit, same primitive ops and
    distribution annotations), so parsing the same program text always lands
    on the same digest — across processes, sessions and hosts.  The walk is
    iterative (pre-order with explicit arity framing), so deeply nested
    programs never hit the recursion limit, and every float is folded in as
    its IEEE-754 bytes, so ``0.1`` and ``0.1 + 1e-17`` never collide by
    formatting.

    The digest is purely structural — alpha-equivalent programs with
    different bound-variable names hash differently (a conservative cache
    key: distinct digests can only cost a cache miss, never a wrong hit).
    """
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

    if not isinstance(term, Term):
        raise TypeError(f"fingerprint_term expects an SPCF Term, got {type(term).__name__}")
    digest = hashlib.blake2b(digest_size=16)
    update = digest.update
    stack = [term]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            update(b"V")
            update(node.name.encode())
        elif isinstance(node, Const):
            update(b"C")
            update(_DOUBLE.pack(node.value))
        elif isinstance(node, IntervalConst):
            update(b"I")
            update(_DOUBLE.pack(node.interval.lo))
            update(_DOUBLE.pack(node.interval.hi))
        elif isinstance(node, Lam):
            update(b"L")
            update(node.param.encode())
            stack.append(node.body)
        elif isinstance(node, Fix):
            update(b"F")
            update(node.fname.encode())
            update(b"\x00")
            update(node.param.encode())
            stack.append(node.body)
        elif isinstance(node, App):
            update(b"A")
            stack.append(node.arg)
            stack.append(node.func)
        elif isinstance(node, If):
            update(b"?")
            stack.append(node.orelse)
            stack.append(node.then)
            stack.append(node.cond)
        elif isinstance(node, Prim):
            update(b"P")
            update(node.op.encode())
            update(struct.pack("<I", len(node.args)))
            stack.extend(reversed(node.args))
        elif isinstance(node, Sample):
            update(b"S")
            if node.dist is not None:
                # Distribution records are frozen dataclasses of floats; the
                # repr spells class name + parameters with round-trip float
                # formatting, which is exactly the structural content.
                update(repr(node.dist).encode())
        elif isinstance(node, Score):
            update(b"W")
            stack.append(node.arg)
        else:
            raise TypeError(f"cannot fingerprint term {node!r}")
        # Terminate every node's field block so adjacent nodes cannot
        # reassociate (e.g. Var("ab") Var("c") vs Var("a") Var("bc")).
        update(b"\x1f")
    return digest.hexdigest()


def intern_expr(expr: SymExpr, memo: Dict[object, object]) -> SymExpr:
    """The canonical instance of ``expr`` (bottom-up, children first).

    Recursion depth is bounded by the expression depth, which symbolic
    execution keeps proportional to the (finite) fixpoint depth.
    """
    if isinstance(expr, SPrim):
        args = tuple(intern_expr(arg, memo) for arg in expr.args)
        if any(new is not old for new, old in zip(args, expr.args)):
            expr = SPrim(expr.op, args)
    return memo.setdefault(expr, expr)  # type: ignore[return-value]


def intern_constraint(constraint: SymConstraint, memo: Dict[object, object]) -> SymConstraint:
    """The canonical instance of a branching constraint."""
    expr = intern_expr(constraint.expr, memo)
    if expr is not constraint.expr:
        constraint = SymConstraint(expr, constraint.relation)
    return memo.setdefault(constraint, constraint)  # type: ignore[return-value]


def intern_path(path: SymbolicPath, memo: Dict[object, object]) -> SymbolicPath:
    """A path whose expressions are replaced by their canonical instances.

    Distributions are left as-is: they are shared by construction (branch
    states copy the *list*, not the records) and are not generally hashable.
    """
    result = intern_expr(path.result, memo)
    constraints = tuple(intern_constraint(c, memo) for c in path.constraints)
    scores = tuple(intern_expr(score, memo) for score in path.scores)
    if (
        result is path.result
        and all(new is old for new, old in zip(constraints, path.constraints))
        and all(new is old for new, old in zip(scores, path.scores))
    ):
        return path
    return SymbolicPath(
        result=result,
        variable_count=path.variable_count,
        distributions=path.distributions,
        constraints=constraints,
        scores=scores,
        truncated=path.truncated,
    )
