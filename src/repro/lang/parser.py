"""An s-expression surface syntax for SPCF.

The parser is a convenience for writing models in text form (and for tests);
the benchmark suite itself constructs programs through the builder eDSL.

Grammar (s-expressions)::

    expr ::= NUMBER | SYMBOL
           | (let SYMBOL expr expr)
           | (lam SYMBOL expr)         | (fix SYMBOL SYMBOL expr)
           | (app expr expr+)          | (if expr expr expr)
           | (sample) | (sample DIST-NAME NUMBER*)
           | (score expr)              | (observe DIST-NAME expr* expr)
           | (choice NUMBER expr expr) | (interval NUMBER NUMBER)
           | (OP expr*)                -- any registered primitive, or + - * /

``(if c a b)`` takes the first branch when ``c <= 0``, matching SPCF.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..distributions import Beta, Cauchy, Distribution, Exponential, Gamma, Normal, Uniform
from ..intervals import REGISTRY, Interval
from .ast import (
    App, Const, Fix, If, IntervalConst, Lam, Prim, Sample, Score, Term, Var, free_variables,
)
from .builder import choice, let, observe, to_term

__all__ = ["parse", "ParseError", "require_closed"]


class ParseError(Exception):
    """Raised on malformed input."""


_OP_ALIASES = {"+": "add", "-": "sub", "*": "mul", "/": "div"}

_DISTRIBUTIONS: dict[str, type] = {
    "uniform": Uniform,
    "normal": Normal,
    "beta": Beta,
    "exponential": Exponential,
    "gamma": Gamma,
    "cauchy": Cauchy,
}


def _tokenize(source: str) -> Iterator[str]:
    token = ""
    for char in source:
        if char in "()":
            if token:
                yield token
                token = ""
            yield char
        elif char.isspace():
            if token:
                yield token
                token = ""
        else:
            token += char
    if token:
        yield token


def _read(tokens: list[str], position: int) -> tuple[object, int]:
    if position >= len(tokens):
        raise ParseError("unexpected end of input")
    token = tokens[position]
    if token == "(":
        items: list[object] = []
        position += 1
        while position < len(tokens) and tokens[position] != ")":
            item, position = _read(tokens, position)
            items.append(item)
        if position >= len(tokens):
            raise ParseError("missing closing parenthesis")
        return items, position + 1
    if token == ")":
        raise ParseError("unexpected ')'")
    return token, position + 1


def _as_number(token: object) -> float:
    try:
        return float(token)  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise ParseError(f"expected a number, got {token!r}") from exc


def _as_binder(token: object) -> str:
    """A binder must be a symbol, not a number."""
    if not isinstance(token, str):
        raise ParseError(f"expected a variable name, got {token!r}")
    try:
        float(token)
    except ValueError:
        return token
    raise ParseError(f"variable names must not be numbers: {token!r}")


def _make_distribution(name: str, params: Sequence[float]) -> Distribution:
    if name not in _DISTRIBUTIONS:
        raise ParseError(f"unknown distribution {name!r}")
    try:
        return _DISTRIBUTIONS[name](*params)
    except TypeError as exc:
        raise ParseError(f"bad parameters for distribution {name!r}: {params}") from exc


def _build(node: object) -> Term:
    if isinstance(node, str):
        try:
            return Const(float(node))
        except ValueError:
            return Var(node)
    if not isinstance(node, list) or not node:
        raise ParseError(f"cannot parse {node!r}")
    head = node[0]
    if not isinstance(head, str):
        # Application of a compound expression.
        result = _build(head)
        for arg in node[1:]:
            result = App(result, _build(arg))
        return result
    rest = node[1:]
    if head == "let":
        if len(rest) != 3:
            raise ParseError("let expects (let name value body)")
        return let(_as_binder(rest[0]), _build(rest[1]), _build(rest[2]))
    if head == "lam":
        if len(rest) != 2:
            raise ParseError("lam expects (lam param body)")
        return Lam(_as_binder(rest[0]), _build(rest[1]))
    if head == "fix":
        if len(rest) != 3:
            raise ParseError("fix expects (fix fname param body)")
        return Fix(_as_binder(rest[0]), _as_binder(rest[1]), _build(rest[2]))
    if head == "app":
        if len(rest) < 2:
            raise ParseError("app expects at least a function and one argument")
        result = _build(rest[0])
        for arg in rest[1:]:
            result = App(result, _build(arg))
        return result
    if head == "if":
        if len(rest) != 3:
            raise ParseError("if expects (if cond then else)")
        return If(_build(rest[0]), _build(rest[1]), _build(rest[2]))
    if head == "sample":
        if not rest:
            return Sample(None)
        if not isinstance(rest[0], str):
            raise ParseError("sample expects a distribution name")
        params = [_as_number(p) for p in rest[1:]]
        return Sample(_make_distribution(rest[0], params))
    if head == "score":
        if len(rest) != 1:
            raise ParseError("score expects one argument")
        return Score(_build(rest[0]))
    if head == "observe":
        if len(rest) < 2 or not isinstance(rest[0], str):
            raise ParseError("observe expects (observe dist-name params* value)")
        params = [_as_number(p) for p in rest[1:-1]]
        dist = _make_distribution(rest[0], params)
        return observe(_build(rest[-1]), dist)
    if head == "choice":
        if len(rest) != 3:
            raise ParseError("choice expects (choice p left right)")
        return choice(_as_number(rest[0]), _build(rest[1]), _build(rest[2]))
    if head == "interval":
        if len(rest) != 2:
            raise ParseError("interval expects two numbers")
        return IntervalConst(Interval(_as_number(rest[0]), _as_number(rest[1])))
    op = _OP_ALIASES.get(head, head)
    if op in REGISTRY:
        args = tuple(_build(arg) for arg in rest)
        return Prim(op, args)
    # Fall back to application of a named function.
    result: Term = Var(head)
    for arg in rest:
        result = App(result, _build(arg))
    return result


def parse(source: str) -> Term:
    """Parse a single s-expression into an SPCF term."""
    tokens = list(_tokenize(source))
    if not tokens:
        raise ParseError("empty input")
    node, position = _read(tokens, 0)
    if position != len(tokens):
        raise ParseError("trailing tokens after the first expression")
    return _build(node)


def require_closed(term: Term) -> Term:
    """``term``, if it has no free variables; else :class:`ParseError`
    naming them.

    An operator the parser does not know, such as ``<=`` in
    ``(<= x 0.5)``, reads as an application of a variable of that name, so
    a program using one is open and has no meaning to analyse.
    """
    free = free_variables(term)
    if free:
        raise ParseError(f"unbound variable(s): {', '.join(sorted(free))}")
    return term
