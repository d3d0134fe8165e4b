"""Linear forms over sample variables and their extraction from symbolic values.

The optimised linear interval trace semantics (paper Section 6.4) applies when
path constraints and the return value are *interval linear* functions
``α ↦ wᵀα + [a, b]`` and every score value can be written as
``f(Z_1, ..., Z_m)`` with the ``Z_j`` linear (Appendix E.1).  This module
provides:

* :class:`LinearForm` — a sparse linear function of the sample variables with
  an interval constant part,
* :func:`extract_linear` — recognise a symbolic value as a linear form, and
* :func:`decompose_score` — rewrite an arbitrary symbolic value as a template
  over linear *atoms*, so that interval arithmetic on atom bounds yields sound
  bounds on the whole expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..intervals import Interval
from .value import SAtom, SConst, SPrim, SVar, SymExpr

__all__ = ["LinearForm", "extract_linear", "ScoreDecomposition", "decompose_score"]


@dataclass(frozen=True)
class LinearForm:
    """An interval-linear function ``α ↦ Σ_i coeffs[i]·α_i + constant``."""

    coeffs: tuple[tuple[int, float], ...]
    constant: Interval

    # -- constructors ----------------------------------------------------
    @staticmethod
    def from_dict(coeffs: Dict[int, float], constant: Interval) -> "LinearForm":
        cleaned = tuple(sorted((i, c) for i, c in coeffs.items() if c != 0.0))
        return LinearForm(cleaned, constant)

    @staticmethod
    def constant_form(constant: Interval) -> "LinearForm":
        return LinearForm((), constant)

    @staticmethod
    def variable(index: int) -> "LinearForm":
        return LinearForm(((index, 1.0),), Interval.point(0.0))

    # -- accessors -------------------------------------------------------
    @property
    def coefficient_dict(self) -> Dict[int, float]:
        return dict(self.coeffs)

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def variables(self) -> set[int]:
        return {index for index, _ in self.coeffs}

    # -- arithmetic ------------------------------------------------------
    def add(self, other: "LinearForm") -> "LinearForm":
        coeffs = self.coefficient_dict
        for index, coeff in other.coeffs:
            coeffs[index] = coeffs.get(index, 0.0) + coeff
        return LinearForm.from_dict(coeffs, self.constant + other.constant)

    def negate(self) -> "LinearForm":
        return LinearForm(tuple((i, -c) for i, c in self.coeffs), -self.constant)

    def subtract(self, other: "LinearForm") -> "LinearForm":
        return self.add(other.negate())

    def scale(self, factor: float) -> "LinearForm":
        return LinearForm(
            tuple((i, c * factor) for i, c in self.coeffs),
            self.constant * Interval.point(factor),
        )

    # -- evaluation ------------------------------------------------------
    def evaluate(self, assignment: Sequence[float]) -> float:
        """Concrete evaluation; requires a point constant part."""
        if not self.constant.is_point:
            raise ValueError("cannot concretely evaluate an interval-linear form")
        return self.constant.lo + sum(c * assignment[i] for i, c in self.coeffs)

    def evaluate_interval(self, bounds: Sequence[Interval]) -> Interval:
        result = self.constant
        for index, coeff in self.coeffs:
            result = result + bounds[index] * Interval.point(coeff)
        return result

    def as_dense(self, dimension: int) -> list[float]:
        """Dense coefficient vector of length ``dimension``."""
        row = [0.0] * dimension
        for index, coeff in self.coeffs:
            if index >= dimension:
                raise ValueError(f"variable α_{index} outside dimension {dimension}")
            row[index] = coeff
        return row

    def dense_row(self, dimension: int) -> list[float]:
        """:meth:`as_dense`, memoised per dimension.

        The linear analyzer densifies the same atom for every polytope it is
        bounded over; the form is immutable, so the row can be shared.  The
        returned list must be treated as read-only.
        """
        memo = self.__dict__.get("_dense_memo")
        if memo is None:
            memo = {}
            object.__setattr__(self, "_dense_memo", memo)
        row = memo.get(dimension)
        if row is None:
            row = memo[dimension] = self.as_dense(dimension)
        return row

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        terms = " + ".join(f"{c:g}·α{i}" for i, c in self.coeffs)
        return f"LinearForm({terms or '0'} + {self.constant!r})"


def extract_linear(expr: SymExpr) -> Optional[LinearForm]:
    """Recognise a symbolic value as an interval-linear form, or ``None``."""
    if isinstance(expr, SVar):
        return LinearForm.variable(expr.index)
    if isinstance(expr, SConst):
        return LinearForm.constant_form(expr.interval)
    if isinstance(expr, SAtom):
        return None
    if isinstance(expr, SPrim):
        if expr.op == "add":
            parts = [extract_linear(arg) for arg in expr.args]
            if all(part is not None for part in parts):
                return parts[0].add(parts[1])  # type: ignore[union-attr]
            return None
        if expr.op == "sub":
            parts = [extract_linear(arg) for arg in expr.args]
            if all(part is not None for part in parts):
                return parts[0].subtract(parts[1])  # type: ignore[union-attr]
            return None
        if expr.op == "neg":
            inner = extract_linear(expr.args[0])
            return inner.negate() if inner is not None else None
        if expr.op == "mul":
            left = extract_linear(expr.args[0])
            right = extract_linear(expr.args[1])
            if left is None or right is None:
                return None
            if left.is_constant and left.constant.is_point:
                return right.scale(left.constant.lo)
            if right.is_constant and right.constant.is_point:
                return left.scale(right.constant.lo)
            if left.is_constant and right.is_constant:
                return LinearForm.constant_form(left.constant * right.constant)
            return None
        if expr.op == "div":
            left = extract_linear(expr.args[0])
            right = extract_linear(expr.args[1])
            if left is None or right is None:
                return None
            if right.is_constant and right.constant.is_point and right.constant.lo != 0.0:
                return left.scale(1.0 / right.constant.lo)
            if left.is_constant and right.is_constant:
                return LinearForm.constant_form(left.constant / right.constant)
            return None
        # Any other primitive applied to constants only is still a constant.
        parts = [extract_linear(arg) for arg in expr.args]
        if all(part is not None and part.is_constant for part in parts):
            from ..intervals import get_primitive

            primitive = get_primitive(expr.op)
            return LinearForm.constant_form(
                primitive.apply_interval(*(part.constant for part in parts))  # type: ignore[union-attr]
            )
        return None
    raise TypeError(f"unknown symbolic expression {expr!r}")


@dataclass(frozen=True)
class ScoreDecomposition:
    """A score value written as ``template(atom_1, ..., atom_k)``.

    ``template`` only mentions :class:`SAtom` leaves and constants; evaluating
    it with interval bounds on the atoms (via
    :func:`repro.symbolic.value.evaluate_with_atoms`) gives sound bounds on
    the original expression whenever the atom bounds are sound.
    """

    template: SymExpr
    atoms: tuple[LinearForm, ...]

    @property
    def is_linear(self) -> bool:
        return isinstance(self.template, SAtom) and len(self.atoms) == 1


def decompose_score(expr: SymExpr, atoms: Optional[list[LinearForm]] = None) -> ScoreDecomposition:
    """Decompose an arbitrary score value into a template over linear atoms.

    Maximal linear sub-expressions become atoms; everything above them is kept
    as a template evaluated in interval arithmetic (Appendix E.1).  Atoms are
    de-duplicated structurally so that the same linear form bounded once can
    be reused in several positions.
    """
    collected: list[LinearForm] = [] if atoms is None else atoms

    def atom_index(form: LinearForm) -> int:
        for index, existing in enumerate(collected):
            if existing == form:
                return index
        collected.append(form)
        return len(collected) - 1

    def rewrite(node: SymExpr) -> SymExpr:
        linear = extract_linear(node)
        if linear is not None:
            if linear.is_constant:
                return SConst(linear.constant)
            return SAtom(atom_index(linear))
        if isinstance(node, SPrim):
            return SPrim(node.op, tuple(rewrite(arg) for arg in node.args))
        # A bare sample variable or constant is always linear, so the only
        # remaining possibility is an atom placeholder that was already there.
        if isinstance(node, SAtom):
            return node
        raise TypeError(f"cannot decompose symbolic expression {node!r}")

    template = rewrite(expr)
    return ScoreDecomposition(template=template, atoms=tuple(collected))
