"""Brute-force vertex enumeration and exact polytope volumes: the test oracle.

* :func:`enumerate_vertices` intersects every choice of ``n`` constraint
  hyperplanes of ``{x : A x ≤ b}`` in floats and keeps the feasible points;
  :func:`volume_by_enumeration` is Qhull's volume over them.
* :func:`exact_volume` is the rational volume.  Every float is a dyadic
  rational, so scaling each row by a power of two makes it an exact integer
  row.  The float pass only proposes candidate vertices; each is solved
  again in integers (homogeneous coordinates) and kept only if it satisfies
  every row exactly.  The volume is a sum of exact determinants over a
  pulling triangulation built on the exact face lattice (which rows are
  tight at which vertex), so no float decides anything in the result.

The cost is ``O(C(m, n))`` float solves plus integer arithmetic per vertex
and simplex: fine for the small path polytopes of the tests, never a
production path.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from repro.polytope import Polytope

__all__ = ["enumerate_vertices", "exact_volume", "volume_by_enumeration"]


def enumerate_vertices(polytope: Polytope, tolerance: float = 1e-9) -> np.ndarray:
    """All vertices of the polytope, in floats (may be empty)."""
    dimension = polytope.dimension
    if dimension == 0:
        return np.zeros((0, 0))
    vertices: list[np.ndarray] = []
    rows = polytope.a
    rhs = polytope.b
    for subset in itertools.combinations(range(polytope.constraint_count), dimension):
        sub_a = rows[list(subset)]
        sub_b = rhs[list(subset)]
        if abs(np.linalg.det(sub_a)) < tolerance:
            continue
        point = np.linalg.solve(sub_a, sub_b)
        if polytope.contains(point, tolerance=1e-7):
            if not any(np.allclose(point, existing, atol=1e-7) for existing in vertices):
                vertices.append(point)
    if not vertices:
        return np.zeros((0, dimension))
    return np.vstack(vertices)


def volume_by_enumeration(polytope: Polytope) -> Optional[float]:
    """Qhull's volume over the brute-force vertices (``None`` on failure)."""
    dimension = polytope.dimension
    vertices = enumerate_vertices(polytope)
    if len(vertices) == 0:
        return 0.0
    if dimension == 1:
        return float(vertices.max() - vertices.min())
    if len(vertices) <= dimension:
        return 0.0
    try:
        hull = ConvexHull(vertices, qhull_options="QJ")
    except (QhullError, ValueError):
        return None
    return float(hull.volume)


# ----------------------------------------------------------------------
# Exact arithmetic
# ----------------------------------------------------------------------

def _integer_rows(polytope: Polytope) -> tuple[list[list[int]], list[int]]:
    """``(A, b)`` with each row scaled by a power of two to integers.

    Every float is a dyadic rational, so the scaling is exact and keeps the
    halfspace ``a·x ≤ b`` the same set.
    """
    rows, rhs = [], []
    for row, limit in zip(polytope.a, polytope.b):
        ratios = [float(x).as_integer_ratio() for x in (*row, limit)]
        scale = max(den for _, den in ratios)
        scaled = [num * (scale // den) for num, den in ratios]
        rows.append(scaled[:-1])
        rhs.append(scaled[-1])
    return rows, rhs


def _solve(matrix: list[list[int]], rhs: list[int]) -> Optional[tuple[int, ...]]:
    """The solution of an integer system in homogeneous form
    ``(x_1·w, …, x_n·w, w)`` with ``w > 0`` and no common factor, ``None``
    if singular (fraction-free Gauss–Jordan elimination)."""
    size = len(matrix)
    rows = [list(row) + [value] for row, value in zip(matrix, rhs)]
    previous = 1
    for column in range(size):
        pivot = next((r for r in range(column, size) if rows[r][column]), None)
        if pivot is None:
            return None
        rows[column], rows[pivot] = rows[pivot], rows[column]
        head = rows[column]
        for r in range(size):
            if r != column:
                factor = rows[r][column]
                rows[r] = [(head[column] * x - factor * y) // previous for x, y in zip(rows[r], head)]
        previous = head[column]
    point = [rows[r][size] for r in range(size)] + [previous]
    if previous < 0:
        point = [-x for x in point]
    common = math.gcd(*point)
    return tuple(x // common for x in point)


def _rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix (fraction-free elimination)."""
    rows = [list(row) for row in rows]
    rank = 0
    width = len(rows[0]) if rows else 0
    for column in range(width):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][column]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        head = rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][column]
            rows[r] = [head[column] * x - factor * y for x, y in zip(rows[r], head)]
        rank += 1
    return rank


def _determinant(matrix: list[list[int]]) -> int:
    """Determinant of a square integer matrix (Bareiss)."""
    rows = [list(row) for row in matrix]
    size = len(rows)
    sign, previous = 1, 1
    for column in range(size - 1):
        pivot = next((r for r in range(column, size) if rows[r][column]), None)
        if pivot is None:
            return 0
        if pivot != column:
            rows[column], rows[pivot] = rows[pivot], rows[column]
            sign = -sign
        head = rows[column]
        for r in range(column + 1, size):
            factor = rows[r][column]
            rows[r] = [(head[column] * x - factor * y) // previous for x, y in zip(rows[r], head)]
        previous = head[column]
    return sign * rows[-1][-1]


def exact_vertices(polytope: Polytope) -> list[tuple[int, ...]]:
    """Every vertex of the polytope, in homogeneous integer coordinates
    ``(x_1·w, …, x_n·w, w)``.

    Candidates come from a float solve of every ``n``-subset of rows that
    lands within a loose tolerance of the polytope; each is solved again
    exactly and kept only if it satisfies every row exactly.
    """
    a, b = polytope.a, polytope.b
    count, dimension = a.shape
    rows, rhs = _integer_rows(polytope)
    subsets = np.array(list(itertools.combinations(range(count), dimension)))
    if len(subsets) == 0:
        return []
    matrices = a[subsets]
    regular = np.abs(np.linalg.det(matrices)) > 1e-13
    subsets, matrices = subsets[regular], matrices[regular]
    if len(subsets) == 0:
        return []
    points = np.linalg.solve(matrices, b[subsets][..., None])[..., 0]
    slack = points @ a.T - b
    near = (slack <= 1e-6 * (1.0 + np.abs(b))).all(axis=1)
    found: dict[tuple[int, ...], None] = {}
    for subset in subsets[near]:
        point = _solve([rows[r] for r in subset], [rhs[r] for r in subset])
        if point is None or point in found:
            continue
        if all(
            sum(c * x for c, x in zip(row, point)) <= limit * point[-1]
            for row, limit in zip(rows, rhs)
        ):
            found[point] = None
    return list(found)


def exact_volume(polytope: Polytope) -> Fraction:
    """The exact volume of the polytope (which must be bounded).

    A pulling triangulation over the exact face lattice: a face of
    dimension ``k`` is split into the cones from its least vertex over its
    ``(k−1)``-faces that miss that vertex, recursively, and the simplices'
    exact determinants are summed.
    """
    dimension = polytope.dimension
    vertices = exact_vertices(polytope)
    if len(vertices) <= dimension:
        return Fraction(0)
    rows, rhs = _integer_rows(polytope)
    tight = [
        frozenset(
            r for r, (row, limit) in enumerate(zip(rows, rhs))
            if sum(c * x for c, x in zip(row, vertex)) == limit * vertex[-1]
        )
        for vertex in vertices
    ]
    ranks: dict[frozenset, int] = {}

    def face_dimension(face: frozenset) -> int:
        common = frozenset.intersection(*(tight[v] for v in face))
        if common not in ranks:
            ranks[common] = _rank([rows[r] for r in common]) if common else 0
        return dimension - ranks[common]

    if face_dimension(frozenset(range(len(vertices)))) < dimension:
        return Fraction(0)
    memo: dict[frozenset, list[tuple[int, ...]]] = {}

    def triangulate(face: frozenset, level: int) -> list[tuple[int, ...]]:
        if level == 0:
            return [(min(face),)]
        if face in memo:
            return memo[face]
        apex = min(face)
        common = frozenset.intersection(*(tight[v] for v in face))
        facets = set()
        for r in range(len(rows)):
            if r in common:
                continue
            facet = frozenset(v for v in face if r in tight[v])
            if apex in facet or len(facet) < level or facet in facets:
                continue
            if face_dimension(facet) == level - 1:
                facets.add(facet)
        simplices = [
            (apex,) + simplex
            for facet in sorted(facets, key=sorted)
            for simplex in triangulate(facet, level - 1)
        ]
        memo[face] = simplices
        return simplices

    total = Fraction(0)
    for simplex in triangulate(frozenset(range(len(vertices))), dimension):
        # Homogeneous rows (w, x·w): the determinant is the simplex's
        # n!·volume times the product of the weights.
        corners = [vertices[v] for v in simplex]
        weights = math.prod(corner[-1] for corner in corners)
        total += Fraction(
            abs(_determinant([[corner[-1], *corner[:-1]] for corner in corners])), weights
        )
    return total / math.factorial(dimension)
