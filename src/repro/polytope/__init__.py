"""Convex polytope substrate: feasibility, LP bounds and triangulated volumes."""

from .batch import BatchPolytope
from .highs import kernel_available
from .polytope import LPFailure, Polytope, PolytopeError

__all__ = [
    "BatchPolytope",
    "LPFailure",
    "Polytope",
    "PolytopeError",
    "kernel_available",
]
