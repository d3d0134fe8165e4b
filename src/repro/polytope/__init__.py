"""Convex polytope substrate: feasibility, LP bounds and (Qhull float) volumes."""

from .batch import BatchPolytope
from .highs import kernel_available
from .polytope import LPFailure, Polytope, PolytopeError
from .vertex_enum import enumerate_vertices, volume_by_enumeration

__all__ = [
    "BatchPolytope",
    "LPFailure",
    "Polytope",
    "PolytopeError",
    "enumerate_vertices",
    "volume_by_enumeration",
    "kernel_available",
]
