"""Convex polytope substrate: feasibility, LP bounds and (Qhull float) volumes."""

from .batch import BatchPolytope
from .highs import kernel_available
from .linear_bounds import bound_form, form_rows
from .polytope import LPFailure, Polytope, PolytopeError
from .vertex_enum import enumerate_vertices, volume_by_enumeration

__all__ = [
    "BatchPolytope",
    "LPFailure",
    "Polytope",
    "PolytopeError",
    "enumerate_vertices",
    "volume_by_enumeration",
    "bound_form",
    "form_rows",
    "kernel_available",
]
