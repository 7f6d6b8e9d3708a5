"""Geometric substrate: hyper-rectangles and uniform grids."""

from .grid import UniformGrid, balanced_factorization
from .rect import Rect

__all__ = ["Rect", "UniformGrid", "balanced_factorization"]
