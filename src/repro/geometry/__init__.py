"""Geometric substrate: hyper-rectangles and uniform grids."""

from .grid import CellIndex, UniformGrid, balanced_factorization
from .rect import Rect

__all__ = ["CellIndex", "Rect", "UniformGrid", "balanced_factorization"]
