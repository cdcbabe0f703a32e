"""Numerical guard monitors used by the propagation engine."""

from __future__ import annotations

import numpy as np

from .fields import PolarizedField, ScalarField


def interior_window(n: int, margin: float = 0.05):
    """Sample window of an n x n grid leaving out `margin` of it on every side."""
    m = max(1, int(round(margin * n)))
    return np.s_[m:-m, m:-m]


def boundary_power_fraction(f: PolarizedField | ScalarField, margin: float = 0.05) -> float:
    """Power fraction within `margin` of the grid edge (wrap-around monitor)."""
    intensity = f.intensity()
    interior = intensity[interior_window(f.grid.n, margin)].sum()
    total = intensity.sum()
    return float(1.0 - interior / total) if total > 0 else 0.0
