"""Numerical guard helpers: the interior sample window, whose complement is
the grid-boundary band that the scattering matrix's boundary guard watches."""

from __future__ import annotations

import numpy as np


def interior_window(n: int, margin: float = 0.05):
    """Sample window of an n x n grid leaving out `margin` of it on every side."""
    m = max(1, int(round(margin * n)))
    return np.s_[m:-m, m:-m]
