"""Bound-violation reporting for nodal fields."""

from __future__ import annotations

import numpy as np


def dmp_check(c, c_min: float, c_max: float, tol: float = 0.0) -> dict:
    """Count nodes outside [c_min - tol, c_max + tol], as report.json's ``dmp`` section."""
    if tol < 0.0:
        raise ValueError("tolerance must be nonnegative")
    c = np.asarray(c, dtype=np.float64)
    n_below = int((c < c_min - tol).sum())
    n_above = int((c > c_max + tol).sum())
    return {
        "min": float(c.min()) if c.size else 0.0,
        "max": float(c.max()) if c.size else 0.0,
        "n_below": n_below,
        "n_above": n_above,
        "n_total": len(c),
        "percent_violated": 100.0 * (n_below + n_above) / len(c) if len(c) else 0.0,
    }
