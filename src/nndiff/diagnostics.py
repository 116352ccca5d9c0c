"""Bound-violation reporting for nodal fields."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DmpReport:
    min_value: float
    max_value: float
    n_below: int
    n_above: int
    n_total: int

    @property
    def n_violated(self) -> int:
        return self.n_below + self.n_above

    @property
    def percent_violated(self) -> float:
        if self.n_total == 0:
            return 0.0
        return 100.0 * self.n_violated / self.n_total


def dmp_check(c, c_min: float, c_max: float, tol: float = 0.0) -> DmpReport:
    """Count nodes outside [c_min - tol, c_max + tol]."""
    if tol < 0.0:
        raise ValueError("tolerance must be nonnegative")
    c = np.asarray(c, dtype=np.float64)
    return DmpReport(
        min_value=float(c.min()) if c.size else 0.0,
        max_value=float(c.max()) if c.size else 0.0,
        n_below=int((c < c_min - tol).sum()),
        n_above=int((c > c_max + tol).sum()),
        n_total=len(c),
    )

