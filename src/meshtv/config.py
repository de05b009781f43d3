"""Solver configuration.

The support of the fidelity term is not a type of its own: the solver keeps
it as a boolean array shaped like the image values, True where a value is
still fitted, and hands the inner solver one weight per value, +inf where a
value is pinned to the observed data.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


@dataclass
class SolverConfig:
    """Parameters of the Lp-TV solver.

    ``lam`` weights the data-fitting term against total variation, ``p`` is
    the fidelity exponent in (0, 1] (p = 1 selects the plain L1-TV path with
    no reweighting or support shrinking), ``prox_weight`` is the proximal
    coefficient of the outer linearized subproblems, and ``eps_support`` is
    the residual threshold below which a value counts as exactly fitted.
    ``beta1``/``beta2`` are the ADMM penalties for the fidelity and gradient
    splittings; they default to 10 * lam and reach the ADMM loop only through
    the normal-equation system built from them.
    """

    lam: float = 1.0
    p: float = 0.5
    prox_weight: float = 1.0
    eps_support: float = 1e-3
    outer_tol: float = 1e-6
    outer_max_iter: int = 500
    beta1: float | None = None
    beta2: float | None = None
    inner_tol: float = 1e-6
    inner_max_iter: int = 2000

    def __post_init__(self):
        if self.beta1 is None:
            self.beta1 = 10.0 * self.lam
        if self.beta2 is None:
            self.beta2 = 10.0 * self.lam
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {self.p}")
        for name in ("lam", "prox_weight", "eps_support", "outer_tol",
                     "beta1", "beta2", "inner_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        for name in ("outer_max_iter", "inner_max_iter"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
