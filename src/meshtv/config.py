"""Solver configuration.

The support of the fidelity term is not a type of its own: the solver keeps
it as a boolean array shaped like the image values, True where a value is
still fitted, and hands the inner solver one weight per value, lam times the
majorizer weight, and +inf where a value is pinned to the observed data.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


class _LamDefault(float):
    """A penalty at its default, 10 * lam.  ``dataclasses.replace`` passes
    it back to the new config, which derives it again from its own lam."""


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of the Lp-TV solver.

    ``lam`` weights the data-fitting term against total variation, ``p`` is
    the fidelity exponent in (0, 1] (p = 1 selects the plain L1-TV path with
    no reweighting or support shrinking), ``prox_weight`` is the proximal
    coefficient of the outer linearized subproblems, and ``eps_support`` is
    the residual threshold below which a value counts as exactly fitted.
    ``beta1``/``beta2`` are the ADMM penalties for the fidelity and gradient
    splittings; they default to 10 * lam and reach the ADMM loop only through
    the normal-equation system built from them.  Every solve starts from
    them, or from the factor the previous Lp-TV step ended with, and scales
    both by a common power of two that balances its residuals (see
    ``admm.admm_solve``).  ADMM reads no config: ``lptv.plm_solve`` passes
    it lam inside the weights, the proximal weight, each solve's tolerance
    and inner_max_iter.  A config is frozen and validated when built, also
    by ``dataclasses.replace``; there a penalty left at its default follows
    a new lam, and one given explicitly is kept.
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
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if value is None or type(value) is _LamDefault:
                object.__setattr__(self, name, _LamDefault(10.0 * self.lam))
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
