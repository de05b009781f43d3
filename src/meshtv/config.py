"""Solver configuration and support-set bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SolverConfig:
    """Parameters of the Lp-TV solver.

    ``lam`` weights the data-fitting term against total variation, ``p`` is
    the fidelity exponent in (0, 1] (p = 1 selects the plain L1-TV path with
    no reweighting or support shrinking), ``prox_weight`` is the proximal
    coefficient of the outer linearized subproblems, and ``eps_support`` is
    the residual threshold below which a value counts as exactly fitted.
    ``beta1``/``beta2`` are the ADMM penalties for the fidelity and gradient
    splittings; they default to 10 * lam.
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
    cg_tol: float = 1e-10
    cg_max_iter: int = 2000

    def __post_init__(self):
        if self.beta1 is None:
            self.beta1 = 10.0 * self.lam
        if self.beta2 is None:
            self.beta2 = 10.0 * self.lam
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {self.p}")
        for name in ("lam", "prox_weight", "eps_support", "outer_tol",
                     "beta1", "beta2", "inner_tol", "cg_tol"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("outer_max_iter", "inner_max_iter", "cg_max_iter"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


@dataclass(frozen=True)
class SupportSet:
    """Active indices of the data-fitting term.

    ``gamma`` holds sorted flat positions into the (n_vertices, channels)
    value array, so for grayscale images the entries are vertex ids and for
    color images the bookkeeping is per (vertex, channel).  The complement
    of ``gamma`` is pinned to the observed data by the solver.
    """

    gamma: np.ndarray
    total: int
    channels: int = 1

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=np.int64)
        object.__setattr__(self, "gamma", g)
        if g.size and (g[0] < 0 or g[-1] >= self.total):
            raise ValueError("support indices out of range")

    def __len__(self) -> int:
        return int(self.gamma.size)

    def mask(self) -> np.ndarray:
        m = np.zeros(self.total, dtype=bool)
        m[self.gamma] = True
        return m

    def vertex_ids(self) -> np.ndarray:
        """Vertices with at least one supported channel."""
        return np.unique(self.gamma // self.channels)

    @classmethod
    def full(cls, total: int, channels: int = 1) -> "SupportSet":
        return cls(np.arange(total, dtype=np.int64), total, channels)

    @classmethod
    def empty(cls, total: int, channels: int = 1) -> "SupportSet":
        return cls(np.empty(0, dtype=np.int64), total, channels)
