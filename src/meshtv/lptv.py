"""Nonconvex Lp-TV denoising by proximal linearization with support shrinking.

The objective is lam * sum_j |u_j - f_j|^p + sum_i |tau_i| * ||grad_i(u)||
with 0 < p <= 1.  Each outer iteration restricts the fidelity term to the
current eps-support (residuals above eps_support), majorizes |t|^p there by a
weighted |t| using the concavity of x^p, pins everything else to the data,
adds a proximal term, and hands the resulting convex problem to the inner
ADMM.  Values that leave the support are fixed to the data exactly, so the
support can only shrink and eventually freezes.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass, fields

import numpy as np

from .admm import (FreePart, NormalEquationSystem, _l1tv_solve_full,
                   admm_solve, restrict)
from .config import SolverConfig
from .errors import (
    DimensionMismatch,
    NaNInput,
    NonFiniteIterate,
    SupportGrew,
    ZeroResidualInSupport,
)
from .gradient import GradientOperator, assemble_gram, triangle_norms
from .imaging import MeshImage
from .mesh import TriangleMesh

logger = logging.getLogger(__name__)

# Proximal sufficient decrease holds at a step when its slack is at least
# -SLACK_FLOOR_FACTOR * max(1, objective at u0): the room left for inexact
# inner solves (acceptance criterion 4).
SLACK_FLOOR_FACTOR = 1e-6

# Inertial weight b of the extrapolated proximal center u^k + b (u^k - u^{k-1}).
# Measured against 0.3, 0.7 and FISTA's t_k schedule with restarts, 0.5 took
# the fewest ADMM steps on both Lp-TV benchmark workloads.
EXTRAPOLATION = 0.5


@dataclass(frozen=True)
class TraceRecord:
    """One outer iteration: the objective before the step, the support it
    used, and how far and how profitably the step moved.

    ``inner_iterations`` counts every ADMM step the outer iteration ran,
    those of a rejected or redone solve included; ``inner_redos`` is the
    number of times the step was solved again because its decrease slack fell
    below the floor, ``rejected_extrapolations`` the number of extrapolated
    solves discarded because their slack was negative, ``free_vertices`` the
    number of unknowns in the step's linear system (the vertices with a
    supported value), and ``inner_converged`` the flag of the inner solve
    that was kept.
    """

    iteration: int
    objective: float
    support_size: int
    iterate_gap: float
    decrease_slack: float
    inner_iterations: int
    inner_redos: int = 0
    rejected_extrapolations: int = 0
    free_vertices: int = 0
    inner_converged: bool = True


class SolverTrace:
    """Append-only record of the outer loop, serializable as CSV."""

    def __init__(self):
        self.records: list[TraceRecord] = []
        self.converged: bool = False

    def append(self, record: TraceRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])

    def write_csv(self, path: str) -> None:
        """One column per ``TraceRecord`` field, floats as ``.12g``."""
        names = [f.name for f in fields(TraceRecord)]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(names) + "\n")
            for r in self.records:
                row = (getattr(r, name) for name in names)
                fh.write(",".join(
                    format(v, ".12g") if isinstance(v, float) else str(v)
                    for v in row) + "\n")


def _objective_raw(u: np.ndarray, part: FreePart, lam: float, p: float) -> float:
    """Objective of the values ``u`` on ``part``: the part's fidelity and TV,
    its offset added to the gradient, plus its pinned TV."""
    op = part.op
    grad = (op.matrix @ u).reshape(op.n_triangles, 3, -1) + part.offset
    tv = float(op.tri_areas @ triangle_norms(grad)) + part.pinned_tv
    data = float(np.sum(np.abs(u - part.f_free) ** p))
    return lam * data + tv


def objective(u: MeshImage, f: MeshImage, op: GradientOperator,
              config: SolverConfig) -> float:
    """Lp-TV objective value of ``u`` against data ``f``: the objective of
    the all-free part.

    For color images the fidelity sums over channels and the TV term couples
    them through the Frobenius norm of the stacked per-triangle gradients.
    """
    if u.values.shape != f.values.shape:
        raise DimensionMismatch("u and f must have identical shapes")
    if u.vertex_count != op.n_vertices:
        raise DimensionMismatch("image and operator vertex counts differ")
    part = restrict(op, np.arange(op.n_vertices), f.values)
    return _objective_raw(u.values, part, config.lam, config.p)


def support_eps(u: np.ndarray, f: np.ndarray, eps: float) -> np.ndarray:
    """Boolean mask, shaped like the arrays ``u`` and ``f``, of residuals above eps.

    Bookkeeping is per value entry, i.e. per (vertex, channel) for color
    images; ``mask.any(axis=1)`` marks the vertices with a supported
    channel.  Residuals exactly equal to eps are excluded.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if u.shape != f.shape:
        raise DimensionMismatch("u and f must have identical shapes")
    return np.abs(u - f) > eps


def weights(u: np.ndarray, f: np.ndarray, support: np.ndarray, p: float) -> np.ndarray:
    """Fidelity weights of the value arrays ``u`` and ``f``, shaped like them:
    p * |u_j - f_j|^(p-1) on the ``support`` mask and +inf, a pin, off it.

    A zero residual on the support means the support bookkeeping is broken.
    A supported residual below about 1e-300 (an ``eps_support`` that small)
    can overflow its weight to +inf, which pins that value too.
    """
    if u.shape != f.shape:
        raise DimensionMismatch("u and f must have identical shapes")
    residual = np.abs(u - f)[support]
    if np.any(residual == 0.0):
        raise ZeroResidualInSupport("zero residual inside the support")
    w = np.full(u.shape, np.inf)
    w[support] = p * residual ** (p - 1.0)
    return w


def plm_solve(
    f: MeshImage,
    mesh: TriangleMesh,
    op: GradientOperator,
    config: SolverConfig,
    u0: MeshImage,
):
    """Run the full outer loop from the given starting point.

    Returns (restored_image, trace).  Stops when the relative iterate change
    drops below ``outer_tol`` or after ``outer_max_iter`` iterations.  With
    p = 1 this degenerates to a single L1-TV solve (no reweighting, no
    support shrinking, no proximal term) from zero duals.  An L1-TV result
    within ``eps_support`` of the data at every value is logged as a
    warning: ``lam`` is not resolution-independent (the fidelity sums over
    vertices, TV is area-weighted), so a value that suits a coarse mesh can
    leave the image unchanged on a fine one, and an Lp-TV solve started from
    that result has no free vertex.

    Each Lp-TV step solves only for its free vertices F, those with a
    supported value, on the triangles T that touch them (see ``admm_solve``);
    the iterate, its predecessor, the support and the multipliers are kept in
    these coordinates, and the values outside F are the data.  F only
    shrinks; when it does, the part (``restrict``) and its normal-equation
    system are built again, not at all once F is empty, and the carried
    arrays are sliced to it.  A step's objective is the part's plus its
    pinned constants, O(|F| + |T|), and its iterate gap is the whole-image
    ||u^{k+1} - u^k||, with the jump of the values the step pins; f(u0),
    for L1-TV as for Lp-TV, is the objective of the all-free part.

    Each inner ADMM solve starts from the multipliers the previous outer
    step ended with.  Its proximal center is extrapolated to
    c^k = u^k + EXTRAPOLATION * (u^k - u^{k-1}), with pinned entries reset to
    the data; the support, the weights and the decrease slack
    f(u^k) - f(u^{k+1}) - prox/2 * ||u^{k+1} - u^k||^2 are still taken at
    u^k.  An extrapolated step is kept only if its slack is nonnegative;
    otherwise it is counted as rejected and solved again with center u^k
    from the same starting duals.  The first step is not extrapolated, nor
    is a step after an inner solve that hit ``inner_max_iter``.

    The proximal sufficient decrease is enforced at run time: a step with
    center u^k whose slack falls below -SLACK_FLOOR_FACTOR * max(1, f(u0)) is
    solved once more, from the same starting duals at ``inner_tol / 100``,
    and the redo is counted in the trace.  A step whose inner solve hit
    ``inner_max_iter`` is not redone: the redo would repeat the same
    iterates.  A step that ends below the floor is logged as a warning.
    ``trace.converged`` is True only when the outer loop met ``outer_tol``,
    the last inner solve converged and every step ended at or above the
    floor.  A non-converged inner solve is logged and recorded rather than
    raised.  A NaN or infinite value in ``f`` or ``u0`` raises ``NaNInput``
    before any solve.
    """
    if not (np.isfinite(f.values).all() and np.isfinite(u0.values).all()):
        raise NaNInput("f and u0 must be finite")
    if mesh.n_vertices != op.n_vertices:
        raise DimensionMismatch("mesh and operator vertex counts differ")
    if f.vertex_count != op.n_vertices:
        raise DimensionMismatch("image and operator vertex counts differ")
    if u0.values.shape != f.values.shape:
        raise DimensionMismatch("u0 and f must have identical shapes")

    trace = SolverTrace()
    f2 = f.values
    # every vertex: the coordinates of u0 and of L1-TV
    part = restrict(op, np.arange(f.vertex_count), f2)
    f_prev = _objective_raw(u0.values, part, config.lam, config.p)

    if config.p == 1.0:
        system = NormalEquationSystem(assemble_gram(op), config.beta1,
                                      config.beta2, 0.0, part)
        result, inner_iters, inner_ok = _l1tv_solve_full(u0.values, config, system)
        if not inner_ok:
            logger.warning("L1-TV ADMM stopped at inner_max_iter without converging")
        if not support_eps(result, f2, config.eps_support).any():
            logger.warning("L1-TV moved no value by more than eps_support = %g: "
                           "lam = %g is probably too large for this mesh "
                           "resolution", config.eps_support, config.lam)
        _, gap, slack = _step_decrease(result, u0.values, part, f_prev,
                                       config, 0.0, 0.0, 0)
        trace.append(TraceRecord(0, f_prev, f2.size, gap, slack,
                                 inner_iters, free_vertices=system.n,
                                 inner_converged=inner_ok))
        trace.converged = inner_ok
        return MeshImage(result), trace

    u = u0.values
    slack_floor = -SLACK_FLOOR_FACTOR * max(1.0, f_prev)
    redo_config = dataclasses.replace(config, inner_tol=config.inner_tol / 100.0)
    support = np.ones(f2.shape, dtype=bool)
    system = duals = None
    # the iterate before u, or None when the next step is not extrapolated
    u_prev = None
    outer_ok, decrease_held = False, True

    for k in range(config.outer_max_iter):
        # jump_sq: the squared distance to the data of the values pinned here
        jump_sq, inner_iters, rejected, redos, inner_ok = 0.0, 0, 0, 0, True
        prev_support = support
        support = support_eps(u, part.f_free, config.eps_support)
        if (support & ~prev_support).any():
            raise SupportGrew(f"support grew at outer iteration {k}; pinning is broken")
        free = support.any(axis=1)
        if not free.any():
            system = None
        elif k == 0 or not free.all():
            keep = np.flatnonzero(free)
            dropped = u[~free] - part.f_free[~free]
            jump_sq = float(np.vdot(dropped, dropped))
            narrowed = restrict(op, part.vertices[keep], f2)
            u, support = u[keep], support[keep]
            u_prev = None if u_prev is None else u_prev[keep]
            if duals is not None:
                kept_triangles = np.searchsorted(part.triangles, narrowed.triangles)
                duals = duals[0][keep], duals[1][kept_triangles]
            part = narrowed
            system = NormalEquationSystem(assemble_gram(part.op), config.beta1,
                                          config.beta2, config.prox_weight, part)

        if system is None:
            # nothing is free: the iterate is the data on the part's rows too
            u_next, duals_next = part.f_free, duals
            f_next, gap, slack = _step_decrease(u_next, u, part, f_prev, config,
                                                config.prox_weight, jump_sq, k)
        else:
            w = weights(u, part.f_free, support, config.p)
            # Each try is (center, config, bar).  The first solve whose slack
            # reaches its bar is kept, and so is a solve around u^k that hit
            # inner_max_iter: a redo would repeat its iterates exactly.
            tries = [(u, config, slack_floor), (u, redo_config, -math.inf)]
            if u_prev is not None:
                c = u + EXTRAPOLATION * (u - u_prev)
                c[~support] = part.f_free[~support]
                tries.insert(0, (c, config, 0.0))
            for kept, (center, solve_config, bar) in enumerate(tries):
                u_next, iters, inner_ok, duals_next = admm_solve(
                    center, w, solve_config, system, duals)
                inner_iters += iters
                f_next, gap, slack = _step_decrease(u_next, u, part, f_prev, config,
                                                    config.prox_weight, jump_sq, k)
                if slack >= bar or (center is u and not inner_ok):
                    break
            rejected = int(kept > 0 and tries[0][0] is not u)
            redos = int(kept == len(tries) - 1)
        if slack < slack_floor:
            decrease_held = False
            logger.warning("decrease slack %.3g below the floor %.3g at outer "
                           "iteration %d", slack, slack_floor, k)
        if not inner_ok:
            logger.warning(
                "inner ADMM hit inner_max_iter at outer iteration %d", k
            )
        trace.append(TraceRecord(k, f_prev, int(np.count_nonzero(support)), gap,
                                 slack, inner_iters, redos, rejected,
                                 int(np.count_nonzero(free)), inner_ok))

        u_norm = math.sqrt(float(np.vdot(u_next, u_next)) + part.pinned_sq)
        u_prev = u if inner_ok else None
        u, f_prev, duals = u_next, f_next, duals_next
        rel_change = gap / u_norm if u_norm > 0.0 else gap
        if rel_change < config.outer_tol:
            outer_ok = True
            break

    trace.converged = outer_ok and inner_ok and decrease_held
    restored = f2.copy()
    restored[part.vertices] = u
    return MeshImage(restored), trace


def _step_decrease(u_next: np.ndarray, u: np.ndarray, part: FreePart,
                   f_prev: float, config: SolverConfig, prox_weight: float,
                   jump_sq: float, k: int):
    """(objective at u_next, ||u_next - u||, proximal decrease slack) of
    values on ``part`` whose images differ by ``jump_sq`` outside it."""
    f_next = _objective_raw(u_next, part, config.lam, config.p)
    if not math.isfinite(f_next):
        raise NonFiniteIterate(f"objective became non-finite at iteration {k}")
    diff = u_next - u
    gap = math.sqrt(float(np.vdot(diff, diff)) + jump_sq)
    return f_next, gap, f_prev - f_next - 0.5 * prox_weight * gap**2
