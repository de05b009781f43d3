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

import logging
import math
from dataclasses import dataclass, fields

import numpy as np

from . import gradient
from .admm import FreePart, NormalEquationSystem, admm_solve, restrict
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
    supported value), ``inner_converged`` the flag of the inner solve that
    was kept, ``inner_tol`` the tolerance that solve ran at (NaN when not
    given), and ``penalty_scale`` the common factor of the ADMM penalties
    that solve ended with, a power of two: every solve balances its
    residuals, and an Lp-TV step starts from the factor the previous step
    ended with.
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
    inner_tol: float = math.nan
    penalty_scale: float = 1.0


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
    its offset, if it has one, added to the gradient, plus its pinned TV."""
    grad = gradient.apply(part.op, u)
    if part.offset is not None:
        grad += part.offset
    tv = float(part.op.tri_areas @ triangle_norms(grad)) + part.pinned_tv
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


def weights(u: np.ndarray, f: np.ndarray, support: np.ndarray, p: float,
            lam: float) -> np.ndarray:
    """The lam-weighted fidelity weights of ``u`` and ``f``, as ``admm_solve``
    takes them: lam * (p * |u_j - f_j|^(p-1)) on the ``support`` mask and
    +inf, a pin, off it, shaped like ``u``.

    A zero residual on the support means the support bookkeeping is broken.
    A supported weight that overflows, in the power (1e-310 at p = 0.001) or
    times lam, is +inf without a warning: a pin too.
    """
    if u.shape != f.shape:
        raise DimensionMismatch("u and f must have identical shapes")
    residual = np.abs(u - f)[support]
    if np.any(residual == 0.0):
        raise ZeroResidualInSupport("zero residual inside the support")
    w = np.full(u.shape, np.inf)
    with np.errstate(over="ignore"):
        w[support] = lam * (p * residual ** (p - 1.0))
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
    of a step solved at ``inner_tol`` drops below ``outer_tol``, or after
    ``outer_max_iter`` iterations.  With p = 1 this degenerates to a single
    L1-TV solve (no reweighting, no support shrinking, no proximal term) from
    zero duals.  An L1-TV result
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
    arrays and multipliers are sliced to it.  A step's objective is the
    part's plus its pinned constants, O(|F| + |T|), and its iterate gap is
    the whole-image ||u^{k+1} - u^k||, with the jump of the values the step
    pins; f(u0), for L1-TV as for Lp-TV, is the objective of the all-free
    part.

    Each step hands ``admm_solve`` its part, which holds the image's
    constants (no offset when nothing is pinned), its system, the factor
    alone, and the lam-weighted weights of ``weights``.  This function is the
    only keeper of the operator's cache (see ``_system``): a system's Gram
    matrix is the block of F in the whole mesh's Gram, which the operator
    keeps from its first solve, and a part with nothing pinned, L1-TV's or a
    step's, gets the operator's last whole-mesh system when its penalties
    are the same, so a sweep of solves on one operator factors the whole
    mesh once.  Neither changes a bit of the result.

    Each inner ADMM solve starts from the state, the multipliers and the
    penalty factor, that the previous outer step ended with.  Its proximal
    center is extrapolated to c^k = u^k + EXTRAPOLATION * (u^k - u^{k-1}),
    with pinned entries reset to the data; the support, the weights and the
    decrease slack f(u^k) - f(u^{k+1}) - prox/2 * ||u^{k+1} - u^k||^2 are
    still taken at u^k.  An extrapolated step is kept only if its slack is
    nonnegative; otherwise it is counted as rejected and solved again with
    center u^k from the same starting state.  The first step is not
    extrapolated, nor is a step after an inner solve that hit
    ``inner_max_iter``.

    The proximal sufficient decrease is enforced at run time: a step with
    center u^k whose slack falls below -SLACK_FLOOR_FACTOR * max(1, f(u0)) is
    solved once more, from the same starting state at ``inner_tol / 100``,
    and the redo is counted in the trace.  A step whose inner solve hit
    ``inner_max_iter`` is not redone: the redo would repeat the same
    iterates.  A step that ends below the floor is logged as a warning.
    ``trace.converged`` is True only when the outer loop met ``outer_tol``,
    the last inner solve converged and every step ended at or above the
    floor.  A non-converged inner solve is logged and recorded rather than
    raised.  A NaN or infinite value in ``f`` or ``u0`` raises ``NaNInput``
    before any solve.

    The inner solves are inexact, tied to the outer step.  The first step
    runs ADMM to ``inner_tol``; each later one to tol_k = max(inner_tol,
    gap_{k-1} / sqrt(size)), with gap_{k-1} the previous step's iterate gap
    and size the image's value count (the scale of the ADMM stopping rule):
    a step's primal and dual residuals per value stay below the last step's
    size per value.  Since every solve also stops on its dual residual, a
    smaller multiple of the gap bought no accuracy that the gate or the
    objective showed, only ADMM steps on the benchmark workloads.  Its
    extrapolated solve and the re-solve around u^k both use tol_k, and a
    floor redo keeps ``inner_tol / 100``.  A loose step that meets
    ``outer_tol`` does not stop the loop: one more step runs at
    ``inner_tol`` and decides, so the deciding step is always solved at
    ``inner_tol`` or tighter.  The trace records each kept solve's
    tolerance.  Enforced at run time, loose steps included: the decrease
    slack floor and its redo (H1 of Attouch, Bolte & Svaiter 2013), a
    support that never grows, and nonzero residuals above ``eps_support``.
    Only the shape of their relative-error condition (H2) is met: tol_k
    shrinks with the last step, but no bound ||w|| <= b ||u^{k+1} - u^k||
    on a subgradient w at u^{k+1} is computed or checked.
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
        system = _system(op, part, config)
        result, inner_iters, inner_ok, penalty_scale = _l1tv_solve_full(
            u0.values, config, part, system)
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
                                 inner_converged=inner_ok,
                                 inner_tol=config.inner_tol,
                                 penalty_scale=penalty_scale))
        trace.converged = inner_ok
        return MeshImage(result), trace

    u = u0.values
    slack_floor = -SLACK_FLOOR_FACTOR * max(1.0, f_prev)
    support = np.ones(f2.shape, dtype=bool)
    system = state = None
    # the iterate before u, or None when the next step is not extrapolated
    u_prev = None
    outer_ok, decrease_held = False, True
    # the next step's inner tolerance: the full one first and to decide a stop
    tol = config.inner_tol

    for k in range(config.outer_max_iter):
        # jump_sq: the squared distance to the data of the values pinned here
        jump_sq, inner_iters, rejected, redos, inner_ok = 0.0, 0, 0, 0, True
        # a step that solves nothing is exact
        kept_tol = config.inner_tol
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
            if state is not None:
                kept_triangles = np.searchsorted(part.triangles, narrowed.triangles)
                state = state[0][keep], state[1][kept_triangles], state[2]
            part = narrowed
            system = _system(op, part, config)

        if system is None:
            # nothing is free: the iterate is the data on the part's rows too
            u_next, state_next = part.f_free, state
            f_next, gap, slack = _step_decrease(u_next, u, part, f_prev, config,
                                                config.prox_weight, jump_sq, k)
        else:
            w = weights(u, part.f_free, support, config.p, config.lam)
            # Each try is (center, tol, bar).  The first solve whose slack
            # reaches its bar is kept, and so is a solve around u^k that hit
            # inner_max_iter: a redo would repeat its iterates exactly.
            tries = [(u, tol, slack_floor), (u, config.inner_tol / 100.0, -math.inf)]
            if u_prev is not None:
                c = u + EXTRAPOLATION * (u - u_prev)
                c[~support] = part.f_free[~support]
                tries.insert(0, (c, tol, 0.0))
            for kept, (center, kept_tol, bar) in enumerate(tries):
                u_next, iters, inner_ok, state_next = admm_solve(
                    center, w, config.prox_weight, part, system, kept_tol,
                    config.inner_max_iter, state)
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
                                 int(np.count_nonzero(free)), inner_ok, kept_tol,
                                 1.0 if state_next is None else state_next[2]))

        u_norm = math.sqrt(float(np.vdot(u_next, u_next)) + part.pinned_sq)
        u_prev = u if inner_ok else None
        u, f_prev, state = u_next, f_next, state_next
        rel_change = gap / u_norm if u_norm > 0.0 else gap
        if rel_change >= config.outer_tol:
            tol = max(config.inner_tol, gap / math.sqrt(part.size))
        elif kept_tol <= config.inner_tol:
            outer_ok = True
            break
        else:
            # a loose solve can make a small gap: a full-tolerance step decides
            tol = config.inner_tol

    trace.converged = outer_ok and inner_ok and decrease_held
    restored = f2.copy()
    restored[part.vertices] = u
    return MeshImage(restored), trace


def _system(op: GradientOperator, part: FreePart,
            config: SolverConfig) -> NormalEquationSystem:
    """The system of ``part``, a part of ``op``, with ``config``'s penalties.

    ``op.memo`` keeps two things for as long as the operator lives, and
    nothing else reads or writes it: the whole Gram under "gram", assembled
    on the operator's first solve, and the last whole-mesh system under
    "system".  A part with an offset gets a system that factors its block of
    the whole Gram on ``part.vertices``, equal to ``assemble_gram(part.op)``.
    A part with no offset, every vertex free, gets the kept system when its
    penalties are the config's; otherwise the kept one is dropped before the
    new one factors, and the new one is kept only once its factorization
    has succeeded, so the operator holds at most one whole-mesh factor, and
    none after a SingularSystem.
    """
    gram = op.memo.get("gram")
    if gram is None:
        gram = op.memo["gram"] = assemble_gram(op)
    penalties = config.beta1, config.beta2
    if part.offset is not None:
        return NormalEquationSystem(gram[part.vertices][:, part.vertices],
                                    *penalties)
    system = op.memo.pop("system", None)
    if system is None or (system.beta1, system.beta2) != penalties:
        system = None  # frees the old factor before the new one is built
        system = NormalEquationSystem(gram, *penalties)
    op.memo["system"] = system
    return system


def _l1tv_solve_full(u0: np.ndarray, config: SolverConfig, part: FreePart,
                     system: NormalEquationSystem):
    """L1-TV from ``u0``: the subproblem of the all-vertex ``part`` and its
    ``system`` with every weight lam and zero duals.  Returns (values,
    inner_iterations, converged, penalty_scale)."""
    v, iters, converged, state = admm_solve(
        u0, np.full(u0.shape, config.lam), 0.0, part, system, config.inner_tol,
        config.inner_max_iter)
    return v, iters, converged, state[2]


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
