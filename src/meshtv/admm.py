"""ADMM solver for the convex inner subproblems.

Each outer iteration of the Lp-TV solver minimizes a weighted-L1 + TV +
proximal objective over the vertex values, with the off-support values pinned
to the observed data.  A pinned value is a constant, so the loop solves only
for the free vertices (those with a supported value) and keeps only the
triangles that touch them; the pinned neighbours enter as a fixed gradient
offset.  Splitting the fidelity residuals (y) and the per-triangle gradients
(z) out of the vertex variable (v) makes every step closed-form: scalar and
group soft-thresholding for (y, z), a sparse SPD normal equation for v, then
gradient-ascent multiplier updates.

The same loop with full support, unit weights, and zero proximal weight is
the plain L1-TV solver used as a warm start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import gradient
from .config import SolverConfig
from .errors import (
    DimensionMismatch,
    IterationLimitExceeded,
    NonFiniteIterate,
    SingularSystem,
)
from .gradient import GradientOperator

# Above this many unknowns (free vertices) the normal equation switches from
# a direct factorization to Jacobi-preconditioned CG, run to this relative
# tolerance and step limit.
DIRECT_SOLVE_MAX_VERTICES = 50_000
CG_TOL = 1e-10
CG_MAX_ITER = 2000


def shrink_1d(x: np.ndarray, threshold) -> np.ndarray:
    """Soft thresholding: the exact minimizer of threshold*|t| + (t - x)^2 / 2.

    Applied entry by entry; ``threshold`` broadcasts against ``x``.
    """
    return x - np.clip(x, -threshold, threshold)


def _shrink_groups(a: np.ndarray, threshold: float) -> np.ndarray:
    """Group soft thresholding of each row of an (n, ...) stack.

    Row i, with its trailing axes flattened into one vector, is shrunk in
    Euclidean norm by ``threshold`` with its direction kept: the exact
    minimizer of threshold*||t|| + ||t - a_i||^2 / 2.  A row whose norm is
    at most ``threshold`` becomes zero; in particular a zero row stays zero,
    following the 0 * (0/0) = 0 convention.
    """
    norms = gradient.triangle_norms(a)
    # t / max(norm, t) is exactly 1 for a row with norm <= t; under a zero
    # threshold the divisor is 1 instead of 0, so a zero row gives 0
    scale = 1.0 - threshold / np.maximum(norms, threshold or 1.0)
    return a * scale.reshape((-1,) + (1,) * (a.ndim - 1))


@dataclass(frozen=True)
class FreePart:
    """The free vertices of a subproblem, the triangles that touch them, and
    the constants the image data fix there: all that a subproblem reads.

    ``vertices`` and ``triangles`` are sorted index arrays; ``op`` is the
    gradient restricted to them: the rows of those triangles, the columns of
    those vertices, and their areas.  Every triangle whose gradient depends
    on a free vertex is kept, so ``assemble_gram(op)`` is exactly the
    free-vertex block of the full Gram matrix.  ``f_free`` holds the image
    values at ``vertices`` and ``offset`` the gradient g0 = D_P f_P that the
    pinned vertices contribute on ``triangles``; ``admm_solve`` splits the
    true gradient D_F v + g0 there as z and puts -beta2 * D_F^T A g0 in the
    right-hand side it fixes once per solve.  The rest is constant:
    ``pinned_tv`` is the TV of the other triangles, ``pinned_sq`` the squared
    norm of the pinned values, and ``size`` the value count of the image, so
    the objective and the norm of an image that is the data outside the part
    are a part term plus a constant.  When every vertex is free (L1-TV),
    ``op`` is the whole operator, and the offset and constants are zero.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    op: GradientOperator
    f_free: np.ndarray
    offset: np.ndarray
    pinned_tv: float
    pinned_sq: float
    size: int


def restrict(op: GradientOperator, vertices: np.ndarray,
             data: np.ndarray) -> FreePart:
    """The part of ``op`` that acts on the sorted free ``vertices``, for the
    (n_vertices, channels) image values ``data``.  When every vertex is
    free, the part shares ``op`` and ``data`` and its offset and constants
    are zero."""
    if vertices.size == op.n_vertices:
        return FreePart(vertices, np.arange(op.n_triangles), op, data,
                        np.zeros((op.n_triangles, 3, data.shape[1])), 0.0, 0.0,
                        data.size)
    columns = op.matrix[:, vertices]
    # each triangle owns three rows; it touches a free vertex when one of
    # them stores an entry in a free column
    touched = np.diff(columns.indptr).reshape(-1, 3).any(axis=1)
    triangles = np.flatnonzero(touched)
    rows = (3 * triangles[:, None] + np.arange(3)).ravel()
    sub = GradientOperator(tri_areas=op.tri_areas[triangles], matrix=columns[rows])
    pinned = data.copy()
    pinned[vertices] = 0.0
    grad = gradient.apply(op, pinned)
    outside = np.ones(op.n_triangles, dtype=bool)
    outside[triangles] = False
    norms = gradient.triangle_norms(grad[outside])
    return FreePart(vertices, triangles, sub, data[vertices], grad[triangles],
                    float(op.tri_areas[outside] @ norms),
                    float(np.vdot(pinned, pinned)), data.size)


class NormalEquationSystem:
    """The SPD system beta2 * Gram + (prox_weight + beta1) * I of the free
    vertices of ``part``.

    ``gram`` is the Gram matrix of ``part.op``, the operator the ADMM loop
    runs on, and the system carries ``part``, so that a subproblem is its
    system plus its center, weights and multipliers.  The system therefore
    depends on the support through its free-vertex set; the set only shrinks
    during an Lp-TV solve, so ``plm_solve`` builds a new system only when it
    does, and one factorization (or preconditioner) serves every inner
    iteration in between.  Up to DIRECT_SOLVE_MAX_VERTICES free vertices
    (``n``) the system keeps only its LU factor; above, only the CSR
    ``matrix`` and the Jacobi preconditioner that CG reads.  Because the
    penalties stay fixed, the multipliers of one outer iteration are also a
    valid starting point for the next, and ``plm_solve`` passes them on.  The
    penalties and the proximal weight are kept because the ADMM steps must
    use the ones the matrix was built with; this system is their only source.
    """

    def __init__(self, gram: sp.spmatrix, beta1: float, beta2: float,
                 prox_weight: float, part: FreePart):
        if not all(map(math.isfinite, (beta1, beta2, prox_weight))):
            raise ValueError("penalties and prox_weight must be finite")
        if beta1 <= 0.0 or beta2 <= 0.0 or prox_weight < 0.0:
            raise ValueError("penalties must be positive, prox_weight nonnegative")
        self.n = gram.shape[0]
        self.beta1, self.beta2, self.prox_weight = beta1, beta2, prox_weight
        self.part = part
        matrix = beta2 * gram + (prox_weight + beta1) * sp.identity(self.n)
        if self.n <= DIRECT_SOLVE_MAX_VERTICES:
            try:
                self._lu = spla.splu(matrix.tocsc())
            except RuntimeError as exc:
                raise SingularSystem(str(exc)) from exc
        else:
            self._lu = None
            self.matrix = matrix.tocsr()
            # the Gram diagonal is nonnegative, so this one is at least beta1 > 0
            self._precond = sp.diags(1.0 / self.matrix.diagonal())


def solve_normal_equation(system: NormalEquationSystem,
                          rhs: np.ndarray) -> np.ndarray:
    """Solve the vertex system for an (n, channels) right-hand side."""
    if rhs.ndim != 2 or rhs.shape[0] != system.n:
        raise DimensionMismatch(f"rhs is {rhs.shape}, not (n={system.n}, channels)")
    if system._lu is not None:
        return system._lu.solve(rhs)
    out = np.empty_like(rhs)
    for j in range(rhs.shape[1]):
        out[:, j], info = spla.cg(
            system.matrix, rhs[:, j], rtol=CG_TOL, atol=0.0,
            maxiter=CG_MAX_ITER, M=system._precond,
        )
        if info > 0:
            raise IterationLimitExceeded(f"CG stopped after {CG_MAX_ITER} iterations")
        if info < 0:
            raise SingularSystem("CG reported an invalid system")
    return out


def admm_solve(
    u_k: np.ndarray,
    w: np.ndarray,
    config: SolverConfig,
    system: NormalEquationSystem,
    duals: tuple[np.ndarray, np.ndarray] | None = None,
):
    """Solve one proximal-linearized subproblem around ``u_k`` by ADMM.

    Everything is in the coordinates of ``system.part``: the free vertices F
    (those with a supported value) and the triangles T that touch them.  The
    other vertices are the constant f, so TV is kept only on T, where the
    gradient is D_F v_F + g0, with the pinned vertices' offset g0 and f_F
    carried by the part.  z splits that true gradient, and the right-hand
    side's fixed terms beta1 * f_F + prox_weight * u_k - beta2 * D_F^T A g0
    (A the areas) are built once per solve.  ``u_k`` (|F|, channels) is both
    the proximal center and the starting iterate; ``plm_solve`` passes either
    its current iterate or an extrapolated one.  ``w`` holds one fidelity
    weight per value, shaped like ``u_k``: finite where the value is fitted,
    +inf where it is pinned.  L1-TV is ``w`` all ones.

    Minimizes lam * sum_j w_j |v_j - f_j| over the fitted entries, plus the
    area-weighted TV on T and prox_weight/2 * ||v - u_k||^2, subject to
    v_j = f_j at the pinned entries.  For a color image a channel pinned at a
    free vertex stays among the unknowns: its y threshold is +inf, so its y
    stays 0 and its ``r_pin`` residual measures v_j - f_j; without such a
    channel there is no ``r_pin`` to compute.  Residual norms are scaled by
    sqrt(``part.size``), the whole image's value count.  The penalties and
    the proximal weight are those ``system`` was built with; from ``config``
    only lam, inner_tol and inner_max_iter are read.

    ``duals`` is the multiplier pair (eta, mu), shaped (|F|, channels) and
    (|T|, 3, channels), or None for zeros.  The splitting variables (y, z)
    are computed from ``u_k`` and the duals, so the duals are the whole state
    a warm start needs.  The inputs are not modified: ``plm_solve`` solves a
    rejected or redone step again from the same starting duals, so the loop
    copies the multipliers once and updates its copies in place.

    Returns (v, inner_iterations, converged, duals): the values on F, with
    pinned channels equal to the data bit for bit, and the final (eta, mu);
    a False flag means the residual rule was not met within inner_max_iter.
    """
    f_free, offset, sub_op = system.part.f_free, system.part.offset, system.part.op
    if not u_k.shape == w.shape == f_free.shape:
        raise DimensionMismatch(f"center and weights must be {f_free.shape}")
    if duals is None:
        duals = np.zeros(f_free.shape), np.zeros(offset.shape)
    elif duals[0].shape != f_free.shape or duals[1].shape != offset.shape:
        raise DimensionMismatch("duals must be shaped like the part and its gradient")
    fitted = np.isfinite(w)
    # None when no channel is pinned at a free vertex (always for gray images)
    unfitted = ~fitted if not fitted.all() else None
    eta, mu = duals[0].copy(), duals[1].copy()

    beta1, beta2 = system.beta1, system.beta2
    y_threshold = config.lam * w / beta1
    z_threshold = 1.0 / beta2
    rhs_fixed = (beta1 * f_free + system.prox_weight * u_k
                 - beta2 * gradient.apply_adjoint(sub_op, offset))

    v = u_k
    grad_v = gradient.apply(sub_op, v)
    grad_v += offset
    scale = np.sqrt(system.part.size)
    iters, converged = config.inner_max_iter, False

    for t in range(config.inner_max_iter):
        # each in-place chain adds in the order of the written-out sum
        x = v - f_free
        x += eta / beta1
        y = shrink_1d(x, y_threshold)
        g = mu / beta2
        g += grad_v
        z = _shrink_groups(g, z_threshold)

        zw = beta2 * z
        zw -= mu
        rhs = gradient.apply_adjoint(sub_op, zw)
        rhs += beta1 * y
        rhs -= eta
        rhs += rhs_fixed
        v = solve_normal_equation(system, rhs)
        if not np.isfinite(v).all():
            raise NonFiniteIterate("ADMM produced non-finite vertex values")
        grad_v = gradient.apply(sub_op, v)
        grad_v += offset

        r_y = v - f_free
        r_y -= y
        r_z = grad_v - z
        eta += beta1 * r_y
        mu += beta2 * r_z

        # Euclidean norms as np.linalg.norm computes them, minus its wrapper
        if unfitted is None:
            residuals = (r_y.ravel(), r_z.ravel())
        else:
            residuals = (r_y[fitted], r_y[unfitted], r_z.ravel())
        if max(math.sqrt(r.dot(r)) for r in residuals) / scale < config.inner_tol:
            iters, converged = t + 1, True
            break

    if unfitted is not None:
        v[unfitted] = f_free[unfitted]
    return v, iters, converged, (eta, mu)


def _l1tv_solve_full(u0: np.ndarray, config: SolverConfig,
                     system: NormalEquationSystem):
    """L1-TV from ``u0``: the subproblem of an all-vertex ``system`` with unit
    weights and zero duals.  Returns (values, inner_iterations, converged)."""
    return admm_solve(u0, np.ones(u0.shape), config, system)[:3]
