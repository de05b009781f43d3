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
from .imaging import MeshImage

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
    return np.sign(x) * np.maximum(np.abs(x) - threshold, 0.0)


def _shrink_groups(a: np.ndarray, threshold: float) -> np.ndarray:
    """Group soft thresholding of each row of an (n, ...) stack.

    Row i, with its trailing axes flattened into one vector, is shrunk in
    Euclidean norm by ``threshold`` with its direction kept: the exact
    minimizer of threshold*||t|| + ||t - a_i||^2 / 2.  A row whose norm is
    at most ``threshold`` becomes zero; in particular a zero row stays zero,
    following the 0 * (0/0) = 0 convention.
    """
    flat = a.reshape(a.shape[0], -1)
    norms = np.sqrt(np.add.reduce(flat * flat, axis=1))
    scale = np.zeros(norms.shape)
    active = norms > threshold
    scale[active] = 1.0 - threshold / norms[active]
    return a * scale.reshape((-1,) + (1,) * (a.ndim - 1))


@dataclass(frozen=True)
class FreePart:
    """The free vertices of a subproblem, the triangles that touch them, and
    the constants the image data fixes there.

    ``vertices`` and ``triangles`` are sorted index arrays; ``op`` is the
    gradient restricted to them: the rows of those triangles, the columns of
    those vertices, and their areas.  Every triangle whose gradient depends
    on a free vertex is kept, so ``assemble_gram(op)`` is exactly the
    free-vertex block of the full Gram matrix.  ``data`` is a copy of the
    image values the part was built for (``admm_solve`` refuses other
    values), ``f_free`` their rows at ``vertices``, and ``offset`` the
    gradient g0 = D_P f_P that the pinned vertices contribute on
    ``triangles``.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    op: GradientOperator
    data: np.ndarray
    f_free: np.ndarray
    offset: np.ndarray


def restrict(op: GradientOperator, free: np.ndarray,
             data: np.ndarray) -> FreePart:
    """The part of ``op`` that acts on the vertices where ``free`` is True,
    for the (n_vertices, channels) image values ``data``."""
    vertices = np.flatnonzero(free)
    columns = op.matrix[:, vertices]
    # each triangle owns three rows; it touches a free vertex when one of
    # them stores an entry in a free column
    touched = np.diff(columns.indptr).reshape(-1, 3).any(axis=1)
    triangles = np.flatnonzero(touched)
    rows = (3 * triangles[:, None] + np.arange(3)).ravel()
    sub = GradientOperator(tri_areas=op.tri_areas[triangles],
                           matrix=columns[rows])
    pinned_data = data.copy()
    pinned_data[vertices] = 0.0
    offset = gradient.apply(op, pinned_data)[triangles]
    return FreePart(vertices, triangles, sub, data.copy(), data[vertices],
                    offset)


class NormalEquationSystem:
    """The SPD system beta2 * Gram + (prox_weight + beta1) * I of the free
    vertices.

    ``gram`` is the Gram matrix of the operator the ADMM loop runs on: the
    full one when ``part`` is None (every vertex free, as for L1-TV), or
    ``part.op`` when only ``part.vertices`` are free.  The system therefore
    depends on the support through its free-vertex set; the set only shrinks
    during an Lp-TV solve, so ``plm_solve`` builds a new system only when it
    does, and one factorization (or preconditioner) serves every inner
    iteration in between.  Whether the system is factorized or solved by CG
    depends on its size, the number of free vertices.  Because the penalties
    stay fixed, the multipliers of one outer iteration are also a valid
    starting point for the next, and ``plm_solve`` passes them on.  The
    penalties and the proximal weight are kept because the ADMM steps must
    use the ones the matrix was built with; this system is their only source.
    """

    def __init__(self, gram: sp.spmatrix, beta1: float, beta2: float,
                 prox_weight: float, part: FreePart | None = None):
        if not all(map(math.isfinite, (beta1, beta2, prox_weight))):
            raise ValueError("penalties and prox_weight must be finite")
        if beta1 <= 0.0 or beta2 <= 0.0 or prox_weight < 0.0:
            raise ValueError("penalties must be positive, prox_weight nonnegative")
        n = gram.shape[0]
        self.beta1, self.beta2, self.prox_weight = beta1, beta2, prox_weight
        self.part = part
        self.matrix = (beta2 * gram + (prox_weight + beta1) * sp.identity(n)).tocsr()
        if n <= DIRECT_SOLVE_MAX_VERTICES:
            try:
                self._lu = spla.splu(self.matrix.tocsc())
            except RuntimeError as exc:
                raise SingularSystem(str(exc)) from exc
            self._precond = None
        else:
            self._lu = None
            diag = self.matrix.diagonal()
            if np.any(diag <= 0.0):
                raise SingularSystem("nonpositive diagonal in SPD system")
            self._precond = sp.diags(1.0 / diag)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def solve_normal_equation(system: NormalEquationSystem,
                          rhs: np.ndarray) -> np.ndarray:
    """Solve the vertex system for one or several right-hand-side columns."""
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape[0] != system.n:
        raise DimensionMismatch(f"rhs has {rhs.shape[0]} rows for n={system.n}")
    if system._lu is not None:
        return system._lu.solve(rhs)
    cols = rhs[:, None] if rhs.ndim == 1 else rhs
    out = np.empty_like(cols)
    for j in range(cols.shape[1]):
        x, info = spla.cg(
            system.matrix, cols[:, j], rtol=CG_TOL, atol=0.0,
            maxiter=CG_MAX_ITER, M=system._precond,
        )
        if info > 0:
            raise IterationLimitExceeded(f"CG stopped after {CG_MAX_ITER} iterations")
        if info < 0:
            raise SingularSystem("CG reported an invalid system")
        out[:, j] = x
    return out[:, 0] if rhs.ndim == 1 else out


def admm_solve(
    f: MeshImage,
    u_k: MeshImage,
    support: np.ndarray,
    w: np.ndarray,
    op: GradientOperator,
    config: SolverConfig,
    system: NormalEquationSystem | None,
    duals: tuple[np.ndarray, np.ndarray] | None = None,
):
    """Solve one proximal-linearized subproblem around ``u_k`` by ADMM.

    ``u_k`` is both the proximal center and the starting vertex iterate;
    ``plm_solve`` passes either its current iterate or an extrapolated one.

    ``support`` is a boolean mask shaped like ``f.values``; ``w`` holds one
    weight per True entry, in C order.  Minimizes lam * sum_j w_j |v_j - f_j|
    over the support, plus the area-weighted TV term and
    prox_weight/2 * ||v - u_k||^2, subject to v_j = f_j where the mask is
    False.  The unknowns are the free vertices F, those with a supported
    value; every other vertex is the constant f, so TV is kept only on the
    triangles T that touch F, and there the gradient is D_F v_F + g0 with
    g0 = D_P f_P the fixed contribution of the pinned vertices.  ``system``
    must be built for exactly F and for the values of ``f``, or
    DimensionMismatch is raised; it may be None when the support is empty.
    Its ``part`` (None means all vertices) comes with g0 and f_F, computed
    once per free-vertex set by ``restrict``, so a call does not apply the
    full operator.  For a color image a channel pinned at a free vertex stays
    among the unknowns as a weight of +inf: its y threshold is +inf, so its
    y stays 0 and its ``r_pin`` residual measures v_j - f_j; without such a
    channel there is no ``r_pin`` to compute.  The penalties and the
    proximal weight are those ``system`` was built with; from ``config``
    only lam, inner_tol and inner_max_iter are read.

    ``duals`` is the multiplier pair (eta, mu), shaped like ``f.values`` and
    (n_triangles, 3, channels); the loop starts from it, or from zeros when
    it is None.  The vertex iterate starts from ``u_k`` and the splitting
    variables (y, z) are computed from it and the duals, so the duals are
    the whole state a warm start needs.  The loop works on their rows for F
    and T; the other rows are returned as they came.  The inputs are not
    modified.

    Returns (image, inner_iterations, converged, duals), the last being the
    final (eta, mu); a False flag means the residual rule was not met within
    inner_max_iter.  Pinned entries of the result are the observed data
    exactly, so the pinning constraint holds bit-for-bit.
    """
    if f.values.shape != u_k.values.shape:
        raise DimensionMismatch("f and u_k must have identical shapes")
    if f.vertex_count != op.n_vertices:
        raise DimensionMismatch("image and operator vertex counts differ")
    f2, u_ref = f.values, u_k.values
    channels = f2.shape[1]
    if support.shape != f2.shape or support.dtype != bool:
        raise DimensionMismatch("support must be a boolean mask shaped like f")
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (np.count_nonzero(support),):
        raise DimensionMismatch("one weight per support entry required")
    mu_shape = (op.n_triangles, 3, channels)
    if duals is None:
        duals = np.zeros_like(f2), np.zeros(mu_shape)
    elif duals[0].shape != f2.shape or duals[1].shape != mu_shape:
        raise DimensionMismatch("duals must be shaped like f and its gradient")
    if w.size == 0:
        return MeshImage(f2.copy()), 0, True, duals

    free = np.flatnonzero(support.any(axis=1))
    part = None if system is None else system.part
    if system is None or system.n != free.size or (
            part is not None and not np.array_equal(part.vertices, free)):
        raise DimensionMismatch(f"system not built for the {free.size} free vertices")
    if part is None:
        # every vertex is free: nothing to slice and no pinned offset
        verts = tris = slice(None)
        sub_op, f_free, offset = op, f2, None
    else:
        if not np.array_equal(part.data, f2, equal_nan=True):
            raise DimensionMismatch("system not built for this image's values")
        verts, tris, sub_op = part.vertices, part.triangles, part.op
        f_free, offset = part.f_free, part.offset
    u_free, fitted = u_ref[verts], support[verts]
    # None when no channel is pinned at a free vertex (always for gray images)
    unfitted = ~fitted if not fitted.all() else None
    eta, mu = duals[0][verts], duals[1][tris]

    beta1, beta2, prox_weight = system.beta1, system.beta2, system.prox_weight
    y_threshold = np.full(f_free.shape, np.inf)
    y_threshold[fitted] = config.lam * w / beta1
    z_threshold = 1.0 / beta2
    prox_term = prox_weight * u_free

    # z holds the gradient split minus the offset, so that grad_v - z is the
    # constraint residual D_F v + g0 - (z + g0) and beta2 * z - mu already
    # carries the right-hand-side term -beta2 * D_F^T A g0
    v = u_free.copy()
    grad_v = gradient.apply(sub_op, v)
    scale = np.sqrt(f2.size)
    iters, converged = config.inner_max_iter, False

    for t in range(config.inner_max_iter):
        y = shrink_1d(v - f_free + eta / beta1, y_threshold)
        if offset is None:
            z = _shrink_groups(grad_v + mu / beta2, z_threshold)
        else:
            z = _shrink_groups(grad_v + offset + mu / beta2, z_threshold) - offset

        rhs = (
            gradient.apply_adjoint(sub_op, beta2 * z - mu)
            + beta1 * (y + f_free)
            - eta
            + prox_term
        )
        v = solve_normal_equation(system, rhs)
        if not np.isfinite(v).all():
            raise NonFiniteIterate("ADMM produced non-finite vertex values")
        grad_v = gradient.apply(sub_op, v)

        r_y = v - f_free - y
        r_z = grad_v - z
        eta = eta + beta1 * r_y
        mu = mu + beta2 * r_z

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
    out, eta_out, mu_out = f2.copy(), duals[0].copy(), duals[1].copy()
    out[verts], eta_out[verts], mu_out[tris] = v, eta, mu
    return MeshImage(out), iters, converged, (eta_out, mu_out)


def _l1tv_solve_full(f: MeshImage, u0: MeshImage, op: GradientOperator,
                     config: SolverConfig, system: NormalEquationSystem):
    """L1-TV from ``u0``: the subproblem with full support, unit weights, a
    prox-free ``system`` and zero starting duals.  Returns (image,
    inner_iterations, converged)."""
    support = np.ones(f.values.shape, dtype=bool)
    return admm_solve(f, u0, support, np.ones(f.values.size), op, config,
                      system)[:3]
