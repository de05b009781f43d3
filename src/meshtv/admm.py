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
    the constants the image data fix there: all that a subproblem reads.

    ``vertices`` and ``triangles`` are sorted index arrays; ``op`` is the
    gradient restricted to them: the rows of those triangles, the columns of
    those vertices, and their areas.  Every triangle whose gradient depends
    on a free vertex is kept, so ``assemble_gram(op)`` is exactly the
    free-vertex block of the full Gram matrix.  ``f_free`` holds the image
    values at ``vertices`` and ``offset`` the gradient g0 = D_P f_P that the
    pinned vertices contribute on ``triangles``.  The rest is constant:
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
    (n_vertices, channels) image values ``data``."""
    if vertices.size == op.n_vertices:
        triangles, sub = np.arange(op.n_triangles), op
    else:
        columns = op.matrix[:, vertices]
        # each triangle owns three rows; it touches a free vertex when one
        # of them stores an entry in a free column
        touched = np.diff(columns.indptr).reshape(-1, 3).any(axis=1)
        triangles = np.flatnonzero(touched)
        rows = (3 * triangles[:, None] + np.arange(3)).ravel()
        sub = GradientOperator(tri_areas=op.tri_areas[triangles], matrix=columns[rows])
    pinned = data.copy()
    pinned[vertices] = 0.0
    grad = gradient.apply(op, pinned)
    outside = np.ones(op.n_triangles, dtype=bool)
    outside[triangles] = False
    norms = np.linalg.norm(grad[outside].reshape(-1, 3 * data.shape[1]), axis=1)
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
    iteration in between.  Whether the system is factorized or solved by CG
    depends on its size, the number of free vertices.  Because the penalties
    stay fixed, the multipliers of one outer iteration are also a valid
    starting point for the next, and ``plm_solve`` passes them on.  The
    penalties and the proximal weight are kept because the ADMM steps must
    use the ones the matrix was built with; this system is their only source.
    """

    def __init__(self, gram: sp.spmatrix, beta1: float, beta2: float,
                 prox_weight: float, part: FreePart):
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
    u_k: np.ndarray,
    fitted: np.ndarray,
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
    carried by the part.  ``u_k`` (|F|, channels) is both the proximal center
    and the starting iterate; ``plm_solve`` passes either its current iterate
    or an extrapolated one.  ``fitted`` is the boolean support mask on F,
    shaped like ``u_k``, and ``w`` holds one weight per True entry, in C order.

    Minimizes lam * sum_j w_j |v_j - f_j| over the fitted entries, plus the
    area-weighted TV on T and prox_weight/2 * ||v - u_k||^2, subject to
    v_j = f_j at the other entries.  For a color image a channel pinned at a
    free vertex stays among the unknowns as a weight of +inf: its y threshold
    is +inf, so its y stays 0 and its ``r_pin`` residual measures v_j - f_j;
    without such a channel there is no ``r_pin`` to compute.  Residual norms
    are scaled by sqrt(``part.size``), the whole image's value count.  The
    penalties and the proximal weight are those ``system`` was built with;
    from ``config`` only lam, inner_tol and inner_max_iter are read.

    ``duals`` is the multiplier pair (eta, mu), shaped (|F|, channels) and
    (|T|, 3, channels), or None for zeros.  The splitting variables (y, z)
    are computed from ``u_k`` and the duals, so the duals are the whole state
    a warm start needs.  The inputs are not modified.

    Returns (v, inner_iterations, converged, duals): the values on F, with
    pinned channels equal to the data bit for bit, and the final (eta, mu);
    a False flag means the residual rule was not met within inner_max_iter.
    """
    f_free, offset, sub_op = system.part.f_free, system.part.offset, system.part.op
    if fitted.dtype != bool or not u_k.shape == fitted.shape == f_free.shape:
        raise DimensionMismatch(f"center and boolean support must be {f_free.shape}")
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (np.count_nonzero(fitted),):
        raise DimensionMismatch("one weight per support entry required")
    if duals is None:
        duals = np.zeros(f_free.shape), np.zeros(offset.shape)
    elif duals[0].shape != f_free.shape or duals[1].shape != offset.shape:
        raise DimensionMismatch("duals must be shaped like the part and its gradient")
    # None when no channel is pinned at a free vertex (always for gray images)
    unfitted = ~fitted if not fitted.all() else None
    eta, mu = duals

    beta1, beta2, prox_weight = system.beta1, system.beta2, system.prox_weight
    y_threshold = np.full(f_free.shape, np.inf)
    y_threshold[fitted] = config.lam * w / beta1
    z_threshold = 1.0 / beta2
    prox_term = prox_weight * u_k

    # z holds the gradient split minus the offset, so that grad_v - z is the
    # constraint residual D_F v + g0 - (z + g0) and beta2 * z - mu already
    # carries the right-hand-side term -beta2 * D_F^T A g0
    v = u_k.copy()
    grad_v = gradient.apply(sub_op, v)
    scale = np.sqrt(system.part.size)
    iters, converged = config.inner_max_iter, False

    for t in range(config.inner_max_iter):
        y = shrink_1d(v - f_free + eta / beta1, y_threshold)
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
    return v, iters, converged, (eta, mu)


def _l1tv_solve_full(u0: MeshImage, config: SolverConfig,
                     system: NormalEquationSystem):
    """L1-TV from ``u0``: the subproblem of a ``system`` whose part is every
    vertex, with full support, unit weights, no proximal term and zero
    starting duals.  Returns (image, inner_iterations, converged)."""
    fitted = np.ones(u0.values.shape, dtype=bool)
    v, iters, converged, _ = admm_solve(u0.values, fitted,
                                        np.ones(u0.values.size), config, system)
    return MeshImage(v), iters, converged
