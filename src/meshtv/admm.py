"""ADMM solver for the convex inner subproblems.

Each outer iteration of the Lp-TV solver minimizes a weighted-L1 + TV +
proximal objective over the vertex values, with the off-support values pinned
to the observed data.  A pinned value is a constant, so the loop solves only
for the free vertices (those with a supported value) and keeps only the
triangles that touch them; the pinned neighbours enter as a fixed gradient
offset, and a part with nothing pinned has no offset at all.  Splitting the
fidelity residuals (y) and the per-triangle gradients (z) out of the vertex
variable (v) makes every step closed-form: scalar and group soft-thresholding
for (y, z), a sparse SPD normal equation for v, solved with the sparse LU
factor of its system, then gradient-ascent multiplier updates.  The proximal
term is written on y, as prox/2 * ||y + f - c||^2 with c the center, so it
enters the scalar shrink and not the matrix.

A subproblem is split by lifetime: its ``FreePart`` holds every constant the
image data fix on one free-vertex set, and its ``NormalEquationSystem`` is
the factor of a matrix that depends on the mesh, the free-vertex set and the
penalties alone, never on the image.  This module keeps neither: the outer
loop builds both and passes them, with the center, the lam-weighted weights,
the proximal weight, the tolerance and the step limit; it reads no
solver configuration.  The same loop with full support, every weight lam,
and zero proximal weight is the plain L1-TV warm start.  The loop runs ADMM
in its scaled form (Boyd et al., FnT ML 3(1), 2011, section 3.1.1): it keeps
the multipliers divided by their penalties, so a step neither divides nor
multiplies by a penalty, and the right-hand side divided by beta2 depends on
the penalties only through their ratio, which every factor s leaves alone.
Every subproblem's matrix beta2 * Gram + beta1 * I is homogeneous in the
penalties, so the one factorization solves the system at every s.  Every
BALANCE_EVERY steps a solve compares the normalized primal and dual
residuals (residual balancing, Wohlberg 2017, arXiv:1704.06209) and moves s
by BALANCE_FACTOR towards their balance, dividing the scaled multipliers by
the same factor; it stops only when both residuals are small, so its
stopping point does not depend on the penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import gradient
from .errors import DimensionMismatch, NonFiniteIterate, SingularSystem
from .gradient import GradientOperator

# Residual balancing of every solve: every BALANCE_EVERY steps, when one
# normalized residual exceeds BALANCE_RATIO times the other, the common
# penalty factor is multiplied or divided by BALANCE_FACTOR.  A power of two
# scales the penalties and the scaled multipliers exactly.
BALANCE_EVERY = 10
BALANCE_RATIO = 10.0
BALANCE_FACTOR = 2.0


def shrink_1d(x: np.ndarray, threshold) -> np.ndarray:
    """Soft thresholding: the exact minimizer of threshold*|t| + (t - x)^2 / 2.

    Applied entry by entry; ``threshold`` broadcasts against ``x``.
    """
    # x minus x clipped to [-threshold, threshold], which np.clip computes
    # the same way at a higher fixed cost per call
    out = np.minimum(np.maximum(x, -threshold), threshold)
    return np.subtract(x, out, out=out) if out.ndim else x - out


def _shrink_groups(a: np.ndarray, threshold: float) -> np.ndarray:
    """Group soft thresholding of each row of an (n, ...) stack.

    Row i, with its trailing axes flattened into one vector, is shrunk in
    Euclidean norm by ``threshold`` with its direction kept: the exact
    minimizer of threshold*||t|| + ||t - a_i||^2 / 2.  A row whose norm is
    at most ``threshold`` becomes zero; in particular a zero row stays zero,
    following the 0 * (0/0) = 0 convention.
    """
    scale = gradient.triangle_norms(a)
    # t / max(norm, t) is exactly 1 for a row with norm <= t; under a zero
    # threshold the divisor is 1 instead of 0, so a zero row gives 0
    np.maximum(scale, threshold or 1.0, out=scale)
    np.divide(threshold, scale, out=scale)
    np.subtract(1.0, scale, out=scale)
    return a * scale.reshape((-1,) + (1,) * (a.ndim - 1))


@dataclass(frozen=True)
class FreePart:
    """The free vertices of a subproblem, the triangles that touch them, and
    every constant the image data fix there: all that a subproblem reads
    besides its system.

    ``vertices`` and ``triangles`` are sorted index arrays; ``op`` is the
    gradient restricted to them: the rows of those triangles, the columns of
    those vertices, and their areas.  Every triangle whose gradient depends
    on a free vertex is kept, so ``assemble_gram(op)`` is exactly the
    free-vertex block of the full Gram matrix.  ``f_free`` holds the image
    values at ``vertices`` and ``offset`` the gradient g0 = D_P f_P that the
    pinned vertices contribute on ``triangles``; ``admm_solve`` splits the
    true gradient D_F v + g0 there as z, and subtracts ``offset_adjoint``,
    D_F^T A g0, in the constant part of its right-hand side.  The rest is
    constant:
    ``pinned_tv`` is the TV of the other triangles, ``pinned_sq`` the squared
    norm of the pinned values, and ``size`` the value count of the image, so
    the objective and the norm of an image that is the data outside the part
    are a part term plus a constant.  When nothing is pinned (L1-TV, or an
    Lp-TV step with every vertex free), ``op`` is the whole operator, the
    constants are zero, and ``offset`` and ``offset_adjoint`` are None.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    op: GradientOperator
    f_free: np.ndarray
    offset: np.ndarray | None
    offset_adjoint: np.ndarray | None
    pinned_tv: float
    pinned_sq: float
    size: int


def restrict(op: GradientOperator, vertices: np.ndarray,
             data: np.ndarray) -> FreePart:
    """The part of ``op`` that acts on the sorted free ``vertices``, for the
    (n_vertices, channels) image values ``data``.  This is the one test of
    whether anything is pinned: when every vertex is free, the part shares
    ``op`` and ``data``, its constants are zero, and it has no offset and no
    offset adjoint (both None), so no gradient of a zero image is formed."""
    if vertices.size == op.n_vertices:
        return FreePart(vertices, np.arange(op.n_triangles), op, data, None,
                        None, 0.0, 0.0, data.size)
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
    offset = grad[triangles]
    outside = np.ones(op.n_triangles, dtype=bool)
    outside[triangles] = False
    norms = gradient.triangle_norms(grad[outside])
    return FreePart(vertices, triangles, sub, data[vertices], offset,
                    gradient.apply_adjoint(sub, offset),
                    float(op.tri_areas[outside] @ norms),
                    float(np.vdot(pinned, pinned)), data.size)


class NormalEquationSystem:
    """The sparse LU factor of the SPD matrix beta2 * Gram + beta1 * I.

    ``gram`` is the Gram matrix of the operator the ADMM loop runs on, that
    of a ``FreePart``, so the matrix depends on the mesh, the free-vertex set
    and the penalties, never on the image.  The system is that factor alone:
    its ``n`` unknowns, the two penalties and the SuperLU factor (with a
    fill-reducing column ordering), not the matrix; a factorization that
    fails, or runs out of memory, raises SingularSystem.  The matrix is
    built from the arrays of ``gram``, a canonical CSR matrix that must
    store its whole diagonal (the Gram of a validated mesh does: no vertex
    is isolated) and be exactly symmetric (``assemble_gram`` makes it so),
    so that its CSR arrays, scaled by beta2 and with beta1 added on the
    diagonal, are the CSC arrays the factorization reads.  The penalties
    are kept because the ADMM steps must use multiples of the ones the
    matrix was built with; this system is their only source.  The matrix
    holds no proximal term, so a common power-of-two multiple s of both
    penalties scales it by s and leaves its factorization valid (see
    ``admm_solve``).  Which system serves which part, and how long a factor
    is kept, is the outer loop's choice (``lptv.plm_solve``).
    """

    def __init__(self, gram: sp.spmatrix, beta1: float, beta2: float):
        if not (math.isfinite(beta1) and math.isfinite(beta2)):
            raise ValueError("penalties must be finite")
        if beta1 <= 0.0 or beta2 <= 0.0:
            raise ValueError("penalties must be positive")
        self.n = gram.shape[0]
        self.beta1, self.beta2 = beta1, beta2
        rows = np.repeat(np.arange(self.n), np.diff(gram.indptr))
        diagonal = np.flatnonzero(gram.indices == rows)
        # splu would sort a non-canonical matrix in place, and so the Gram's
        # own index array
        if diagonal.size != self.n or not gram.has_canonical_format:
            raise ValueError("the Gram matrix must be canonical and store "
                             "its whole diagonal")
        data = beta2 * gram.data
        data[diagonal] += beta1
        matrix = sp.csc_matrix((data, gram.indices, gram.indptr),
                               shape=gram.shape)
        try:
            self._lu = spla.splu(matrix)
        except RuntimeError as exc:
            raise SingularSystem(str(exc)) from exc
        except MemoryError as exc:
            raise SingularSystem(
                f"out of memory factorizing the system of {self.n} unknowns"
            ) from exc


def solve_normal_equation(system: NormalEquationSystem,
                          rhs: np.ndarray) -> np.ndarray:
    """Solve the vertex system for an (n, channels) right-hand side.

    SuperLU returns several columns in Fortran order; the solution is
    returned in C order, like the other arrays of the ADMM step, so that
    the step's arithmetic and sparse products read it contiguously.
    """
    if rhs.ndim != 2 or rhs.shape[0] != system.n:
        raise DimensionMismatch(f"rhs is {rhs.shape}, not (n={system.n}, channels)")
    return np.ascontiguousarray(system._lu.solve(rhs))


def admm_solve(
    u_k: np.ndarray,
    w: np.ndarray,
    prox_weight: float,
    part: FreePart,
    system: NormalEquationSystem,
    tol: float,
    max_iter: int,
    state: tuple[np.ndarray, np.ndarray, float] | None = None,
):
    """Solve one proximal-linearized subproblem around ``u_k`` by ADMM.

    Everything is in the coordinates of ``part``: the free vertices F
    (those with a supported value) and the triangles T that touch them.  The
    other vertices are the constant f, so TV is kept only on T, where the
    gradient is D_F v_F + g0, with the pinned vertices' offset g0 and f_F
    carried by the part (none, not a zero, when nothing is pinned: then
    ``part.offset is None``).  z splits that true gradient.  ``system`` is
    the factor of the part's matrix, with |F| unknowns.  ``u_k`` (|F|,
    channels) is both the proximal center and the starting iterate;
    ``plm_solve`` passes either its current iterate or an extrapolated one.
    ``w`` holds the lam-weighted weights that ``lptv.weights`` returns, shaped
    like ``u_k``: finite where the value is fitted, +inf where it is pinned.
    L1-TV is ``w`` all lam and a zero ``prox_weight``.

    Minimizes sum_j w_j |v_j - f_j| over the fitted entries, plus the
    area-weighted TV on T and prox_weight/2 * ||v - u_k||^2, subject to
    v_j = f_j at the pinned entries.  y splits v - f, and the proximal term
    is taken on it.  The loop keeps the scaled multipliers e = eta / beta1
    and m = mu / beta2.  With x = v - f + e, the y-update is
    shrink(x + mix (u_k - f - x), w / (beta1 + prox_weight)) with
    mix = prox_weight / (beta1 + prox_weight); at zero proximal weight that
    is the shrink of x, and the mixing pass is skipped.  The z-update
    shrinks D v + g0 + m by 1 / beta2.  The v-update solves
    (beta2 G + beta1 I) v = beta2 (D^T A (z - m) + ratio (y - e) + c), with
    ratio = beta1 / beta2 and c = ratio f_F - D_F^T A g0, formed once per
    call from the part's ``offset_adjoint``.  The bracket does not change
    with s, and the matrix is s times the factored one M,
    so v solves M v = system.beta2 times the bracket.  Then e += r_y and
    m += r_z, with the primal residuals r_y = v - f - y and
    r_z = D v + g0 - z.  For a color image a channel
    pinned at a free vertex stays among the unknowns: its y threshold is
    +inf, so its y stays 0, its part of r_y measures v_j - f_j, and it is
    reset to f_j after the loop.  Residual norms are scaled by
    sqrt(``part.size``), the whole image's value count.  ``max_iter`` is at
    least 1.

    The penalties are those of ``system`` times a common factor s, a power
    of BALANCE_FACTOR: every BALANCE_EVERY steps s is raised when the
    normalized primal residual exceeds BALANCE_RATIO times the normalized
    dual one, and lowered in the opposite case.  The primal residual is
    normalized by the largest of ||(v, D v + g0)||, ||(y, z)|| and ||f||,
    and the dual residual (s beta1 dv, s beta2 D dv), with dv the step's
    change of v, by ||(eta, mu)||.  When s changes by a factor, e and m are
    divided by it, so the unscaled multipliers carry over unchanged.  The
    solve stops when the primal residuals r_y (every value) and r_z, and the
    dual residual rule max(||dv||, ||D dv||), all fall below tol per value,
    so where it stops does not depend on the penalty.  The dual rule is
    checked at the balancing steps and at every step after one that met the
    primal rule.

    ``state`` is (eta, mu, s): the unscaled multipliers, shaped (|F|,
    channels) and (|T|, 3, channels), and the penalty factor, or None for
    zeros and 1.  The splitting variables (y, z) are computed from ``u_k``
    and the multipliers, so the state is all a warm start needs.  The
    inputs are not modified: ``plm_solve`` solves a rejected or redone step
    again from the same starting state, so the loop scales the multipliers
    into new arrays once and updates those in place.

    Returns (v, inner_iterations, converged, state): the values on F, with
    pinned channels equal to the data bit for bit, and the final
    (eta, mu, s); a False flag means the residual rules were not met within
    max_iter.  A step whose v holds a NaN or an infinity, or is so large
    that ||r_y||^2 overflows, raises NonFiniteIterate.
    """
    f_free, sub_op, offset = part.f_free, part.op, part.offset
    if system.n != f_free.shape[0]:
        raise DimensionMismatch(f"the system has {system.n} unknowns, "
                                f"the part {f_free.shape[0]} vertices")
    if not u_k.shape == w.shape == f_free.shape:
        raise DimensionMismatch(f"center and weights must be {f_free.shape}")
    mu_shape = (part.triangles.size, 3, f_free.shape[1])
    if state is None:
        state = np.zeros(f_free.shape), np.zeros(mu_shape), 1.0
    elif state[0].shape != f_free.shape or state[1].shape != mu_shape:
        raise DimensionMismatch("duals must be shaped like the part and its gradient")
    penalty_scale = state[2]
    beta1 = penalty_scale * system.beta1
    beta2 = penalty_scale * system.beta2
    e, m = state[0] / beta1, state[1] / beta2

    ratio = system.beta1 / system.beta2
    # the part of the right-hand side, divided by beta2, that neither the
    # iterate nor s moves
    rhs_constant = ratio * f_free
    if offset is not None:
        rhs_constant -= part.offset_adjoint
    y_threshold = w / (beta1 + prox_weight)
    mix = prox_weight / (beta1 + prox_weight)
    z_threshold = 1.0 / beta2
    center_residual = u_k - f_free
    # whether the last step met the primal rule
    primal_met = False

    v = u_k
    grad_v = gradient.apply(sub_op, v)
    if offset is not None:
        grad_v += offset
    # v - f, for this step's x and the last step's r_y
    v_minus_f = center_residual
    scale = np.sqrt(part.size)
    iters, converged = max_iter, False

    for t in range(max_iter):
        x = v_minus_f + e
        if prox_weight:
            x += mix * (center_residual - x)
        y = shrink_1d(x, y_threshold)
        z = _shrink_groups(grad_v + m, z_threshold)

        # each in-place chain adds in the order of the written-out sum
        rhs = gradient.apply_adjoint(sub_op, z - m)
        y_term = y - e
        y_term *= ratio
        rhs += y_term
        rhs += rhs_constant
        rhs *= system.beta2
        balance = (t + 1) % BALANCE_EVERY == 0
        # the dual residual is measured where the balance or the stop reads
        # it, as each new iterate replaces the old: keeping the old arrays
        # alive for longer fragments the heap
        measure_dual = balance or primal_met
        v_new = solve_normal_equation(system, rhs)
        if measure_dual:
            dual_v = _distance(v_new, v)
        v = v_new
        grad_new = gradient.apply(sub_op, v)
        if offset is not None:
            grad_new += offset
        if measure_dual:
            dual = dual_v, _distance(grad_new, grad_v)
        grad_v = grad_new

        v_minus_f = v - f_free
        r_y = v_minus_f - y
        r_z = grad_v - z
        e += r_y
        m += r_z

        # Euclidean norms as np.linalg.norm computes them, minus its wrapper
        primal = [math.sqrt(r.dot(r)) for r in (r_y.ravel(), r_z.ravel())]
        # a NaN or an infinity in v reaches r_y = v - f - y, as y is finite:
        # the norm tests v before the stop or the balance reads the step
        if not math.isfinite(primal[0]):
            raise NonFiniteIterate("ADMM produced non-finite vertex values")
        primal_met = max(primal) / scale < tol
        if primal_met and measure_dual and max(dual) / scale < tol:
            iters, converged = t + 1, True
            break
        if balance:
            change = _balance(primal, dual, beta1, beta2, v, grad_v, y, z,
                              f_free, e, m)
            if change != 1.0:
                penalty_scale *= change
                beta1 *= change
                beta2 *= change
                e /= change
                m /= change
                y_threshold = w / (beta1 + prox_weight)
                mix = prox_weight / (beta1 + prox_weight)
                z_threshold = 1.0 / beta2

    pinned = np.isinf(w)
    v[pinned] = f_free[pinned]
    e *= beta1
    m *= beta2
    return v, iters, converged, (e, m, penalty_scale)


def _distance(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b||, as np.linalg.norm computes it."""
    d = (a - b).ravel()
    return math.sqrt(d.dot(d))


def _balance(primal, dual, beta1, beta2, v, grad_v, y, z, f_free, e, m):
    """The factor, BALANCE_FACTOR, its inverse or 1, that moves the penalties
    towards balanced normalized residuals; ``primal`` holds the norms of the
    primal residual blocks, ``dual`` those of dv and D dv, and (e, m) the
    scaled multipliers."""
    def norm(*arrays):
        return math.sqrt(sum(float(np.vdot(a, a)) for a in arrays))

    primal_size = max(norm(v, grad_v), norm(y, z), norm(f_free))
    # ||(eta, mu)||
    dual_size = math.hypot(beta1 * norm(e), beta2 * norm(m))
    if primal_size == 0.0 or dual_size == 0.0:
        return 1.0
    r = math.hypot(*primal) / primal_size
    s = math.hypot(beta1 * dual[0], beta2 * dual[1]) / dual_size
    if r > BALANCE_RATIO * s:
        return BALANCE_FACTOR
    if s > BALANCE_RATIO * r:
        return 1.0 / BALANCE_FACTOR
    return 1.0

