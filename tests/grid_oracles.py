"""Brute-force oracles used to pin down expected values independently of the
implementation: plain grid searches over objective functions, dense operator
assembly, subdivision counting, and synthetic meshes built one face or cell
at a time.  Nothing here touches the closed-form shrinkage, sparse or
vectorized code paths it is meant to check."""

import numpy as np

from meshtv.synthetic import icosahedron


def argmin_1d_grid(objective, lo, hi, n=4001, refine_step=1e-6):
    """Two-stage grid argmin of a scalar objective on [lo, hi].

    A coarse pass locates the basin, a fine pass with ``refine_step`` spacing
    resolves the minimizer; ``objective`` must accept arrays.
    """
    grid = np.linspace(lo, hi, n)
    best = grid[int(np.argmin(objective(grid)))]
    half = (hi - lo) / (n - 1)
    fine = np.arange(best - half, best + half + refine_step, refine_step)
    return float(fine[int(np.argmin(objective(fine)))])


def shrink_1d_oracle(x, threshold):
    """Grid minimizer of t -> threshold * |t| + (t - x)^2 / 2."""
    lo = min(0.0, x) - 0.5
    hi = max(0.0, x) + 0.5
    return argmin_1d_grid(lambda t: threshold * np.abs(t) + 0.5 * (t - x) ** 2,
                          lo, hi)


def shrink_vec_oracle(x, threshold):
    """Radial grid minimizer of v -> threshold * ||v|| + ||v - x||^2 / 2.

    The objective is radially symmetric around the ray through x, so the
    minimizer is r * x / ||x|| with r the grid argmin of the 1-D radial
    objective on r >= 0.
    """
    x = np.asarray(x, dtype=float)
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        return np.zeros_like(x)
    r = argmin_1d_grid(
        lambda t: threshold * np.abs(t) + 0.5 * (t - norm) ** 2,
        0.0, norm + 0.5,
    )
    r = max(r, 0.0)
    return r * x / norm


def nested_grid_argmin(objective, lo, hi, stages=10, points=17):
    """Shrinking-box grid search for smooth-ish convex objectives in low dim.

    ``objective`` maps an (m, d) array of candidate points to (m,) values.
    Each stage evaluates a full grid over the current box and re-centers a
    box of half the size on the winner, keeping a four-grid-step overlap.
    """
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    d = lo.size
    best = None
    for _ in range(stages):
        axes = [np.linspace(lo[j], hi[j], points) for j in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.column_stack([m.ravel() for m in mesh])
        vals = objective(pts)
        best = pts[int(np.argmin(vals))]
        half = (hi - lo) / 4.0
        lo = best - half
        hi = best + half
    return best


def make_constrained_objective(op, f, u_ref, free_idx, w_free, lam, rho):
    """Vectorized evaluator of the pinned weighted-L1 + TV + prox objective.

    ``points`` is an (m, n_free) array of candidate values for the free
    coordinates; all other coordinates are held at f.  Returns (m,) values of
    lam * sum w|u - f| (over free) + sum |tau| ||D_i u|| + rho/2 ||u - u_ref||^2.
    """
    f = np.asarray(f, dtype=float)
    u_ref = np.asarray(u_ref, dtype=float)
    blocks = dense_blocks(op)

    def evaluate(points):
        points = np.atleast_2d(points)
        full = np.tile(f, (points.shape[0], 1))
        full[:, free_idx] = points
        fid = np.abs(points - f[free_idx]) @ np.asarray(w_free, dtype=float)
        tv = np.zeros(points.shape[0])
        for area, block in zip(op.tri_areas, blocks):
            tv += area * np.linalg.norm(full @ block.T, axis=1)
        prox = 0.5 * rho * np.sum((full - u_ref) ** 2, axis=1)
        return lam * fid + tv + prox

    return evaluate


def grid2_argmin(objective, lo, hi, step=1e-3, refine_step=1e-5,
                 chunk_rows=64):
    """Plain 2-D grid argmin on [lo, hi]^2 followed by one local refinement."""

    def pass_over(lo0, hi0, lo1, hi1, h):
        xs = np.arange(lo0, hi0 + h / 2, h)
        ys = np.arange(lo1, hi1 + h / 2, h)
        best_val = np.inf
        best_pt = None
        for start in range(0, xs.size, chunk_rows):
            xblock = xs[start : start + chunk_rows]
            grid = np.column_stack([
                np.repeat(xblock, ys.size), np.tile(ys, xblock.size)
            ])
            vals = objective(grid)
            k = int(np.argmin(vals))
            if vals[k] < best_val:
                best_val = vals[k]
                best_pt = grid[k]
        return best_pt

    coarse = pass_over(lo, hi, lo, hi, step)
    return pass_over(coarse[0] - step, coarse[0] + step,
                     coarse[1] - step, coarse[1] + step, refine_step)


def dense_gram(op):
    """Dense sum_i |tau_i| D_i^T D_i via explicit per-triangle blocks."""
    n = op.n_vertices
    out = np.zeros((n, n))
    for area, block in zip(op.tri_areas, dense_blocks(op)):
        out += area * (block.T @ block)
    return out


def pinned_admm_dense(f, u_ref, support, w, op, lam, beta1, beta2, prox,
                      tol, max_iter):
    """Full-size pinned ADMM for the weighted-L1 + TV + prox subproblem.

    Every vertex is an unknown and every triangle is kept; a pinned value is
    a y threshold of +inf and is overwritten with the data at the end.  The
    vertex step is a dense ``np.linalg.solve`` with the matrix of
    ``dense_gram``, the shrinkages are written out here, and the stopping
    rule is max(fit, pin, gradient residual) / sqrt(f.size) < tol.  ``f``
    and ``u_ref`` are (n, c) arrays, ``support`` a mask of that shape and
    ``w`` one weight per True entry in C order.  Returns (v, converged).
    """
    n, c = f.shape
    areas = np.asarray(op.tri_areas, dtype=float)
    blocks = np.stack(dense_blocks(op))            # (m, 3, n)
    matrix = beta2 * dense_gram(op) + (prox + beta1) * np.eye(n)
    thr = np.full(f.shape, np.inf)
    thr[support] = lam * np.asarray(w, dtype=float) / beta1
    eta = np.zeros_like(f)
    mu = np.zeros((op.n_triangles, 3, c))
    v = u_ref.copy()
    grad = np.einsum("mkn,nc->mkc", blocks, v)
    converged = False
    for _ in range(max_iter):
        a = v - f + eta / beta1
        y = np.sign(a) * np.maximum(np.abs(a) - thr, 0.0)
        b = grad + mu / beta2
        norms = np.sqrt((b ** 2).sum(axis=(1, 2)))
        keep = np.where(norms > 1.0 / beta2,
                        1.0 - 1.0 / (beta2 * np.maximum(norms, 1e-300)), 0.0)
        z = b * keep[:, None, None]
        weighted = (beta2 * z - mu) * areas[:, None, None]
        rhs = (np.einsum("mkn,mkc->nc", blocks, weighted) + beta1 * (y + f)
               - eta + prox * u_ref)
        v = np.linalg.solve(matrix, rhs)
        grad = np.einsum("mkn,nc->mkc", blocks, v)
        r_y = v - f - y
        eta = eta + beta1 * r_y
        mu = mu + beta2 * (grad - z)
        residual = max(np.linalg.norm(r_y[support]),
                       np.linalg.norm(r_y[~support]),
                       np.linalg.norm(grad - z))
        if residual / np.sqrt(f.size) < tol:
            converged = True
            break
    v[~support] = f[~support]
    return v, converged


def dense_blocks(op):
    """Explicit dense 3 x n_vertices gradient block of every triangle."""
    return [op.matrix[3 * i : 3 * i + 3].toarray() for i in range(op.n_triangles)]


def hat_columns(op, triangles):
    """(n_tri, 3, 3) hat-function gradients: entry [i, m] is the 3-vector that
    multiplies the value at vertex ``triangles[i, m]`` on triangle i, read
    entry by entry from the matrix: row 3i + r holds its component r."""
    i, m, r = np.indices((len(triangles), 3, 3)).reshape(3, -1)
    return np.asarray(op.matrix[3 * i + r, triangles[i, m]]).reshape(-1, 3, 3)


def off_text(mesh):
    """An OFF file holding ``mesh``, coordinates to 17 significant digits."""
    lines = ["OFF", f"{mesh.n_vertices} {mesh.n_triangles} 0"]
    lines += [f"{x:.17g} {y:.17g} {z:.17g}" for x, y, z in mesh.vertices]
    lines += [f"3 {a} {b} {c}" for a, b, c in mesh.triangles]
    return "\n".join(lines) + "\n"


def edge_incidence_counts(triangles):
    """Number of triangles on each undirected edge, keyed by (low, high)
    vertex id.  A closed manifold mesh has every count equal to 2."""
    counts = {}
    for tri in triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            counts[key] = counts.get(key, 0) + 1
    return counts


def subdivision_counts(levels):
    """(n_vertices, n_triangles) of a subdivided icosahedron: every edge gains
    a midpoint vertex and every face splits in four."""
    v, e, f = 12, 30, 20
    for _ in range(levels):
        v, e, f = v + e, 2 * e + 3 * f, 4 * f
    return v, f


def interp_gradient(vertices, values):
    """Gradient of the linear interpolant on one triangle.

    Works in an orthonormal tangent basis of the triangle plane: fit
    u = a x + b y + c exactly through the three corners, then map (a, b)
    back to 3-space.  The interpolant gradient is by construction in-plane.
    """
    v = np.asarray(vertices, dtype=float)
    e1 = v[1] - v[0]
    e1 = e1 / np.linalg.norm(e1)
    e2 = v[2] - v[0]
    e2 = e2 - (e2 @ e1) * e1
    e2 = e2 / np.linalg.norm(e2)
    coords = np.column_stack([(v - v[0]) @ e1, (v - v[0]) @ e2, np.ones(3)])
    a, b, _ = np.linalg.solve(coords, np.asarray(values, dtype=float))
    return a * e1 + b * e2


def icosphere_oracle(level):
    """(vertices, triangles) of the icosahedron subdivided ``level`` times,
    built one face at a time with a dict of edge midpoints: each face's
    edges are visited as ab, bc, ca, and a midpoint gets the next vertex
    number the first time its edge is visited."""
    mesh = icosahedron()
    verts = list(mesh.vertices)
    faces = mesh.triangles
    for _ in range(level):
        midpoint = {}

        def midpoint_index(i, j):
            key = (i, j) if i < j else (j, i)
            idx = midpoint.get(key)
            if idx is None:
                point = verts[i] + verts[j]
                point = point / np.linalg.norm(point)
                verts.append(point)
                idx = len(verts) - 1
                midpoint[key] = idx
            return idx

        new_faces = np.empty((4 * len(faces), 3), dtype=np.int64)
        for n, (a, b, c) in enumerate(faces):
            ab = midpoint_index(a, b)
            bc = midpoint_index(b, c)
            ca = midpoint_index(c, a)
            new_faces[4 * n : 4 * n + 4] = [
                [a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca],
            ]
        faces = new_faces
    return np.array(verts), faces


def planar_grid_oracle(n):
    """(vertices, triangles) of the n x n unit-square grid, with the
    triangles listed cell by cell, row-major over (i, j)."""
    axis = np.linspace(0.0, 1.0, n)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    verts = np.column_stack([xx.ravel(), yy.ravel(), np.zeros(n * n)])
    faces = []
    for i in range(n - 1):
        for j in range(n - 1):
            v00 = i * n + j
            v10 = (i + 1) * n + j
            faces.append([v00, v10, v00 + 1])
            faces.append([v10, v10 + 1, v00 + 1])
    return verts, np.array(faces)
