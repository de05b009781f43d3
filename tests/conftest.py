import numpy as np
import pytest

from meshtv import admm
from meshtv.admm import NormalEquationSystem, admm_solve, restrict
from meshtv.gradient import assemble_gram
from meshtv.imaging import MeshImage
from meshtv.mesh import TriangleMesh
from meshtv.synthetic import icosphere


def count_opens(monkeypatch, *modules):
    """Record the path of every file the ``modules`` open through ``open``."""
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(path)
        return open(path, *args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, "open", counting_open, raising=False)
    return opened


def smallest_nonzero_residual(u, f):
    """The smallest nonzero |u_j - f_j| of the images ``u`` and ``f``; +inf
    when every residual is exactly zero.  On a converged run it sits strictly
    above eps_support: values that left the support are pinned bit-exactly,
    the rest stay separated."""
    residual = np.abs(u.values - f.values)
    nonzero = residual[residual > 0.0]
    return float(nonzero.min()) if nonzero.size else np.inf


def prox_system(op, config, f, support):
    """The subproblem (part, system) of ``support``'s free vertices for the
    image ``f``, with ``config``'s penalties; None when the support is
    empty."""
    free = np.flatnonzero(support.any(axis=1))
    if not free.size:
        return None
    part = restrict(op, free, f.values)
    return part, NormalEquationSystem(assemble_gram(part.op), config.beta1,
                                      config.beta2)


def admm_full_size(f, u_k, support, w, op, config, subproblem, state=None,
                   prox_weight=None):
    """``admm_solve`` on full-size images, masks and multipliers: ``w`` holds
    one weight per True entry of ``support`` in C order, and is spread into
    a weight array that is +inf off the support and multiplied by
    ``config.lam``; the solve runs with ``config.prox_weight`` (or
    ``prox_weight`` when given) to ``config.inner_tol`` within
    ``config.inner_max_iter`` steps.  ``u_k``, the weights and the
    multipliers of ``state`` (eta, mu, s) are sliced to the rows of the
    part of ``subproblem`` (part, system), and the solve's values and
    multipliers are scattered back into copies of ``f`` and of the
    multipliers (zeros when None).
    Returns what ``admm_solve`` returns: (image, iterations, converged,
    state)."""
    part, system = subproblem
    rows, triangles = part.vertices, part.triangles
    weights = np.full(support.shape, np.inf)
    weights[support] = w
    if prox_weight is None:
        prox_weight = config.prox_weight
    if state is None:
        full = (np.zeros(f.values.shape),
                np.zeros((op.n_triangles, 3, f.channel_count)))
        part_state = None
    else:
        full, part_state = state, (state[0][rows], state[1][triangles], state[2])
    v, iters, converged, (eta, mu, scale) = admm_solve(
        u_k.values[rows], config.lam * weights[rows], prox_weight, part,
        system, config.inner_tol, config.inner_max_iter, part_state)
    out, eta_out, mu_out = f.values.copy(), full[0].copy(), full[1].copy()
    out[rows], eta_out[rows], mu_out[triangles] = v, eta, mu
    return MeshImage(out), iters, converged, (eta_out, mu_out, scale)


def nan_at_step(monkeypatch, step, value=np.nan):
    """Make ``admm.solve_normal_equation`` put ``value``, a NaN unless
    given, in its ``step``-th solution; returns the list that counts its
    calls."""
    calls = []
    solve = admm.solve_normal_equation

    def solve_then_spoil(system, rhs):
        calls.append(rhs.shape)
        out = solve(system, rhs)
        if len(calls) == step:
            out[0, 0] = value
        return out

    monkeypatch.setattr(admm, "solve_normal_equation", solve_then_spoil)
    return calls


def two_spheres():
    """Two disjoint copies of icosphere(2)."""
    sphere = icosphere(2)
    return TriangleMesh(
        np.vstack([sphere.vertices, sphere.vertices + [3.0, 0.0, 0.0]]),
        np.vstack([sphere.triangles, sphere.triangles + sphere.n_vertices]))


def bowtie():
    """Two copies of icosphere(2) that share one vertex."""
    # sphere vertex 3 is the antipode of vertex 0, so the copy moved by
    # 2 * v0 meets the first sphere only at v0, and its vertex 3 becomes
    # vertex 0
    sphere = icosphere(2)
    n = sphere.n_vertices
    rest = np.delete(np.arange(n), 3)
    index = np.empty(n, dtype=np.int64)
    index[3], index[rest] = 0, n + np.arange(n - 1)
    return TriangleMesh(
        np.vstack([sphere.vertices, sphere.vertices[rest] + 2.0 * sphere.vertices[0]]),
        np.vstack([sphere.triangles, index[sphere.triangles]]))


@pytest.fixture
def right_triangle_mesh():
    """Single right triangle (0,0,0), (1,0,0), (0,1,0): area 1/2."""
    return TriangleMesh(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[0, 1, 2]]
    )


@pytest.fixture
def two_triangle_mesh():
    """Unit square in z = 0 split along the diagonal: 4 vertices, 2 triangles."""
    verts = [
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [1.0, 1.0, 0.0],
    ]
    return TriangleMesh(verts, [[0, 1, 2], [1, 3, 2]])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
