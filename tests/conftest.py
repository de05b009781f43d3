import numpy as np
import pytest

from meshtv.admm import NormalEquationSystem, admm_solve, restrict
from meshtv.gradient import assemble_gram
from meshtv.imaging import MeshImage
from meshtv.mesh import TriangleMesh


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
    """The subproblem system of ``support``'s free vertices for the image
    ``f``, with ``config``'s penalties and proximal weight; None when the
    support is empty."""
    free = np.flatnonzero(support.any(axis=1))
    if not free.size:
        return None
    part = restrict(op, free, f.values)
    return NormalEquationSystem(assemble_gram(part.op), config.beta1,
                                config.beta2, config.prox_weight, part)


def admm_full_size(f, u_k, support, w, op, config, system, duals=None):
    """``admm_solve`` on full-size images, masks and duals: ``w`` holds one
    weight per True entry of ``support`` in C order, and is spread into a
    weight array that is +inf off the support; ``u_k``, the weights and the
    duals are sliced to the rows of ``system.part``, and the solve's values
    and duals are scattered back into copies of ``f`` and of the duals
    (zeros when None).  Returns what ``admm_solve`` returns."""
    rows, triangles = system.part.vertices, system.part.triangles
    weights = np.full(support.shape, np.inf)
    weights[support] = w
    if duals is None:
        full = (np.zeros(f.values.shape),
                np.zeros((op.n_triangles, 3, f.channel_count)))
        part_duals = None
    else:
        full, part_duals = duals, (duals[0][rows], duals[1][triangles])
    v, iters, converged, (eta, mu) = admm_solve(
        u_k.values[rows], weights[rows], config, system, part_duals)
    out, eta_out, mu_out = f.values.copy(), full[0].copy(), full[1].copy()
    out[rows], eta_out[rows], mu_out[triangles] = v, eta, mu
    return MeshImage(out), iters, converged, (eta_out, mu_out)


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
