import numpy as np
import pytest

from meshtv.lptv import _free_system
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


def prox_system(op, config, f, support):
    """The subproblem system of ``support``'s free vertices for the image
    ``f``, with ``config``'s penalties and proximal weight; None when the
    support is empty."""
    return _free_system(op, f, support.any(axis=1), config, config.prox_weight)


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
