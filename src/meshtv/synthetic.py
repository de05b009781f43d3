"""Synthetic meshes and piecewise-constant test images."""

from __future__ import annotations

import numpy as np

from .errors import InvalidParams
from .imaging import MeshImage
from .mesh import TriangleMesh

# Patterns use two intensities so that restored regions are easy to compare.
PATTERN_LOW = 0.25
PATTERN_HIGH = 0.75

# Great-circle normal for the two-patch split; chosen off-axis so no
# icosphere vertex lands exactly on the plane.
_PATCH_NORMAL = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)

_MAX_SUBDIVISIONS = 8


def icosahedron() -> TriangleMesh:
    """Regular icosahedron with unit circumradius."""
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
        [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
        [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
    ], dtype=np.float64)
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ])
    return TriangleMesh(verts, faces)


def icosphere(level: int) -> TriangleMesh:
    """Icosahedron subdivided ``level`` times, vertices projected to the unit
    sphere.  Vertex count is 10 * 4**level + 2.

    Each level keeps the old vertices first and numbers the edge midpoints
    after them in order of first visit, visiting the faces in order and each
    face's edges as ab, bc, ca; face (a, b, c) becomes [a, ab, ca],
    [b, bc, ab], [c, ca, bc] and [ab, bc, ca].  Each midpoint is scaled by
    the same norm ``np.linalg.norm`` gives its row, so the mesh is the same
    bit for bit as one built face by face.
    """
    if not 0 <= level <= _MAX_SUBDIVISIONS:
        raise InvalidParams(
            f"subdivision level must be in [0, {_MAX_SUBDIVISIONS}], got {level}"
        )
    mesh = icosahedron()
    verts, faces = mesh.vertices, mesh.triangles
    for _ in range(level):
        n = len(verts)
        # every face's edges in visiting order: ab, bc, ca
        heads = faces.ravel()
        tails = faces[:, [1, 2, 0]].ravel()
        keys = np.minimum(heads, tails) * n + np.maximum(heads, tails)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        visits = first[order]  # each edge's first visit, in visiting order
        points = verts[heads[visits]] + verts[tails[visits]]
        # one 3-vector dot per row, as np.linalg.norm computes it for one row
        norms = np.sqrt(points[:, None, :] @ points[:, :, None]).reshape(-1, 1)
        verts = np.concatenate([verts, points / norms])
        ab, bc, ca = (n + rank[inverse]).reshape(-1, 3).T
        a, b, c = faces.T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca],
                         axis=1).reshape(-1, 3)
    return TriangleMesh(verts, faces)


def planar_grid(n: int) -> TriangleMesh:
    """Unit-square grid in the z = 0 plane with n x n vertices and
    2 * (n - 1)^2 triangles, listed cell by cell, row-major: the cell with
    lower-left vertex v = i * n + j gives [v, v + n, v + 1] and
    [v + n, v + n + 1, v + 1]."""
    if n < 2:
        raise InvalidParams("grid needs at least 2 vertices per side")
    axis = np.linspace(0.0, 1.0, n)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    verts = np.column_stack([xx.ravel(), yy.ravel(), np.zeros(n * n)])
    # the lower-left vertex of each cell, row-major
    corner = np.arange(n * n).reshape(n, n)[:-1, :-1].reshape(-1, 1)
    faces = corner + np.array([0, n, 1, n, n + 1, 1])
    return TriangleMesh(verts, faces.reshape(-1, 3))


def two_patch_image(mesh: TriangleMesh) -> MeshImage:
    """Two constant regions split by a fixed great circle through the origin."""
    side = mesh.vertices @ _PATCH_NORMAL >= 0.0
    return MeshImage(np.where(side, PATTERN_HIGH, PATTERN_LOW))


def checker_image(mesh: TriangleMesh, lat_bands: int = 4,
                  lon_bands: int = 8) -> MeshImage:
    """Alternating constant cells over latitude/longitude bands."""
    if lat_bands < 1 or lon_bands < 1:
        raise InvalidParams("band counts must be positive")
    v = mesh.vertices
    radius = np.linalg.norm(v, axis=1)
    theta = np.arccos(np.clip(v[:, 2] / np.where(radius > 0, radius, 1.0), -1, 1))
    phi = np.arctan2(v[:, 1], v[:, 0])
    lat = np.minimum((theta / np.pi * lat_bands).astype(int), lat_bands - 1)
    lon = np.minimum(((phi + np.pi) / (2 * np.pi) * lon_bands).astype(int),
                     lon_bands - 1)
    parity = (lat + lon) % 2 == 0
    return MeshImage(np.where(parity, PATTERN_HIGH, PATTERN_LOW))


def generate_synthetic(spec: str):
    """Build a (mesh, image, name) test triple from a spec string.

    ``spec`` holds comma-separated ``key=value`` pairs: ``icosphere_k`` (the
    subdivision level, default 3), ``pattern`` (``two_patch``, the default,
    or ``checker``) and, for checker, ``lat_bands`` / ``lon_bands`` (default
    4 and 8).  The name is ``icosphere<k>_<pattern>``.
    """
    params = {}
    for piece in spec.split(","):
        if not piece.strip():
            continue
        key, sep, value = (tok.strip() for tok in piece.partition("="))
        if not sep:
            raise InvalidParams(f"expected key=value, got {piece.strip()!r}")
        if key in params:
            raise InvalidParams(f"repeated parameter: {key!r}")
        params[key] = value
    pattern = params.pop("pattern", "two_patch")
    keys = {"two_patch": {"icosphere_k"},
            "checker": {"icosphere_k", "lat_bands", "lon_bands"}}.get(pattern)
    if keys is None:
        raise InvalidParams(f"unknown pattern: {pattern!r}")
    if not keys.issuperset(params):
        raise InvalidParams(f"unexpected parameters: {sorted(set(params) - keys)}")
    try:
        ints = {key: int(value) for key, value in params.items()}
    except ValueError as exc:
        raise InvalidParams(f"bad integer in synthetic spec {spec!r}") from exc

    k = ints.get("icosphere_k", 3)
    mesh = icosphere(k)
    if pattern == "checker":
        image = checker_image(mesh, ints.get("lat_bands", 4), ints.get("lon_bands", 8))
    else:
        image = two_patch_image(mesh)
    return mesh, image, f"icosphere{k}_{pattern}"
