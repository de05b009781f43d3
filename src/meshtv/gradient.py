"""Discrete gradient of piecewise-linear vertex data on a triangle mesh.

The gradient of the linear interpolant is constant on each triangle.  On a
triangle [a, b, c] with normal n = (b - a) x (c - a), the hat function of a
corner has gradient n x e / |n|^2, of length |e| / (2 |tau|), where e is the
opposite edge: c - b, a - c or b - a.  The mesh owns n, the areas and the one
degeneracy rule; the builder reads them.  The three hat gradients per triangle
make a sparse linear map from vertex values to per-triangle 3-vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch
from .mesh import TriangleMesh


@dataclass(frozen=True)
class GradientOperator:
    """Per-triangle gradient blocks of a mesh, stored as one sparse matrix.

    ``matrix`` is the (3 * n_triangles, n_vertices) CSR operator: rows
    3i..3i+2 hold the gradient on triangle i, so applying the operator and
    its adjoint are single sparse products.  Its only nonzero columns in
    those rows are the three vertices of triangle i.  ``adjoint`` is its
    transpose, built once as a CSR matrix when the operator is made, so that
    ``apply_adjoint`` builds no matrix object per call.  ``tri_areas`` holds
    the weights of the TV term: for the operator of a whole mesh it is the
    mesh's own read-only ``areas`` array.  An operator restricted to some
    vertices and the triangles that touch them (``admm.restrict``) keeps
    only those columns and rows, and ``tri_areas`` is then the subset of
    areas of those triangles.
    """

    tri_areas: np.ndarray        # (n_tri,)
    matrix: sp.csr_matrix = field(repr=False)
    adjoint: sp.csr_matrix = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "adjoint", self.matrix.T.tocsr())

    @property
    def n_vertices(self) -> int:
        return self.matrix.shape[1]

    @property
    def n_triangles(self) -> int:
        return self.tri_areas.shape[0]


def build_gradient_operator(mesh: TriangleMesh) -> GradientOperator:
    """Assemble the gradient operator of a validated mesh."""
    tris = mesh.triangles
    a, b, c = mesh.vertices[tris.T]
    nn = np.einsum("ij,ij->i", mesh.normals, mesh.normals)
    opposite = np.stack([c - b, a - c, b - a], axis=1)
    hats = np.cross(mesh.normals[:, None, :], opposite) / nn[:, None, None]

    # row 3i + r holds component r of the three hats of triangle i
    matrix = sp.csr_matrix(
        (hats.transpose(0, 2, 1).ravel(), np.repeat(tris, 3, axis=0).ravel(),
         np.arange(0, hats.size + 1, 3)),
        shape=(3 * len(tris), mesh.n_vertices),
    )
    matrix.sort_indices()  # fixes the order in which each row's products sum
    return GradientOperator(tri_areas=mesh.areas, matrix=matrix)


def apply(op: GradientOperator, u: np.ndarray) -> np.ndarray:
    """Gradient of vertex data: (n_tri, 3) for 1-D input, (n_tri, 3, c) for 2-D."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape[0] != op.n_vertices:
        raise DimensionMismatch(
            f"expected {op.n_vertices} vertex values, got {u.shape[0]}"
        )
    flat = op.matrix @ u
    if u.ndim == 1:
        return flat.reshape(-1, 3)
    return flat.reshape(-1, 3, u.shape[1])


def apply_adjoint(op: GradientOperator, z: np.ndarray) -> np.ndarray:
    """Area-weighted adjoint: sum_i |tau_i| D_i^T z[i].

    ``z`` has shape (n_tri, 3) or (n_tri, 3, c).  Returns per-vertex data
    matching the trailing shape of z.  The areas weight z first; the product
    is then taken with the transpose ``op.adjoint`` stored in the operator,
    which gives the same bits as ``op.matrix.T @ (areas * z)``.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape[0] != op.n_triangles or z.shape[1] != 3:
        raise DimensionMismatch(f"bad gradient-data shape {z.shape}")
    if z.ndim == 2:
        zw = (z * op.tri_areas[:, None]).reshape(-1)
    else:
        zw = (z * op.tri_areas[:, None, None]).reshape(-1, z.shape[2])
    return op.adjoint @ zw


def assemble_gram(op: GradientOperator) -> sp.csr_matrix:
    """Area-weighted Gram matrix sum_i |tau_i| D_i^T D_i (sparse, symmetric PSD).

    Constant vectors on each connected component lie in its kernel.  For a
    restricted operator this is the free-vertex block of the whole mesh's
    Gram matrix.  ``plm_solve`` assembles it once per call for L1-TV and once per
    free-vertex set for Lp-TV; nothing caches it across calls.
    """
    warea = np.repeat(op.tri_areas, 3)
    weighted = sp.diags(warea) @ op.matrix
    gram = (op.matrix.T @ weighted).tocsr()
    gram = (gram + gram.T) * 0.5
    return gram.tocsr()
