"""Discrete gradient of piecewise-linear vertex data on a triangle mesh.

The gradient of the linear interpolant is constant on each triangle.  On a
triangle [a, b, c] with normal n = (b - a) x (c - a), the hat function of a
corner has gradient n x e / |n|^2, of length |e| / (2 |tau|), where e is the
opposite edge: c - b, a - c or b - a.  The mesh owns n, the areas and the one
degeneracy rule; the builder reads them.  The three hat gradients per triangle
make a sparse linear map from vertex values to per-triangle 3-vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .errors import DimensionMismatch
from .mesh import TriangleMesh


@dataclass(frozen=True)
class GradientOperator:
    """Per-triangle gradient blocks of a mesh, stored as one sparse matrix.

    ``matrix`` is the (3 * n_triangles, n_vertices) CSR operator D: rows
    3i..3i+2 hold the gradient on triangle i, so applying the operator is a
    single sparse product.  Its only nonzero columns in those rows are the
    three vertices of triangle i.  ``tri_areas`` holds the weights A of the
    TV term: for the operator of a whole mesh it is the mesh's own
    read-only ``areas`` array.  ``adjoint`` is the area-weighted transpose
    D^T A as a CSR matrix, built once when the operator is made: each entry
    of D is multiplied by its triangle's area as the one transpose is
    taken, so that ``apply_adjoint`` is a single sparse product too.  An
    operator restricted to some vertices and the triangles that touch them
    (``admm.restrict``) keeps only those columns and rows, and
    ``tri_areas`` is then the subset of areas of those triangles.

    ``memo`` keeps what the solvers derive from the operator alone, for as
    long as the operator lives, and is filled lazily on the first solve.
    It has one owner, ``lptv.plm_solve`` (through ``lptv._system``), and
    two keys: the whole Gram matrix under "gram" and the last whole-mesh
    ``admm.NormalEquationSystem``, the factor, under "system".  Dropping
    the operator frees both.
    """

    tri_areas: np.ndarray        # (n_tri,)
    matrix: sp.csr_matrix = field(repr=False)
    adjoint: sp.csr_matrix = field(init=False, repr=False)
    memo: dict = field(init=False, repr=False, compare=False,
                       default_factory=dict)

    def __post_init__(self):
        # the CSR arrays of A D, read as CSC, are those of (A D)^T = D^T A;
        # the entries of triangle i's three rows are contiguous
        d = self.matrix
        areas = np.repeat(self.tri_areas, np.diff(d.indptr[::3]))
        weighted = sp.csc_matrix((d.data * areas, d.indices, d.indptr),
                                 shape=d.shape[::-1])
        object.__setattr__(self, "adjoint", weighted.tocsr())

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


def _product(matrix: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """``matrix @ x`` for a float64 CSR ``matrix`` and a 1-D or 2-D ``x``
    with one row per column of ``matrix``, by the kernel that scipy's ``@``
    ends in: ``csr_matvec`` for one column, ``csr_matvecs`` for several,
    each summing a row's products in stored order into a zeroed output, so
    the bits are those of ``@`` without its per-call dispatch.

    The kernels are private to scipy and check no size: an output shorter
    than the matrix's rows is written past its end.  So the input is read
    as a C-contiguous float64 array, its rows and dimensions are checked
    here, and the output is allocated here, before any kernel runs.
    """
    rows, cols = matrix.shape
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[0] != cols:
        raise DimensionMismatch(f"expected {cols} rows of one or more "
                                f"columns, got shape {x.shape}")
    # the kernels read only the data of these C-contiguous arrays
    out = np.zeros((rows,) + x.shape[1:])
    if x.ndim == 1 or x.shape[1] == 1:
        _sparsetools.csr_matvec(rows, cols, matrix.indptr, matrix.indices,
                                matrix.data, x, out)
    else:
        _sparsetools.csr_matvecs(rows, cols, x.shape[1], matrix.indptr,
                                 matrix.indices, matrix.data, x, out)
    return out


def apply(op: GradientOperator, u: np.ndarray) -> np.ndarray:
    """Gradient of vertex data: (n_tri, 3) for 1-D input, (n_tri, 3, c) for 2-D."""
    flat = _product(op.matrix, u)
    return flat.reshape((op.n_triangles, 3) + flat.shape[1:])


def apply_adjoint(op: GradientOperator, z: np.ndarray) -> np.ndarray:
    """Area-weighted adjoint: sum_i |tau_i| D_i^T z[i].

    ``z`` has shape (n_tri, 3) or (n_tri, 3, c).  Returns per-vertex data
    matching the trailing shape of z.  The areas are in the stored
    ``op.adjoint`` = D^T A, so this is one sparse product with z as it is,
    and gives the same bits as ``(A @ op.matrix).T @ z``.
    """
    z = np.asarray(z)
    if z.ndim not in (2, 3) or z.shape[:2] != (op.n_triangles, 3):
        raise DimensionMismatch(f"bad gradient-data shape {z.shape}")
    return _product(op.adjoint, z.reshape((3 * op.n_triangles,) + z.shape[2:]))


def triangle_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an (n_tri, 3) gray or (n_tri, 3, 3)
    color stack, over all its 3 or 9 entries: the bits of
    ``np.linalg.norm(x.reshape(n_tri, -1), axis=1)``.

    numpy adds fewer than 8 terms of a row left to right, and 8 to 15 in
    eight pairwise-combined accumulators followed by the rest, so the
    explicit sums give the same bits without numpy's slow reduction over a
    short axis.
    """
    sq = x.reshape(x.shape[0], math.prod(x.shape[1:]))  # also when empty
    sq = sq * sq
    s = sq.T
    if len(s) == 3:
        return np.sqrt(s[0] + s[1] + s[2])
    return np.sqrt((((s[0] + s[1]) + (s[2] + s[3]))
                    + ((s[4] + s[5]) + (s[6] + s[7]))) + s[8])


def assemble_gram(op: GradientOperator) -> sp.csr_matrix:
    """Area-weighted Gram matrix sum_i |tau_i| D_i^T D_i (sparse, symmetric PSD).

    Constant vectors on each connected component lie in its kernel.  For a
    restricted operator this is the free-vertex block of the whole mesh's
    Gram matrix, bit for bit.  ``plm_solve`` assembles it once per operator,
    on its first solve, keeps it in ``op.memo`` and slices each free-vertex
    set's block from it.
    """
    warea = np.repeat(op.tri_areas, 3)
    weighted = sp.diags(warea) @ op.matrix
    gram = (op.matrix.T @ weighted).tocsr()
    gram = (gram + gram.T) * 0.5
    return gram.tocsr()
