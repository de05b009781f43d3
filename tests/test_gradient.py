import numpy as np
import pytest
import scipy.sparse as sp

from grid_oracles import dense_blocks, dense_gram, hat_columns, interp_gradient
from meshtv.admm import restrict
from meshtv.errors import DimensionMismatch
from meshtv.gradient import (
    apply,
    apply_adjoint,
    assemble_gram,
    build_gradient_operator,
)
from meshtv.mesh import TriangleMesh
from meshtv.synthetic import icosphere, planar_grid


def test_right_triangle_columns(right_triangle_mesh):
    op = build_gradient_operator(right_triangle_mesh)
    expected = np.array([[-1.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    columns = hat_columns(op, right_triangle_mesh.triangles)
    assert np.abs(columns[0] - expected).max() < 1e-12


def _jittered_icosphere(level):
    """icosphere(level) with every vertex moved off the sphere by noise."""
    mesh = icosphere(level)
    noise = np.random.default_rng(3).normal(scale=0.02, size=mesh.vertices.shape)
    return TriangleMesh(mesh.vertices + noise, mesh.triangles)


MESHES = {
    "icosphere1": lambda: icosphere(1),
    "jittered-icosphere3": lambda: _jittered_icosphere(3),
    "grid12": lambda: planar_grid(12),
}


def test_columns_match_plane_fit_oracle():
    for make_mesh in MESHES.values():
        mesh = make_mesh()
        columns = hat_columns(build_gradient_operator(mesh), mesh.triangles)
        # gradient of each hat function on every triangle
        for i in range(mesh.n_triangles):
            corners = mesh.vertices[mesh.triangles[i]]
            for m in range(3):
                hat = np.zeros(3)
                hat[m] = 1.0
                expected = interp_gradient(corners, hat)
                assert np.abs(columns[i, m] - expected).max() < 1e-10


@pytest.mark.parametrize("make_mesh", [*MESHES.values(), lambda: icosphere(4)],
                         ids=[*MESHES.keys(), "icosphere4"])
def test_hat_lengths_are_half_the_opposite_edges(make_mesh):
    # |tau| ||grad phi|| = |e| / 2 for the edge e opposite the corner, so a
    # vertex's sum over its triangles is half the perimeter of its 1-ring
    mesh = make_mesh()
    op = build_gradient_operator(mesh)
    verts, tris = mesh.vertices, mesh.triangles
    hats = hat_columns(op, tris)
    weighted = mesh.areas[:, None] * np.linalg.norm(hats, axis=2)
    half_edges = np.empty_like(weighted)
    half_perimeter = np.zeros(mesh.n_vertices)
    for i, tri in enumerate(tris):
        for m in range(3):
            b, c = tri[(m + 1) % 3], tri[(m + 2) % 3]
            half_edges[i, m] = np.linalg.norm(verts[c] - verts[b]) / 2
            half_perimeter[tri[m]] += half_edges[i, m]
    assert np.abs(weighted - half_edges).max() <= 1e-14 * half_edges.max()
    sums = np.bincount(tris.ravel(), weighted.ravel(), minlength=mesh.n_vertices)
    assert np.abs(sums - half_perimeter).max() <= 1e-14 * half_perimeter.max()


def test_constant_field_has_zero_gradient():
    mesh = icosphere(2)
    op = build_gradient_operator(mesh)
    grads = apply(op, np.ones(mesh.n_vertices))
    assert np.abs(grads).max() < 1e-12


def test_affine_exactness_on_plane():
    mesh = planar_grid(12)
    op = build_gradient_operator(mesh)
    u = 2.0 * mesh.vertices[:, 0] + 3.0 * mesh.vertices[:, 1] + 1.0
    grads = apply(op, u)
    assert np.abs(grads - np.array([2.0, 3.0, 0.0])).max() < 1e-10


def test_apply_is_linear(rng):
    mesh = icosphere(1)
    op = build_gradient_operator(mesh)
    u = rng.normal(size=mesh.n_vertices)
    w = rng.normal(size=mesh.n_vertices)
    a, b = 0.7, -2.3
    lhs = apply(op, a * u + b * w)
    rhs = a * apply(op, u) + b * apply(op, w)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_apply_zero(right_triangle_mesh):
    op = build_gradient_operator(right_triangle_mesh)
    assert np.all(apply(op, np.zeros(3)) == 0.0)


def test_apply_right_triangle_vertex_indicator(right_triangle_mesh):
    op = build_gradient_operator(right_triangle_mesh)
    out = apply(op, np.array([1.0, 0.0, 0.0]))
    assert np.abs(out[0] - np.array([-1.0, -1.0, 0.0])).max() < 1e-12


def test_apply_dimension_mismatch(right_triangle_mesh):
    op = build_gradient_operator(right_triangle_mesh)
    with pytest.raises(DimensionMismatch):
        apply(op, np.zeros(5))


def test_adjoint_zero(right_triangle_mesh):
    op = build_gradient_operator(right_triangle_mesh)
    out = apply_adjoint(op, np.zeros((1, 3)))
    assert np.all(out == 0.0)


def test_adjoint_single_triangle_pattern(right_triangle_mesh):
    op = build_gradient_operator(right_triangle_mesh)
    out = apply_adjoint(op, np.array([[1.0, 0.0, 0.0]]))
    # weighted by the triangle's area, 1/2
    assert np.allclose(out, [-0.5, 0.5, 0.0], atol=1e-14)


def test_adjoint_identity_random(rng):
    mesh = icosphere(1)
    op = build_gradient_operator(mesh)
    for _ in range(100):
        u = rng.normal(size=mesh.n_vertices)
        z = rng.normal(size=(mesh.n_triangles, 3))
        lhs = float(np.sum(mesh.areas[:, None] * apply(op, u) * z))
        rhs = float(u @ apply_adjoint(op, z))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def _relabeled_icosphere(level, rng):
    """icosphere(level) with its vertices and its triangles in random order."""
    mesh = icosphere(level)
    perm = rng.permutation(mesh.n_vertices)
    triangles = np.argsort(perm)[mesh.triangles]
    return TriangleMesh(mesh.vertices[perm],
                        triangles[rng.permutation(mesh.n_triangles)])


def _full_and_restricted(op, channels, rng):
    """The operator and one ``admm.restrict`` makes of about a third of its
    vertices, for images with ``channels`` channels."""
    data = rng.uniform(size=(op.n_vertices, channels))
    free = rng.uniform(size=op.n_vertices) < 0.3
    return op, restrict(op, np.flatnonzero(free), data).op


@pytest.mark.parametrize("channels", [1, 3], ids=["gray", "rgb"])
def test_stored_adjoint_matches_the_transpose_product_bit_for_bit(channels, rng):
    op = build_gradient_operator(_relabeled_icosphere(3, rng))
    for o in _full_and_restricted(op, channels, rng):
        areas = o.tri_areas[:, None]
        if channels == 1:
            z = rng.normal(size=(o.n_triangles, 3))
            weighted = (z * areas).reshape(-1)
        else:
            z = rng.normal(size=(o.n_triangles, 3, channels))
            weighted = (z * areas[:, :, None]).reshape(-1, channels)
        assert np.array_equal(apply_adjoint(o, z), o.matrix.T @ weighted)


def test_apply_adjoint_builds_no_transpose(monkeypatch, rng):
    op = build_gradient_operator(icosphere(2))
    ops = _full_and_restricted(op, 1, rng)
    transposes = []
    original = sp.csr_matrix.transpose

    def counting_transpose(self, *args, **kwargs):
        transposes.append(self.shape)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(sp.csr_matrix, "transpose", counting_transpose)
    for _ in range(50):
        for o in ops:
            apply_adjoint(o, rng.normal(size=(o.n_triangles, 3)))
    assert transposes == []


def test_operator_shares_the_mesh_areas_and_sizes(rng):
    # relabeled, most triangles list their corners out of order, yet every
    # row keeps its columns sorted: that order fixes how each product sums
    mesh = _relabeled_icosphere(2, rng)
    op = build_gradient_operator(mesh)
    assert op.tri_areas is mesh.areas
    assert (op.n_vertices, op.n_triangles) == (mesh.n_vertices, mesh.n_triangles)
    assert op.matrix.shape == (3 * mesh.n_triangles, mesh.n_vertices)
    assert op.matrix.has_canonical_format
    assert np.all(np.diff(op.matrix.indptr) == 3)


def test_gram_kernel_contains_constants(right_triangle_mesh):
    op = build_gradient_operator(right_triangle_mesh)
    gram = assemble_gram(op)
    assert np.abs(gram @ np.ones(3)).max() < 1e-12


def test_gram_two_components():
    from meshtv.mesh import TriangleMesh

    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 0, 0], [6, 0, 0], [5, 1, 0]]
    mesh = TriangleMesh(verts, [[0, 1, 2], [3, 4, 5]])
    gram = assemble_gram(build_gradient_operator(mesh))
    indicator = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    assert np.abs(gram @ indicator).max() < 1e-12


def test_gram_is_symmetric_psd(rng):
    mesh = icosphere(1)
    op = build_gradient_operator(mesh)
    gram = assemble_gram(op)
    dense = gram.toarray()
    assert np.abs(dense - dense.T).max() < 1e-12
    assert np.linalg.eigvalsh(dense).min() > -1e-10
    for _ in range(100):
        u = rng.normal(size=mesh.n_vertices)
        quad = float(u @ (gram @ u))
        grads = apply(op, u)
        direct = float(op.tri_areas @ (grads**2).sum(axis=1))
        assert abs(quad - direct) < 1e-10 * max(1.0, direct)
        assert quad > -1e-10


def test_gram_matches_dense_oracle(two_triangle_mesh):
    op = build_gradient_operator(two_triangle_mesh)
    gram = assemble_gram(op).toarray()
    assert np.abs(gram - dense_gram(op)).max() < 1e-12


def test_blocks_have_three_nonzero_columns(two_triangle_mesh):
    op = build_gradient_operator(two_triangle_mesh)
    for i, block in enumerate(dense_blocks(op)):
        nz = np.flatnonzero(np.abs(block).sum(axis=0) > 0)
        assert sorted(nz) == sorted(two_triangle_mesh.triangles[i])


def test_columns_in_plane_and_orthogonal_to_opposite_edge():
    mesh = icosphere(1)
    op = build_gradient_operator(mesh)
    verts, tris = mesh.vertices, mesh.triangles
    normals = np.cross(
        verts[tris[:, 1]] - verts[tris[:, 0]], verts[tris[:, 2]] - verts[tris[:, 0]]
    )
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    columns = hat_columns(op, tris)
    for m in range(3):
        col = columns[:, m, :]
        edge = verts[tris[:, (m + 2) % 3]] - verts[tris[:, (m + 1) % 3]]
        edge = edge / np.linalg.norm(edge, axis=1)[:, None]
        scale = np.linalg.norm(col, axis=1)
        assert np.abs(np.einsum("ij,ij->i", col, edge) / scale).max() < 1e-10
        assert np.abs(np.einsum("ij,ij->i", col, normals) / scale).max() < 1e-10


def test_gradient_lies_in_triangle_plane(rng):
    mesh = icosphere(2)
    op = build_gradient_operator(mesh)
    verts, tris = mesh.vertices, mesh.triangles
    normals = np.cross(
        verts[tris[:, 1]] - verts[tris[:, 0]], verts[tris[:, 2]] - verts[tris[:, 0]]
    )
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    u = rng.normal(size=mesh.n_vertices)
    grads = apply(op, u)
    assert np.abs(np.einsum("ij,ij->i", grads, normals)).max() < 1e-10 * np.abs(
        grads
    ).max()
