import numpy as np
import pytest

from grid_oracles import (
    edge_incidence_counts,
    icosphere_oracle,
    planar_grid_oracle,
    subdivision_counts,
)
from meshtv.errors import InvalidParams
from meshtv.synthetic import (
    checker_image,
    generate_synthetic,
    icosphere,
    planar_grid,
    two_patch_image,
)


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_icosphere_counts_match_subdivision_oracle(level):
    mesh = icosphere(level)
    n_vertices, n_triangles = subdivision_counts(level)
    assert mesh.n_vertices == n_vertices
    assert mesh.n_triangles == n_triangles


@pytest.mark.parametrize("level", [0, 1, 2, 3, 4, 5])
def test_icosphere_equals_the_face_by_face_build(level):
    # the CLI draws noise by vertex index, so the numbering and the
    # coordinates must be those of the build that visits one face at a time
    mesh = icosphere(level)
    vertices, triangles = icosphere_oracle(level)
    assert np.array_equal(mesh.vertices, vertices)
    assert np.array_equal(mesh.triangles, triangles)


@pytest.mark.parametrize("n", [2, 3, 7, 50])
def test_planar_grid_equals_the_cell_by_cell_build(n):
    mesh = planar_grid(n)
    vertices, triangles = planar_grid_oracle(n)
    assert np.array_equal(mesh.vertices, vertices)
    assert np.array_equal(mesh.triangles, triangles)


def test_icosphere_1_and_2_counts():
    assert (icosphere(1).n_vertices, icosphere(1).n_triangles) == (42, 80)
    assert (icosphere(2).n_vertices, icosphere(2).n_triangles) == (162, 320)


def test_icosphere_is_closed_unit_sphere():
    mesh = icosphere(2)
    counts = edge_incidence_counts(mesh.triangles)
    assert all(c == 2 for c in counts.values())
    radii = np.linalg.norm(mesh.vertices, axis=1)
    assert np.abs(radii - 1.0).max() < 1e-12


def test_two_patch_has_exactly_two_values():
    mesh = icosphere(2)
    image = two_patch_image(mesh)
    values = np.unique(image.values)
    assert values.tolist() == [0.25, 0.75]
    # both regions populated
    assert 0 < np.count_nonzero(image.values == 0.25) < mesh.n_vertices


def test_checker_has_two_values_many_regions():
    mesh = icosphere(3)
    image = checker_image(mesh, lat_bands=4, lon_bands=8)
    assert np.unique(image.values).tolist() == [0.25, 0.75]
    high = np.count_nonzero(image.values == 0.75)
    assert 0.2 < high / mesh.n_vertices < 0.8


def test_planar_grid_structure():
    mesh = planar_grid(11)
    assert mesh.n_vertices == 121
    assert mesh.n_triangles == 200
    assert np.allclose(mesh.areas.sum(), 1.0)
    counts = edge_incidence_counts(mesh.triangles)
    boundary = {v for edge, c in counts.items() if c == 1 for v in edge}
    assert len(boundary) == 40  # perimeter vertices


def test_generate_synthetic_kinds():
    mesh, image, name = generate_synthetic("icosphere_k=1")
    assert (mesh.n_vertices, image.vertex_count) == (42, 42)
    assert name == "icosphere1_two_patch"
    mesh, image, _ = generate_synthetic("icosphere_k=2,pattern=two_patch")
    assert np.unique(image.values).size == 2
    mesh, image, name = generate_synthetic("icosphere_k=2,pattern=checker,"
                                           "lat_bands=3")
    assert image.vertex_count == mesh.n_vertices
    assert name == "icosphere2_checker"


def test_generate_synthetic_rejects_unknown():
    for spec in ("pattern=moebius", "icosphere_k=2,bogus=1",
                 "pattern=two_patch,lat_bands=3", "k=2", "icosphere_k",
                 "icosphere_k=x", "pattern=checker,lon_bands=1.5",
                 "icosphere_k=99"):
        with pytest.raises(InvalidParams):
            generate_synthetic(spec)


def test_generate_synthetic_rejects_a_repeated_key():
    # the last value used to win silently
    for spec, key in (("icosphere_k=1,icosphere_k=2", "icosphere_k"),
                      ("pattern=checker, pattern=checker", "pattern")):
        with pytest.raises(InvalidParams, match=f"repeated parameter: '{key}'"):
            generate_synthetic(spec)
