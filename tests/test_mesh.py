import struct

import numpy as np
import pytest

from conftest import count_opens
from grid_oracles import edge_incidence_counts, off_text
from meshtv import imaging
from meshtv import mesh as meshmod
from meshtv.errors import (
    DegenerateTriangle,
    IndexOutOfRange,
    IsolatedVertex,
    ParseError,
)
from meshtv.mesh import TriangleMesh, load_mesh, write_ply
from meshtv.synthetic import icosahedron, icosphere

RIGHT_TRIANGLE_OFF = """OFF
3 1 0
0 0 0
1 0 0
0 1 0
3 0 1 2
"""


def test_load_off_right_triangle(tmp_path):
    path = tmp_path / "tri.off"
    path.write_text(RIGHT_TRIANGLE_OFF)
    mesh = load_mesh(str(path))
    assert mesh.n_vertices == 3
    assert mesh.n_triangles == 1
    assert mesh.areas[0] == pytest.approx(0.5, abs=1e-15)
    assert np.array_equal(mesh.normals, [[0.0, 0.0, 1.0]])


def test_load_off_repeated_index_is_degenerate(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 1\n")
    with pytest.raises(DegenerateTriangle):
        load_mesh(str(path))


def test_load_off_header_with_counts_inline(tmp_path):
    path = tmp_path / "inline.off"
    # the face's trailing colour tokens are ignored
    path.write_text("OFF 3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2 255 0 0\n")
    mesh = load_mesh(str(path))
    assert mesh.n_vertices == 3
    assert np.array_equal(mesh.triangles, [[0, 1, 2]])


def test_load_off_garbage_raises_parse_error(tmp_path):
    path = tmp_path / "junk.off"
    path.write_text("not a mesh\n")
    with pytest.raises(ParseError):
        load_mesh(str(path))


@pytest.mark.parametrize("text", [
    "OFF\n-1 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
    "OFF\n3 -1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
    "OFF -1 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
])
def test_load_off_negative_counts_raise_parse_error(tmp_path, text):
    path = tmp_path / "negative.off"
    path.write_text(text)
    with pytest.raises(ParseError, match="negative"):
        load_mesh(str(path))


@pytest.mark.parametrize("name, text, match", [
    ("empty.off", "OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n", "face list is empty"),
    ("empty.ply", "ply\nformat ascii 1.0\nelement vertex 3\n"
     "property float x\nproperty float y\nproperty float z\n"
     "element face 0\nproperty list uchar int vertex_indices\nend_header\n"
     "0 0 0\n1 0 0\n0 1 0\n", "face list is empty"),
    ("nan.off", "OFF\n3 1 0\n0 0 0\n1 nan 0\n0 1 0\n3 0 1 2\n",
     "vertex 1 has a non-finite coordinate"),
], ids=["off-no-faces", "ply-no-faces", "off-nan-vertex"])
def test_load_mesh_empty_faces_or_non_finite_vertex_raise_parse_error(
        tmp_path, name, text, match):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ParseError, match=match):
        load_mesh(str(path))


def test_icosahedron_off_is_closed(tmp_path):
    path = tmp_path / "ico.off"
    path.write_text(off_text(icosahedron()))
    mesh = load_mesh(str(path))
    assert mesh.n_vertices == 12
    assert mesh.n_triangles == 20
    # independent oracle: count incidences per undirected edge
    counts = edge_incidence_counts(mesh.triangles)
    assert all(c == 2 for c in counts.values())


def test_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 3]])


def test_zero_area_triangle_rejected():
    with pytest.raises(DegenerateTriangle):
        TriangleMesh([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 1, 2]])


def test_nearly_zero_area_triangle_rejected():
    verts = [[0, 0, 0], [1, 0, 0], [0.5, 1e-14, 0]]
    with pytest.raises(DegenerateTriangle):
        TriangleMesh(verts, [[0, 1, 2]])


# |n|^2 overflows at 1e150 and |n| itself at 1e200; at 1e-160 |n|^2
# underflows, so the area is 0, and so is its bound 1e-12 * 2e-320
@pytest.mark.parametrize("scale, match", [
    (1e200, "triangle 0 has coordinates too large"),
    (1e150, "triangle 0 has coordinates too large"),
    (1e-160, r"triangle 0 has \(near-\)zero area"),
], ids=["overflow", "square-overflow", "underflow"])
@pytest.mark.filterwarnings("error")
def test_triangle_beyond_float64_range_rejected(scale, match):
    with pytest.raises(DegenerateTriangle, match=match):
        TriangleMesh([[0, 0, 0], [scale, 0, 0], [0, scale, 0]], [[0, 1, 2]])


def test_isolated_vertex_rejected():
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5]]
    with pytest.raises(IsolatedVertex):
        TriangleMesh(verts, [[0, 1, 2]])


def test_equilateral_triangle_area():
    side = 2.0
    verts = [[0, 0, 0], [side, 0, 0], [side / 2, side * np.sqrt(3) / 2, 0]]
    mesh = TriangleMesh(verts, [[0, 1, 2]])
    assert mesh.areas[0] == pytest.approx(np.sqrt(3), rel=1e-12)


def test_icosahedron_areas_match_closed_form():
    mesh = icosahedron()
    areas = mesh.areas
    assert np.allclose(areas, areas[0], rtol=1e-12)
    # unit circumradius: edge a = 4 / sqrt(10 + 2 sqrt(5)), area 20 * sqrt(3)/4 * a^2
    edge = 4.0 / np.sqrt(10.0 + 2.0 * np.sqrt(5.0))
    assert areas.sum() == pytest.approx(5.0 * np.sqrt(3.0) * edge**2, rel=1e-12)


# the extension picks the reader whatever its case
@pytest.mark.parametrize("ext", ["ply", "PLY"])
def test_round_trip(tmp_path, ext):
    mesh = icosphere(1)
    path = tmp_path / f"mesh.{ext}"
    write_ply(str(path), mesh.vertices, mesh.triangles)
    back = load_mesh(str(path))
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.abs(back.vertices - mesh.vertices).max() < 1e-9


def test_obj_one_based_indices(tmp_path):
    path = tmp_path / "tri.obj"
    # a negative index counts back from the last vertex read so far
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nv 1 1 0\nf -3 -1 -2\n")
    mesh = load_mesh(str(path))
    assert np.array_equal(mesh.triangles, [[0, 1, 2], [1, 3, 2]])


def test_obj_face_with_texture_refs(tmp_path):
    path = tmp_path / "tri.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1 2/2 3/3\n")
    mesh = load_mesh(str(path))
    assert mesh.n_triangles == 1


def test_obj_quad_rejected(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.raises(ParseError):
        load_mesh(str(path))


_BINARY_PLY_TRIANGLE = (
    b"ply\nformat binary_little_endian 1.0\nelement vertex 3\n"
    b"property float x\nproperty float y\nproperty float z\n"
    b"element face 1\nproperty list uchar int vertex_indices\nend_header\n"
    + struct.pack("<9f", 0, 0, 0, 1, 0, 0, 0, 1, 0)
    + struct.pack("<B3i", 3, 0, 1, 2)
)


@pytest.mark.parametrize("name, data, match", [
    ("bin.ply", b"ply\nformat binary_little_endian 1.0\nend_header\n",
     "only ASCII PLY is supported"),
    ("bin.ply", _BINARY_PLY_TRIANGLE, "only ASCII PLY is supported"),
    # a byte that is not UTF-8 (Latin-1 e-acute) in a vertex coordinate
    ("latin1.off", b"OFF\n3 1 0\n0 0 0\n1 0\xe9 0\n0 1 0\n3 0 1 2\n",
     "line 4: bad OFF vertex"),
], ids=["header-only", "binary-body", "latin1-off-vertex"])
def test_ply_binary_rejected(tmp_path, name, data, match):
    path = tmp_path / name
    path.write_bytes(data)
    readers = [load_mesh]
    if name.endswith(".ply"):
        readers.append(imaging.read_image)
    for read in readers:
        with pytest.raises(ParseError, match=match):
            read(str(path))


_PLY_TRIANGLE_VERTICES = ("property float x\nproperty float y\n"
                          "property float z\n")


@pytest.mark.parametrize("header, body", [
    pytest.param("element vertex 3\n" + _PLY_TRIANGLE_VERTICES
                 + "element face 1\nproperty float a\n",
                 "0 0 0\n1 0 0\n0 1 0\n2\n", id="face-without-list"),
    pytest.param("element vertex 3\n" + _PLY_TRIANGLE_VERTICES + "element face 1\n",
                 "0 0 0\n1 0 0\n0 1 0\n\n", id="face-without-property"),
    pytest.param("element vertex abc\n" + _PLY_TRIANGLE_VERTICES, "",
                 id="count-not-a-number"),
    pytest.param("element vertex -3\n" + _PLY_TRIANGLE_VERTICES, "",
                 id="count-negative"),
    pytest.param("element vertex 3\nproperty\n", "", id="property-without-type"),
    pytest.param("element vertex 3\n" + _PLY_TRIANGLE_VERTICES + "element face 1\n"
                 "property list uchar int vertex_indices\n",
                 "0 0 0\n1 0 0\n0 1 0\n3 0 1 x\n", id="face-list-not-integer"),
    pytest.param("element vertex 3\n" + _PLY_TRIANGLE_VERTICES + "element face 1\n"
                 "property list uchar int vertex_indices\n",
                 "0 0 0\n1 0 0\n0 1 0\n4 0 1 2\n", id="face-list-short"),
])
def test_ply_malformed_header_rejected(tmp_path, header, body):
    path = tmp_path / "bad.ply"
    path.write_text("ply\nformat ascii 1.0\n" + header + "end_header\n" + body)
    with pytest.raises(ParseError):
        load_mesh(str(path))


def test_mesh_arrays_are_read_only(right_triangle_mesh):
    with pytest.raises(ValueError):
        right_triangle_mesh.vertices[0, 0] = 5.0
    with pytest.raises(ValueError):
        right_triangle_mesh.normals[0, 2] = 5.0
    with pytest.raises(ValueError):
        right_triangle_mesh.areas[0] = 5.0


def test_unknown_extension_rejected(tmp_path):
    path = tmp_path / "mesh.stl"
    path.write_text(off_text(icosahedron()))
    with pytest.raises(ValueError, match="cannot infer mesh format"):
        load_mesh(str(path))


def test_ply_mesh_file_is_read_once(tmp_path, monkeypatch):
    mesh = icosphere(1)
    path = tmp_path / "mesh.ply"
    write_ply(str(path), mesh.vertices, mesh.triangles)
    opened = count_opens(monkeypatch, meshmod, imaging)
    back = load_mesh(str(path))
    assert opened == [str(path)]
    assert np.array_equal(back.triangles, mesh.triangles)
