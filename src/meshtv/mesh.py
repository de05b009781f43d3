"""Triangle mesh container, validation, OFF/OBJ/PLY reading and PLY writing.

Meshes are plain vertex/triangle index arrays.  Validation happens once at
construction: index range checks, rejection of degenerate (repeated-vertex,
near-zero-area or unmeasurably large) triangles and of isolated vertices.
Non-manifold connectivity is accepted: downstream code needs only vertex
stars and the per-triangle normals and areas, computed here once.
"""

from __future__ import annotations

import functools
import os

import numpy as np

from .errors import (
    DegenerateTriangle,
    IndexOutOfRange,
    IsolatedVertex,
    ParseError,
)

# Faces with area at most this multiple of the squared bounding-box diagonal
# are rejected: the gradient divides by |n|^2 = 4 area^2 of the same scale.
DEGENERATE_AREA_FACTOR = 1e-12


class TriangleMesh:
    """Validated triangle mesh in R^3.

    Parameters
    ----------
    vertices : array_like
        (n_vertices, 3) float coordinates.
    triangles : array_like
        (n_triangles, 3) integer indices into ``vertices``.

    Attributes
    ----------
    vertices : np.ndarray
        (n_vertices, 3) float64, read-only.
    triangles : np.ndarray
        (n_triangles, 3) int64, read-only.
    normals : np.ndarray
        (n_triangles, 3) float64 (b - a) x (c - a) of each triangle [a, b, c],
        read-only: unnormalized, |n| = 2 * area, oriented by the corner order.
    areas : np.ndarray
        (n_triangles,) float64 triangle areas |n| / 2, all positive, read-only.

    Instances are immutable after construction and safe to share across
    threads.  The one state added later is the text of the geometry, made
    on the first PLY write (``write_ply``) and kept: it is derived from the
    read-only arrays alone, so formatting it twice gives the same text.
    """

    def __init__(self, vertices, triangles):
        v = np.ascontiguousarray(vertices, dtype=np.float64)
        t = np.ascontiguousarray(triangles, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError(f"vertices must be (n, 3), got {v.shape}")
        if t.ndim != 2 or t.shape[1] != 3:
            raise ValueError(f"triangles must be (m, 3), got {t.shape}")
        if v.shape[0] == 0 or t.shape[0] == 0:
            raise ValueError("mesh must have at least one vertex and one triangle")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertex coordinates must be finite")

        if t.min() < 0 or t.max() >= v.shape[0]:
            bad = int(np.flatnonzero((t < 0) | (t >= v.shape[0]))[0] // 3)
            raise IndexOutOfRange(
                f"triangle {bad} references a vertex outside [0, {v.shape[0]})"
            )
        repeated = (t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 0] == t[:, 2])
        if repeated.any():
            raise DegenerateTriangle(
                f"triangle {int(np.flatnonzero(repeated)[0])} repeats a vertex index"
            )

        a, b, c = v[t.T]
        with np.errstate(over="ignore", invalid="ignore"):
            normals = np.cross(b - a, c - a)
            areas = 0.5 * np.linalg.norm(normals, axis=1)
            bbox_diag2 = float(np.sum((v.max(axis=0) - v.min(axis=0)) ** 2))
        huge = np.flatnonzero(~np.isfinite(areas))
        if huge.size or not np.isfinite(bbox_diag2):
            where = f"triangle {huge[0]}" if huge.size else "the mesh"
            raise DegenerateTriangle(f"{where} has coordinates too large to measure")
        # <=: an area that underflows to 0 fails even when its bound does too;
        # a subnormal |n|^2 = 4 area^2 has lost the digits the gradient divides by
        small = ((areas <= DEGENERATE_AREA_FACTOR * bbox_diag2)
                 | (4.0 * areas**2 < np.finfo(np.float64).tiny))
        if small.any():
            raise DegenerateTriangle(
                f"triangle {int(np.flatnonzero(small)[0])} has (near-)zero area"
            )

        referenced = np.zeros(v.shape[0], dtype=bool)
        referenced[t.ravel()] = True
        if not referenced.all():
            raise IsolatedVertex(
                f"vertex {int(np.flatnonzero(~referenced)[0])} has an empty star"
            )

        v.setflags(write=False)
        t.setflags(write=False)
        normals.setflags(write=False)
        areas.setflags(write=False)
        self.vertices = v
        self.triangles = t
        self.normals = normals
        self.areas = areas

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @functools.cached_property
    def _ply_geometry(self) -> tuple[list[str], str]:
        """The "x y z" text of each PLY vertex row, without its image values
        and newline, and the whole face block."""
        rows = ["{:.17g} {:.17g} {:.17g}".format(*xyz)
                for xyz in self.vertices.tolist()]
        faces = "".join(f"3 {a} {b} {c}\n" for a, b, c in self.triangles.tolist())
        return rows, faces


# ---------------------------------------------------------------------------
# file I/O


def load_mesh(path: str) -> TriangleMesh:
    """Read and validate a triangle mesh from an OFF, OBJ, or ASCII PLY file.

    The format is inferred from the extension.  OBJ's 1-based indices are
    converted to 0-based here.
    """
    ext = os.path.splitext(path)[1].lower()
    parse = {".off": _parse_off, ".obj": _parse_obj, ".ply": _parse_ply_mesh}.get(ext)
    if parse is None:
        raise ValueError(f"cannot infer mesh format from {path!r}")
    verts, tris = parse(read_text(path))
    if len(tris) == 0:
        raise ParseError(f"{path}: the face list is empty")
    nonfinite = np.flatnonzero(~np.isfinite(verts))
    if nonfinite.size:
        raise ParseError(
            f"{path}: vertex {nonfinite[0] // 3} has a non-finite coordinate"
        )
    return TriangleMesh(verts, tris)


# --- text and rows, shared by every mesh and image reader ----------------


def read_text(path: str) -> str:
    """The text of a mesh or image file, without a leading UTF-8 byte-order
    mark.  Bytes that are not UTF-8 read as U+FFFD, which no reader accepts as
    a number or keyword, so a binary file fails with its reader's
    ``ParseError``."""
    with open(path, "r", encoding="utf-8-sig", errors="replace") as fh:
        return fh.read()


def significant_lines(text: str) -> list[tuple[int, str]]:
    """(line number, content) of each line not blank once a ``#`` comment is cut."""
    lines = (
        (lineno, line.split("#", 1)[0].strip())
        for lineno, line in enumerate(text.splitlines(), start=1)
    )
    return [(lineno, line) for lineno, line in lines if line]


def numbers(lines: list[tuple[int, str]], width: int, what: str) -> np.ndarray:
    """The first ``width`` numbers of each (line number, line) row as an
    (n, width) float64 array; tokens after them (colours, normals) are ignored."""
    rows = []
    for lineno, line in lines:
        toks = line.split()[:width]
        try:
            if len(toks) < width:
                raise ValueError(f"{len(toks)} of {width} numbers")
            rows.append([float(tok) for tok in toks])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad {what}: {line!r}") from exc
    return np.array(rows, dtype=np.float64).reshape(len(rows), width)


def _index_lists(lines: list[tuple[int, str]], what: str) -> list:
    """(line number, line, indices) of each ``count i_1 ... i_count`` row;
    tokens after the list (OFF face colours) are ignored."""
    out = []
    for lineno, line in lines:
        toks = line.split()
        try:
            count = int(toks[0])
            indices = [int(tok) for tok in toks[1 : 1 + count]]
            if len(indices) != count:
                raise ValueError(f"{len(indices)} of {count} indices")
        except (ValueError, IndexError) as exc:
            raise ParseError(f"line {lineno}: bad {what}: {line!r}") from exc
        out.append((lineno, line, indices))
    return out


def _triangles(index_lists: list) -> np.ndarray:
    for lineno, line, indices in index_lists:
        if len(indices) != 3:
            raise ParseError(
                f"line {lineno}: only triangular faces are supported: {line!r}"
            )
    return np.array([indices for _, _, indices in index_lists])


# --- OFF, OBJ and ASCII PLY ------------------------------------------------


def _parse_off(text: str):
    lines = significant_lines(text)
    if not lines:
        raise ParseError("empty OFF file")
    header = lines[0][1]
    if header.upper() == "OFF":
        if len(lines) < 2:
            raise ParseError("OFF file missing counts line")
        counts_line, body = lines[1][1], lines[2:]
    elif header.upper().startswith("OFF"):
        # counts on the header line
        counts_line, body = header[3:].strip(), lines[1:]
    else:
        raise ParseError("missing OFF header")
    try:
        counts = [int(tok) for tok in counts_line.split()]
        nv, nf = counts[0], counts[1]
    except (ValueError, IndexError) as exc:
        raise ParseError(f"bad OFF counts line: {counts_line!r}") from exc
    if nv < 0 or nf < 0:
        raise ParseError(f"negative OFF counts: {counts_line!r}")
    if len(body) < nv + nf:
        raise ParseError("OFF file truncated")
    verts = numbers(body[:nv], 3, "OFF vertex line")
    return verts, _triangles(_index_lists(body[nv : nv + nf], "OFF face line"))


def _parse_obj(text: str):
    vert_lines: list[tuple[int, str]] = []
    face_lines = []
    for lineno, line in significant_lines(text):
        keyword, *refs = line.split()
        if keyword == "v":
            vert_lines.append((lineno, line[1:].lstrip()))
        elif keyword == "f":
            face_lines.append((lineno, line, refs, len(vert_lines)))
        # other directives (vn, vt, usemtl, ...) are ignored
    verts = numbers(vert_lines, 3, "OBJ vertex")
    tris = []
    for lineno, line, refs, n_read in face_lines:
        if len(refs) != 3:
            raise ParseError(
                f"line {lineno}: only triangular faces are supported: {line!r}"
            )
        try:
            face = [int(ref.split("/")[0]) for ref in refs]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad OBJ face: {line!r}") from exc
        if 0 in face:
            raise ParseError(f"line {lineno}: OBJ indices are 1-based")
        # a negative index counts back from the last vertex read before the face
        tris.append([idx - 1 if idx > 0 else n_read + idx for idx in face])
    if not len(verts) or not tris:
        raise ParseError("OBJ file contains no triangle mesh")
    return verts, np.array(tris)


def parse_ply_elements(text: str) -> dict:
    """Parse an ASCII PLY file into {element: {property: values}}.

    A scalar property maps to a float64 column; a list property, which must
    be its element's only property, to the ``_index_lists`` of its rows.
    """
    lines = list(enumerate(text.splitlines(), start=1))
    if not lines or lines[0][1].strip() != "ply":
        raise ParseError("missing 'ply' magic line")
    elements: list[tuple[str, int, list]] = []  # name, count, (property, is list)
    fmt_seen = False
    for i, (lineno, line) in enumerate(lines[1:], start=1):
        toks = line.split()
        if not toks or toks[0] == "comment":
            continue
        keyword, *args = toks
        if keyword == "format":
            if args[:1] != ["ascii"]:
                raise ParseError("only ASCII PLY is supported")
            fmt_seen = True
        elif keyword == "element" and len(args) == 2 and args[1].isdecimal():
            elements.append((args[0], int(args[1]), []))
        elif (keyword == "property" and elements
              and len(args) == (4 if args[:1] == ["list"] else 2)):
            elements[-1][2].append((args[-1], args[0] == "list"))
        elif keyword == "end_header":
            break
        else:
            raise ParseError(f"line {lineno}: bad PLY header line: {line!r}")
    else:
        raise ParseError("missing end_header")
    if not fmt_seen:
        raise ParseError("missing format line")

    out: dict = {}
    start = i + 1
    for name, count, props in elements:
        rows = lines[start : start + count]
        start += count
        if any(is_list for _, is_list in props):
            if len(props) != 1:
                raise ParseError(f"element {name!r}: list properties must stand alone")
            out[name] = {props[0][0]: _index_lists(rows, f"PLY {name} list")}
        else:
            data = numbers(rows, len(props), f"PLY {name} line")
            out[name] = {prop: data[:, j].copy() for j, (prop, _) in enumerate(props)}
        if len(rows) < count:
            raise ParseError(f"element {name!r}: data truncated")
    return out


def _parse_ply_mesh(text: str):
    elements = parse_ply_elements(text)
    vert = elements.get("vertex", {})
    if not all(key in vert for key in ("x", "y", "z")):
        raise ParseError("PLY file lacks a vertex element with x, y and z")
    face_lists = next(iter(elements.get("face", {}).values()), None)
    if not isinstance(face_lists, list):
        raise ParseError("PLY file lacks a face element with a vertex-index list")
    return np.column_stack([vert["x"], vert["y"], vert["z"]]), _triangles(face_lists)


def write_ply(
    path: str,
    mesh: TriangleMesh,
    values: np.ndarray | None = None,
) -> None:
    """Write a mesh as ASCII PLY, with an image's ``values`` on its vertices:
    (n, 1) floats as a float64 ``quality``, or (n, 3) 0-255 integers as uchar
    ``red``, ``green`` and ``blue``.  The mesh's coordinates and faces are
    formatted on its first write and kept on it, so a later write of the
    same mesh formats only its values."""
    if values is None:
        values = np.empty((mesh.n_vertices, 0))
    image_props, value_fmt = {
        0: ("", ""),
        1: ("property float64 quality\n", " {:.17g}"),
        3: ("property uchar red\nproperty uchar green\nproperty uchar blue\n",
            " {} {} {}"),
    }[values.shape[1]]
    end_row = (value_fmt + "\n").format
    rows, faces = mesh._ply_geometry
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {mesh.n_vertices}\n")
        fh.write("property float64 x\nproperty float64 y\nproperty float64 z\n")
        fh.write(image_props)
        fh.write(f"element face {mesh.n_triangles}\n")
        fh.write("property list uchar int vertex_indices\n")
        fh.write("end_header\n")
        fh.write("".join([xyz + end_row(*vals)
                          for xyz, vals in zip(rows, values.tolist())]))
        fh.write(faces)
