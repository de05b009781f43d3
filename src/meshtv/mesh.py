"""Triangle mesh container, validation, OFF/OBJ/PLY reading and PLY writing.

Meshes are plain vertex/triangle index arrays.  Validation happens once at
construction: index range checks, rejection of degenerate (repeated-vertex or
near-zero-area) triangles, and rejection of isolated vertices.  Non-manifold
connectivity is accepted; only vertex stars and per-triangle geometry are
needed downstream.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import (
    DegenerateTriangle,
    IndexOutOfRange,
    IsolatedVertex,
    ParseError,
)

# Faces with area below this multiple of the squared bounding-box diagonal are
# rejected: the gradient formula divides by squared heights of the same scale.
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
    areas : np.ndarray
        (n_triangles,) float64 triangle areas (half cross-product
        magnitude), all positive, read-only.

    Instances are immutable after construction and safe to share across
    threads.
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

        areas = _areas(v, t)
        bbox_diag2 = float(np.sum((v.max(axis=0) - v.min(axis=0)) ** 2))
        if bbox_diag2 == 0.0:
            raise DegenerateTriangle("all vertices coincide")
        small = areas < DEGENERATE_AREA_FACTOR * bbox_diag2
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
        areas.setflags(write=False)
        self.vertices = v
        self.triangles = t
        self.areas = areas

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]


def _areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    a = vertices[triangles[:, 0]]
    b = vertices[triangles[:, 1]]
    c = vertices[triangles[:, 2]]
    cross = np.cross(b - a, c - a)
    return 0.5 * np.linalg.norm(cross, axis=1)


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
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    verts, tris = parse(text)
    if len(tris) == 0:
        raise ParseError(f"{path}: the face list is empty")
    nonfinite = np.flatnonzero(~np.isfinite(verts))
    if nonfinite.size:
        raise ParseError(
            f"{path}: vertex {nonfinite[0] // 3} has a non-finite coordinate"
        )
    return TriangleMesh(verts, tris)


def _significant_lines(text: str) -> list[str]:
    out = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _parse_off(text: str):
    lines = _significant_lines(text)
    if not lines:
        raise ParseError("empty OFF file")
    header = lines[0]
    if header.upper() == "OFF":
        if len(lines) < 2:
            raise ParseError("OFF file missing counts line")
        counts_line, body = lines[1], lines[2:]
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
    verts = []
    for line in body[:nv]:
        toks = line.split()
        if len(toks) < 3:
            raise ParseError(f"bad OFF vertex line: {line!r}")
        try:
            verts.append([float(toks[0]), float(toks[1]), float(toks[2])])
        except ValueError as exc:
            raise ParseError(f"bad OFF vertex line: {line!r}") from exc
    tris = []
    for line in body[nv : nv + nf]:
        toks = line.split()
        try:
            n = int(toks[0])
            idx = [int(tok) for tok in toks[1 : 1 + n]]
        except (ValueError, IndexError) as exc:
            raise ParseError(f"bad OFF face line: {line!r}") from exc
        if n != 3 or len(idx) != 3:
            raise ParseError(f"only triangular faces are supported: {line!r}")
        tris.append(idx)
    return np.array(verts), np.array(tris)


def _parse_obj(text: str):
    verts: list[list[float]] = []
    tris: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] == "v":
            if len(toks) < 4:
                raise ParseError(f"line {lineno}: bad OBJ vertex: {raw!r}")
            try:
                verts.append([float(toks[1]), float(toks[2]), float(toks[3])])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad OBJ vertex: {raw!r}") from exc
        elif toks[0] == "f":
            refs = toks[1:]
            if len(refs) != 3:
                raise ParseError(
                    f"line {lineno}: only triangular faces are supported: {raw!r}"
                )
            face = []
            for ref in refs:
                try:
                    idx = int(ref.split("/")[0])
                except ValueError as exc:
                    raise ParseError(f"line {lineno}: bad OBJ face: {raw!r}") from exc
                if idx == 0:
                    raise ParseError(f"line {lineno}: OBJ indices are 1-based")
                face.append(idx - 1 if idx > 0 else len(verts) + idx)
            tris.append(face)
        # other directives (vn, vt, usemtl, ...) are ignored
    if not verts or not tris:
        raise ParseError("OBJ file contains no triangle mesh")
    return np.array(verts), np.array(tris)


# --- ASCII PLY -------------------------------------------------------------

_PLY_INT_TYPES = {
    "char", "int8", "uchar", "uint8", "short", "int16", "ushort", "uint16",
    "int", "int32", "uint", "uint32",
}


def parse_ply_elements(text: str) -> dict:
    """Parse the text of an ASCII PLY file into per-element property arrays.

    Returns a dict mapping element name to a dict of property name -> array.
    A list property maps to a Python list of integer lists.  Only the ASCII
    variant is supported.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != "ply":
        raise ParseError("missing 'ply' magic line")
    elements: list[tuple[str, int, list]] = []
    fmt_seen = False
    i = 1
    while i < len(lines):
        toks = lines[i].split()
        i += 1
        if not toks or toks[0] == "comment":
            continue
        if toks[0] == "format":
            if len(toks) < 2 or toks[1] != "ascii":
                raise ParseError("only ASCII PLY is supported")
            fmt_seen = True
        elif toks[0] == "element":
            if len(toks) != 3 or not toks[2].isdecimal():
                raise ParseError(f"bad element line: {lines[i - 1]!r}")
            elements.append((toks[1], int(toks[2]), []))
        elif toks[0] == "property":
            if not elements:
                raise ParseError("property before any element")
            if toks[1:2] == ["list"]:
                if len(toks) != 5:
                    raise ParseError(f"bad list property: {lines[i - 1]!r}")
                elements[-1][2].append((toks[4], "list"))
            else:
                if len(toks) != 3:
                    raise ParseError(f"bad property: {lines[i - 1]!r}")
                elements[-1][2].append((toks[2], toks[1]))
        elif toks[0] == "end_header":
            break
        else:
            raise ParseError(f"unexpected header line: {lines[i - 1]!r}")
    else:
        raise ParseError("missing end_header")
    if not fmt_seen:
        raise ParseError("missing format line")

    out: dict = {}
    for name, count, props in elements:
        if any(kind == "list" for _, kind in props):
            if len(props) != 1:
                raise ParseError(
                    f"element {name!r}: list properties must stand alone"
                )
            rows = []
            for _ in range(count):
                if i >= len(lines):
                    raise ParseError(f"element {name!r}: data truncated")
                toks = lines[i].split()
                i += 1
                try:
                    n = int(toks[0])
                    rows.append([int(tok) for tok in toks[1 : 1 + n]])
                except (ValueError, IndexError) as exc:
                    raise ParseError(f"bad list data: {lines[i - 1]!r}") from exc
            out[name] = {props[0][0]: rows}
        else:
            data = np.empty((count, len(props)))
            for r in range(count):
                if i >= len(lines):
                    raise ParseError(f"element {name!r}: data truncated")
                toks = lines[i].split()
                i += 1
                if len(toks) < len(props):
                    raise ParseError(f"bad data line: {lines[i - 1]!r}")
                try:
                    data[r] = [float(tok) for tok in toks[: len(props)]]
                except ValueError as exc:
                    raise ParseError(f"bad data line: {lines[i - 1]!r}") from exc
            out[name] = {
                pname: data[:, j].copy() for j, (pname, _) in enumerate(props)
            }
    return out


def _parse_ply_mesh(text: str):
    elements = parse_ply_elements(text)
    if "vertex" not in elements or "face" not in elements:
        raise ParseError("PLY file must contain vertex and face elements")
    vert = elements["vertex"]
    for key in ("x", "y", "z"):
        if key not in vert:
            raise ParseError(f"PLY vertex element lacks property {key!r}")
    verts = np.column_stack([vert["x"], vert["y"], vert["z"]])
    face_lists = next(iter(elements["face"].values()), None)
    if not isinstance(face_lists, list):
        raise ParseError("PLY face element lacks a vertex-index list property")
    for face in face_lists:
        if len(face) != 3:
            raise ParseError("only triangular faces are supported")
    return verts, np.array(face_lists)


def write_ply(
    path: str,
    vertices: np.ndarray,
    triangles: np.ndarray,
    extra_props: list[tuple[str, str, np.ndarray]] | None = None,
) -> None:
    """Write an ASCII PLY file with optional extra per-vertex properties.

    ``extra_props`` entries are (name, ply_type, column); integer-typed
    columns are written as integers.
    """
    extra_props = extra_props or []
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {len(vertices)}\n")
        fh.write("property float64 x\nproperty float64 y\nproperty float64 z\n")
        for name, ply_type, _ in extra_props:
            fh.write(f"property {ply_type} {name}\n")
        fh.write(f"element face {len(triangles)}\n")
        fh.write("property list uchar int vertex_indices\n")
        fh.write("end_header\n")
        for i, (x, y, z) in enumerate(vertices):
            parts = [f"{x:.17g}", f"{y:.17g}", f"{z:.17g}"]
            for name, ply_type, col in extra_props:
                if ply_type in _PLY_INT_TYPES:
                    parts.append(str(int(col[i])))
                else:
                    parts.append(f"{col[i]:.17g}")
            fh.write(" ".join(parts) + "\n")
        for a, b, c in triangles:
            fh.write(f"3 {a} {b} {c}\n")
