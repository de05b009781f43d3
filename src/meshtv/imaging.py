"""Vertex images, salt-and-pepper noise synthesis, and quality metrics.

Intensities are stored on the [0, 1] scale; 8-bit values are converted at the
file boundary.  Solver iterates may temporarily leave [0, 1], so the unit
range is enforced only where it matters: noise synthesis and file output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mesh as meshmod
from .errors import DimensionMismatch, NaNInput, ParseError


class MeshImage:
    """Per-vertex image with 1 (grayscale) or 3 (color) channels.

    ``values`` is an (n_vertices, channels) float64 array; 1-D input is
    treated as grayscale.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[1] not in (1, 3):
            raise ValueError(f"values must be (n,), (n, 1) or (n, 3), got {arr.shape}")
        if arr.shape[0] == 0:
            raise ValueError("image must have at least one vertex")
        self.values = arr

    @property
    def vertex_count(self) -> int:
        return self.values.shape[0]

    @property
    def channel_count(self) -> int:
        return self.values.shape[1]

    def copy(self) -> "MeshImage":
        return MeshImage(self.values.copy())

    def is_unit_range(self) -> bool:
        return bool(np.all(self.values >= 0.0) and np.all(self.values <= 1.0))

    def __repr__(self) -> str:
        return f"MeshImage(n={self.vertex_count}, channels={self.channel_count})"


@dataclass(frozen=True)
class NoiseSpec:
    """Salt-and-pepper corruption: fraction ``level`` of values flipped to an
    extreme (half to 0.0, half to 1.0), reproducibly from ``seed``."""

    level: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.level <= 1.0:
            raise ValueError(f"noise level must be in [0, 1], got {self.level}")


def _check_same_shape(a: MeshImage, b: MeshImage) -> None:
    if a.values.shape != b.values.shape:
        raise DimensionMismatch(
            f"image shapes differ: {a.values.shape} vs {b.values.shape}"
        )


def add_salt_pepper(image: MeshImage, spec: NoiseSpec) -> MeshImage:
    """Corrupt each value independently: 0.0 or 1.0 with probability level/2
    each, unchanged otherwise.  Color channels are corrupted independently."""
    if not image.is_unit_range():
        raise ValueError("input image must have values in [0, 1]")
    rng = np.random.default_rng(spec.seed)
    draw = rng.random(image.values.shape)
    out = image.values.copy()
    out[draw < spec.level / 2.0] = 0.0
    out[(draw >= spec.level / 2.0) & (draw < spec.level)] = 1.0
    return MeshImage(out)


def psnr(u: MeshImage, reference: MeshImage) -> float:
    """Peak signal-to-noise ratio in dB on the [0, 1] intensity scale.

    Computed as 10 log10(n / ||u - reference||^2) with n the total value
    count (vertices times channels).  Returns +inf for an exact match.
    """
    _check_same_shape(u, reference)
    diff2 = float(np.sum((u.values - reference.values) ** 2))
    if diff2 == 0.0:
        return math.inf
    return 10.0 * math.log10(u.values.size / diff2)


def clamp_to_unit(image: MeshImage) -> MeshImage:
    """Clip all values into [0, 1]; NaN anywhere is an error."""
    if np.isnan(image.values).any():
        raise NaNInput("image contains NaN values")
    return MeshImage(np.clip(image.values, 0.0, 1.0))


# ---------------------------------------------------------------------------
# file I/O: plain text (one vertex per line) and PLY vertex properties


def read_image(path: str) -> MeshImage:
    """Read a per-vertex image from a .txt or .ply file.

    A text file holds one row per vertex, 1 (gray) or 3 (RGB) values on the
    [0, 1] scale.  A PLY file holds a float ``quality`` property (gray) or
    ``red``, ``green``, ``blue`` stored as 0-255 integers (RGB).
    """
    text = meshmod.read_text(path)
    if path.lower().endswith(".ply"):
        props = meshmod.parse_ply_elements(text).get("vertex", {})
        if "quality" in props:
            values = props["quality"]
        elif all(key in props for key in ("red", "green", "blue")):
            rgb = np.column_stack([props["red"], props["green"], props["blue"]])
            values = rgb / 255.0
        else:
            raise ParseError("PLY file has no vertex quality or red/green/blue")
    else:
        values, width = [], None
        for lineno, line in meshmod.significant_lines(text):
            toks = line.split()
            if width is None:
                width = len(toks)
                if width not in (1, 3):
                    raise ParseError(f"line {lineno}: expected 1 or 3 values per line")
            elif len(toks) != width:
                raise ParseError(f"line {lineno}: inconsistent channel count")
            try:
                values.append([float(tok) for tok in toks])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad image line: {line!r}") from exc
        if not values:
            raise ParseError("empty image file")
    image = MeshImage(values)
    if not image.is_unit_range():
        raise ParseError("image values must lie in [0, 1]")
    return image


def write_ply_with_image(
    path: str, mesh: meshmod.TriangleMesh, image: MeshImage
) -> None:
    """Write mesh geometry plus the image as PLY vertex properties."""
    if image.vertex_count != mesh.n_vertices:
        raise DimensionMismatch(
            f"image has {image.vertex_count} values for {mesh.n_vertices} vertices"
        )
    if not image.is_unit_range():
        raise ValueError("image values must lie in [0, 1]; clamp before writing")
    values = image.values
    if image.channel_count == 3:
        values = np.rint(values * 255.0).astype(np.int64)
    meshmod.write_ply(path, mesh, values)
