import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_opens
from meshtv import imaging
from meshtv import mesh as meshmod
from meshtv.errors import DimensionMismatch, NaNInput, ParseError
from meshtv.imaging import (
    MeshImage,
    NoiseSpec,
    add_salt_pepper,
    clamp_to_unit,
    psnr,
    read_image,
    write_ply_with_image,
)
from meshtv.synthetic import icosphere, two_patch_image


def test_zero_level_is_identity(rng):
    image = MeshImage(rng.uniform(0.05, 0.95, size=200))
    out = add_salt_pepper(image, NoiseSpec(0.0, 7))
    assert np.array_equal(out.values, image.values)


def test_full_level_is_binary(rng):
    image = MeshImage(rng.uniform(0.05, 0.95, size=500))
    out = add_salt_pepper(image, NoiseSpec(1.0, 7))
    assert np.all((out.values == 0.0) | (out.values == 1.0))


def test_corruption_fraction_concentrates():
    n = 40962
    level = 0.10
    image = MeshImage(np.full(n, 0.5))
    out = add_salt_pepper(image, NoiseSpec(level, 3))
    corrupted = int(np.count_nonzero(out.values != 0.5))
    sigma = math.sqrt(n * level * (1.0 - level))
    assert abs(corrupted - n * level) <= 3.0 * sigma


def test_noise_is_deterministic(rng):
    image = MeshImage(rng.uniform(0.1, 0.9, size=300))
    spec = NoiseSpec(0.25, 123)
    a = add_salt_pepper(image, spec)
    b = add_salt_pepper(image, spec)
    assert np.array_equal(a.values, b.values)


def test_pepper_salt_ratio_chi_square():
    # >= 1e5 draws across seeds; chi-square with 1 dof at the 0.001 level
    n = 2000
    level = 0.2
    image = MeshImage(np.full(n, 0.5))
    pepper = salt = 0
    for seed in range(60):
        out = add_salt_pepper(image, NoiseSpec(level, seed)).values
        pepper += int(np.count_nonzero(out == 0.0))
        salt += int(np.count_nonzero(out == 1.0))
    assert pepper + salt > 10**4
    chi2 = (pepper - salt) ** 2 / (pepper + salt)
    assert chi2 < 10.828


def test_color_channels_corrupted_independently():
    n = 5000
    image = MeshImage(np.full((n, 3), 0.5))
    out = add_salt_pepper(image, NoiseSpec(0.3, 11)).values
    corrupted = out != 0.5
    # a vertex with one corrupted channel usually keeps another one clean
    mixed = np.count_nonzero(corrupted.any(axis=1) & ~corrupted.all(axis=1))
    assert mixed > 0


def test_noise_level_validation():
    with pytest.raises(ValueError):
        NoiseSpec(1.5, 0)


def test_psnr_exact_match_is_inf():
    image = MeshImage(np.linspace(0, 1, 10))
    assert psnr(image, image) == math.inf


def test_psnr_unit_error_is_zero_db():
    ref = MeshImage(np.zeros(64))
    off = MeshImage(np.ones(64))
    assert psnr(off, ref) == pytest.approx(0.0, abs=1e-12)


def test_psnr_single_vertex_forty_db():
    ref = MeshImage(np.full(100, 0.5))
    values = ref.values.copy()
    values[17] += 0.1
    assert psnr(MeshImage(values), ref) == pytest.approx(40.0, abs=1e-12)


def test_psnr_color_counts_all_values():
    ref = MeshImage(np.full((100, 3), 0.5))
    values = ref.values.copy()
    values += 0.1  # uniform per-channel error matches the grayscale case
    gray_ref = MeshImage(np.full(100, 0.5))
    gray = MeshImage(np.full(100, 0.6))
    assert psnr(MeshImage(values), ref) == pytest.approx(psnr(gray, gray_ref))


@given(st.floats(1e-6, 0.5), st.floats(1.1, 4.0))
@settings(max_examples=50, deadline=None)
def test_psnr_monotone_in_error(err, factor):
    ref = MeshImage(np.full(50, 0.5))
    a = MeshImage(ref.values + err / math.sqrt(50))
    b = MeshImage(ref.values + factor * err / math.sqrt(50))
    assert psnr(a, ref) > psnr(b, ref)


def test_psnr_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        psnr(MeshImage(np.zeros(4)), MeshImage(np.zeros(5)))


def test_clamp_basic():
    out = clamp_to_unit(MeshImage(np.array([-0.2, 0.5, 1.3])))
    assert np.array_equal(out.values[:, 0], [0.0, 0.5, 1.0])


def test_clamp_keeps_valid_image(rng):
    image = MeshImage(rng.uniform(0, 1, size=30))
    assert np.array_equal(clamp_to_unit(image).values, image.values)


def test_clamp_rejects_nan():
    with pytest.raises(NaNInput):
        clamp_to_unit(MeshImage(np.full(4, np.nan)))


def test_txt_reads_17_significant_digits(tmp_path):
    path = tmp_path / "img.txt"
    path.write_text("# r g b\n"
                    "0.12345678901234568 0.5 1\n"
                    "0.99999999999999989 0 0.33333333333333331  # comment\n")
    back = read_image(str(path))
    expected = [[0.12345678901234568, 0.5, 1.0],
                [0.99999999999999989, 0.0, 0.33333333333333331]]
    assert np.array_equal(back.values, expected)


@pytest.mark.parametrize("text, match", [
    ("0.5\n1.5\n", r"must lie in \[0, 1\]"),
    ("0.5\n0.5 0.5 0.5\n", "line 2"),
    ("0.5 0.5\n0.5 0.5\n", "^line 1: expected 1 or 3 values per line$"),
    ("0.1 0.2 0.3\n0.4 0.5 0.6\n0.7 0.8\n", "^line 3: inconsistent channel count$"),
    ("0.5\n0.5x\n", "^line 2: bad image line: '0.5x'$"),
    ("# only a comment\n\n   # and another\n", "^empty image file$"),
], ids=["out-of-range", "ragged-width", "two-values", "short-later-row",
        "non-numeric", "comment-only"])
def test_txt_bad_image_rejected(tmp_path, text, match):
    path = tmp_path / "img.txt"
    path.write_text(text)
    with pytest.raises(ParseError, match=match):
        read_image(str(path))


def test_txt_drops_a_utf8_byte_order_mark(tmp_path):
    values = two_patch_image(icosphere(1)).values
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    np.savetxt(plain, values, fmt="%.17g")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert np.array_equal(read_image(str(marked)).values, values)


def test_ply_gray_round_trip(tmp_path):
    mesh = icosphere(1)
    image = two_patch_image(mesh)
    path = tmp_path / "img.ply"
    write_ply_with_image(str(path), mesh, image)
    back = read_image(str(path))
    # 17 significant digits round-trip every float64
    assert np.array_equal(back.values, image.values)


def test_ply_image_file_is_read_once(tmp_path, monkeypatch):
    mesh = icosphere(1)
    image = two_patch_image(mesh)
    path = tmp_path / "img.ply"
    write_ply_with_image(str(path), mesh, image)
    opened = count_opens(monkeypatch, imaging, meshmod)
    back = read_image(str(path))
    assert opened == [str(path)]
    assert np.array_equal(back.values, image.values)


def test_ply_color_round_trip_quantized(tmp_path, rng):
    mesh = icosphere(1)
    image = MeshImage(rng.uniform(0, 1, size=(mesh.n_vertices, 3)))
    path = tmp_path / "img.ply"
    write_ply_with_image(str(path), mesh, image)
    back = read_image(str(path))
    # color goes through 8-bit quantization at the file boundary
    assert np.abs(back.values - image.values).max() <= 0.5 / 255.0 + 1e-12


def test_ply_write_requires_unit_range(tmp_path):
    mesh = icosphere(1)
    bad = MeshImage(np.full(mesh.n_vertices, 1.2))
    with pytest.raises(ValueError):
        write_ply_with_image(str(tmp_path / "bad.ply"), mesh, bad)


def test_mesh_image_shape_validation():
    with pytest.raises(ValueError):
        MeshImage(np.zeros((5, 2)))
