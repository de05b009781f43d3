import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from grid_oracles import shrink_1d_oracle, shrink_vec_oracle
from meshtv import admm
from meshtv.admm import (
    NormalEquationSystem,
    _shrink_groups,
    shrink_1d,
    solve_normal_equation,
)
from meshtv.errors import DimensionMismatch
from meshtv.gradient import assemble_gram, build_gradient_operator
from meshtv.synthetic import planar_grid

finite = st.floats(-5.0, 5.0, allow_nan=False)
thresholds = st.floats(0.0, 3.0, allow_nan=False)


def test_shrink_1d_examples():
    assert shrink_1d(3.0, 1.0) == pytest.approx(2.0)
    assert shrink_1d(-0.5, 1.0) == 0.0
    assert shrink_1d(-3.0, 1.0) == pytest.approx(-2.0)


def test_shrink_1d_matches_grid_oracle(rng):
    for _ in range(50):
        x = rng.uniform(-5, 5)
        thr = rng.uniform(0, 3)
        assert shrink_1d(x, thr) == pytest.approx(shrink_1d_oracle(x, thr), abs=1e-5)


def _shrink_one(x, threshold):
    return _shrink_groups(x[None], threshold)[0]


def test_shrink_groups_example():
    out = _shrink_one(np.array([3.0, 4.0, 0.0]), 2.0)
    assert np.allclose(out, [1.8, 2.4, 0.0], atol=1e-12)


def test_shrink_groups_zero_input_convention():
    assert np.all(_shrink_one(np.zeros(3), 1.7) == 0.0)
    assert np.all(_shrink_one(np.zeros(3), 0.0) == 0.0)


def test_shrink_groups_norm_equal_threshold_gives_zero():
    x = np.array([0.6, 0.8, 0.0])
    assert np.all(_shrink_one(x, 1.0) == 0.0)


def test_shrink_groups_matches_radial_oracle(rng):
    for _ in range(50):
        x = rng.normal(size=3) * 2.0
        thr = rng.uniform(0, 3)
        assert np.abs(_shrink_one(x, thr) - shrink_vec_oracle(x, thr)).max() < 1e-5


def test_shrink_groups_color_stack_matches_oracle_per_block(rng):
    # an RGB gradient stack (m, 3, 3) is shrunk block by block, each 3x3
    # block as one 9-entry group: the channels share one norm
    thr = 1.3
    a = rng.normal(size=(40, 3, 3))
    a[0] *= thr / np.linalg.norm(a[0])
    out = _shrink_groups(a, thr)
    assert np.all(out[0] == 0.0)
    for block, got in zip(a, out):
        expected = shrink_vec_oracle(block.ravel(), thr).reshape(3, 3)
        assert np.abs(got - expected).max() < 1e-5


@pytest.mark.parametrize("channels", [1, 3], ids=["gray", "rgb"])
def test_shrink_groups_equals_the_linalg_norm_form_bit_for_bit(channels, rng):
    # reference: the same scaling with np.linalg.norm computing the norms
    thr = 0.8
    a = rng.normal(size=(200, 3, channels)) * 0.5
    a[::7] = 0.0
    flat = a.reshape(a.shape[0], -1)
    norms = np.linalg.norm(flat, axis=1)
    scale = np.zeros_like(norms)
    active = norms > thr
    scale[active] = 1.0 - thr / norms[active]
    expected = a * scale[:, None, None]
    out = _shrink_groups(a, thr)
    assert np.array_equal(out, expected)
    assert np.array_equal(np.signbit(out), np.signbit(expected))


@pytest.mark.parametrize("threshold", [0.0, 0.7, np.inf], ids=["zero", "finite", "inf"])
def test_shrink_1d_equals_the_sign_form_bit_for_bit(threshold, rng):
    # values only: where the result is zero the sign form may give -0.0, and
    # an infinite threshold (a pinned channel) zeroes every entry
    x = rng.normal(size=(200, 3))
    x[::11] = 0.0
    expected = np.sign(x) * np.maximum(np.abs(x) - threshold, 0.0)
    assert np.array_equal(shrink_1d(x, threshold), expected)
    # a per-entry threshold array, as the ADMM loop passes it
    per_entry = np.full(x.shape, threshold)
    assert np.array_equal(shrink_1d(x, per_entry), expected)


@given(finite, finite, thresholds)
@settings(max_examples=200, deadline=None)
def test_shrink_1d_is_nonexpansive(a, b, thr):
    assert abs(shrink_1d(a, thr) - shrink_1d(b, thr)) <= abs(a - b) + 1e-12


@given(st.lists(finite, min_size=3, max_size=3),
       st.lists(finite, min_size=3, max_size=3), thresholds)
@settings(max_examples=200, deadline=None)
def test_shrink_groups_is_nonexpansive(a, b, thr):
    a, b = np.array(a), np.array(b)
    lhs = np.linalg.norm(_shrink_one(a, thr) - _shrink_one(b, thr))
    assert lhs <= np.linalg.norm(a - b) + 1e-12


def _identity_system(scale, n):
    # a zero Gram that stores its diagonal, as every mesh's Gram does
    gram = sp.csr_matrix((np.zeros(n), np.arange(n), np.arange(n + 1)),
                         shape=(n, n))
    # beta2 * 0 + beta1 * I = scale * I
    return NormalEquationSystem(gram, beta1=scale, beta2=1.0)


def test_solve_scaled_identity():
    system = _identity_system(2.0, 2)
    out = solve_normal_equation(system, np.array([[2.0], [4.0]]))
    assert np.allclose(out, [[1.0], [2.0]], atol=1e-12)
    # the right-hand side is (n, channels), as the ADMM loop builds it
    with pytest.raises(DimensionMismatch):
        solve_normal_equation(system, np.array([2.0, 4.0]))


def test_the_system_hands_splu_the_arrays_of_the_summed_matrix(monkeypatch, rng):
    # the matrix is built from the Gram's arrays, not as a sparse sum and a
    # conversion; splu must see the same arrays as from the sum
    op = build_gradient_operator(planar_grid(12))
    received = []
    splu = spla.splu
    monkeypatch.setattr(admm.spla, "splu",
                        lambda a: received.append(a) or splu(a))
    gram = assemble_gram(op)
    free = np.flatnonzero(rng.uniform(size=op.n_vertices) < 0.4)
    for part_gram in (gram, gram[free][:, free]):
        NormalEquationSystem(part_gram, 0.7, 1.3)
        expected = (1.3 * part_gram + 0.7 * sp.identity(part_gram.shape[0])).tocsc()
        got = received[-1]
        assert got.format == "csc"
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, name), getattr(expected, name))
    # a Gram that leaves a diagonal entry out, or whose rows are not
    # sorted, is refused
    unsorted = sp.csr_matrix((np.ones(5), [1, 0, 1, 2, 3], [0, 2, 3, 4, 5]),
                             shape=(4, 4))
    for bad in (sp.csr_matrix((4, 4)), unsorted):
        with pytest.raises(ValueError, match="canonical"):
            NormalEquationSystem(bad, 1.0, 1.0)


def test_solve_matches_dense_lu(two_triangle_mesh, rng):
    op = build_gradient_operator(two_triangle_mesh)
    gram = assemble_gram(op)
    system = NormalEquationSystem(gram, beta1=0.7, beta2=1.3)
    # the system keeps only its factor: no matrix, part, image data or cache
    assert sorted(vars(system)) == ["_lu", "beta1", "beta2", "n"]
    dense = 1.3 * gram.toarray() + 0.7 * np.eye(4)
    for _ in range(20):
        rhs = rng.normal(size=(4, 1))
        x = solve_normal_equation(system, rhs)
        expected = np.linalg.solve(dense, rhs)
        assert np.abs(x - expected).max() < 1e-8


def test_solve_consistency_constant(two_triangle_mesh):
    op = build_gradient_operator(two_triangle_mesh)
    gram = assemble_gram(op)
    system = NormalEquationSystem(gram, 2.0, 1.0)
    rhs = (gram.toarray() + 2.0 * np.eye(4)) @ np.ones((4, 1))
    out = solve_normal_equation(system, rhs)
    assert np.abs(out - 1.0).max() < 1e-10


def test_solve_multiple_channels(two_triangle_mesh, rng):
    op = build_gradient_operator(two_triangle_mesh)
    gram = assemble_gram(op)
    system = NormalEquationSystem(gram, 2.0, 1.0)
    rhs = rng.normal(size=(4, 3))
    out = solve_normal_equation(system, rhs)
    assert np.abs((gram.toarray() + 2.0 * np.eye(4)) @ out - rhs).max() < 1e-10


def test_lu_solves_a_grid_of_53824_vertices(rng):
    # one LU factor serves every size; this grid has more unknowns than the
    # largest benchmarked icosphere (k = 6, 40,962 vertices)
    op = build_gradient_operator(planar_grid(232))
    gram = assemble_gram(op)
    system = NormalEquationSystem(gram, 2.0, 2.0)
    assert system.n == 53_824 and isinstance(system._lu, spla.SuperLU)
    # three columns, as an RGB image gives
    rhs = rng.normal(size=(system.n, 3))
    out = solve_normal_equation(system, rhs)
    matrix = 2.0 * gram + 2.0 * sp.identity(system.n)
    assert np.abs(matrix @ out - rhs).max() <= 1e-10


@pytest.mark.parametrize("name", ["beta1", "beta2"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_system_rejects_non_finite_penalties(two_triangle_mesh, name, bad):
    op = build_gradient_operator(two_triangle_mesh)
    kwargs = {"beta1": 1.0, "beta2": 1.0, name: bad}
    with pytest.raises(ValueError, match="finite"):
        NormalEquationSystem(assemble_gram(op), **kwargs)

