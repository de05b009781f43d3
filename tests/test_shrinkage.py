import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grid_oracles import shrink_1d_oracle, shrink_vec_oracle
from meshtv.admm import (
    NormalEquationSystem,
    _shrink_groups,
    restrict,
    shrink_1d,
    solve_normal_equation,
)
from meshtv.errors import DimensionMismatch
from meshtv.gradient import assemble_gram, build_gradient_operator

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


def _whole(op, n=None):
    """The part of the first ``n`` vertices of ``op`` (all by default) for a
    zero image."""
    return restrict(op, np.arange(op.n_vertices)[:n], np.zeros((op.n_vertices, 1)))


def _identity_system(scale, op, n):
    import scipy.sparse as sp

    gram = sp.csr_matrix((n, n))
    # beta2 * 0 + (prox + beta1) * I = scale * I
    return NormalEquationSystem(gram, beta1=scale / 2.0, beta2=1.0,
                                prox_weight=scale / 2.0, part=_whole(op, n))


def test_solve_scaled_identity(two_triangle_mesh):
    op = build_gradient_operator(two_triangle_mesh)
    system = _identity_system(2.0, op, 2)
    out = solve_normal_equation(system, np.array([[2.0], [4.0]]))
    assert np.allclose(out, [[1.0], [2.0]], atol=1e-12)
    # the right-hand side is (n, channels), as the ADMM loop builds it
    with pytest.raises(DimensionMismatch):
        solve_normal_equation(system, np.array([2.0, 4.0]))


def test_solve_matches_dense_lu(two_triangle_mesh, rng):
    op = build_gradient_operator(two_triangle_mesh)
    gram = assemble_gram(op)
    system = NormalEquationSystem(gram, beta1=0.7, beta2=1.3, prox_weight=0.5,
                                  part=_whole(op))
    # the LU path keeps only its factor
    assert not hasattr(system, "matrix")
    dense = 1.3 * gram.toarray() + (0.5 + 0.7) * np.eye(4)
    for _ in range(20):
        rhs = rng.normal(size=(4, 1))
        x = solve_normal_equation(system, rhs)
        expected = np.linalg.solve(dense, rhs)
        assert np.abs(x - expected).max() < 1e-8


def test_solve_consistency_constant(two_triangle_mesh):
    op = build_gradient_operator(two_triangle_mesh)
    gram = assemble_gram(op)
    system = NormalEquationSystem(gram, 1.0, 1.0, 1.0, _whole(op))
    rhs = (gram.toarray() + 2.0 * np.eye(4)) @ np.ones((4, 1))
    out = solve_normal_equation(system, rhs)
    assert np.abs(out - 1.0).max() < 1e-10


def test_solve_multiple_channels(two_triangle_mesh, rng):
    op = build_gradient_operator(two_triangle_mesh)
    gram = assemble_gram(op)
    system = NormalEquationSystem(gram, 1.0, 1.0, 1.0, _whole(op))
    rhs = rng.normal(size=(4, 3))
    out = solve_normal_equation(system, rhs)
    assert np.abs((gram.toarray() + 2.0 * np.eye(4)) @ out - rhs).max() < 1e-10


def test_cg_path_matches_direct(two_triangle_mesh, rng, monkeypatch):
    import meshtv.admm as admm_mod

    op = build_gradient_operator(two_triangle_mesh)
    gram = assemble_gram(op)
    direct = NormalEquationSystem(gram, 1.0, 1.0, 1.0, _whole(op))
    monkeypatch.setattr(admm_mod, "DIRECT_SOLVE_MAX_VERTICES", 0)
    iterative = NormalEquationSystem(gram, 1.0, 1.0, 1.0, _whole(op))
    # only the CG path stores the matrix it multiplies by
    assert not hasattr(direct, "matrix") and iterative._lu is None
    assert iterative.matrix.format == "csr"
    # three columns, as an RGB image gives
    rhs = rng.normal(size=(4, 3))
    a = solve_normal_equation(direct, rhs)
    b = solve_normal_equation(iterative, rhs)
    assert np.abs(a - b).max() < 1e-8


@pytest.mark.parametrize("name", ["beta1", "beta2", "prox_weight"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_system_rejects_non_finite_penalties(two_triangle_mesh, name, bad):
    op = build_gradient_operator(two_triangle_mesh)
    kwargs = {"beta1": 1.0, "beta2": 1.0, "prox_weight": 1.0, name: bad}
    with pytest.raises(ValueError, match="finite"):
        NormalEquationSystem(assemble_gram(op), part=_whole(op), **kwargs)

