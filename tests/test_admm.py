import dataclasses
import warnings

import numpy as np
import pytest

from conftest import admm_full_size, nan_at_step, prox_system
from grid_oracles import (
    grid2_argmin,
    make_constrained_objective,
    nested_grid_argmin,
    pinned_admm_dense,
    shrink_1d_oracle,
    shrink_vec_oracle,
)
from meshtv import admm, gradient, lptv
from meshtv.admm import (
    NormalEquationSystem,
    _shrink_groups,
    admm_solve,
    restrict,
    shrink_1d,
    solve_normal_equation,
)
from meshtv.config import SolverConfig
from meshtv.errors import DimensionMismatch, NonFiniteIterate
from meshtv.gradient import assemble_gram, build_gradient_operator
from meshtv.imaging import MeshImage, NoiseSpec, add_salt_pepper
from meshtv.lptv import objective, plm_solve
from meshtv.synthetic import icosphere, two_patch_image

TINY_CONFIG = SolverConfig(
    lam=0.5, p=0.5, prox_weight=1.0, beta1=2.0, beta2=2.0,
    inner_tol=1e-10, inner_max_iter=50_000,
)


def test_empty_support_returns_data(two_triangle_mesh, rng):
    # no vertex is free: there is no subproblem, and a start within
    # eps_support of the data ends exactly at the data
    op = build_gradient_operator(two_triangle_mesh)
    f = MeshImage(rng.uniform(0, 1, size=4))
    support = np.zeros((4, 1), dtype=bool)
    assert prox_system(op, TINY_CONFIG, f, support) is None
    u_k = MeshImage(f.values + 0.5 * TINY_CONFIG.eps_support)
    out, trace = plm_solve(f, two_triangle_mesh, op, TINY_CONFIG, u_k)
    assert trace.converged
    assert not trace.column("free_vertices").any()
    assert trace.records[0].iterate_gap == pytest.approx(
        np.linalg.norm(u_k.values - f.values), rel=1e-12)
    assert np.array_equal(out.values, f.values)


def test_weights_must_match_image_shape(rng):
    # an RGB part needs (n, 3) weights; the flat array of the same size is refused
    mesh = icosphere(1)
    op = build_gradient_operator(mesh)
    f = MeshImage(rng.uniform(0, 1, size=(mesh.n_vertices, 3)))
    part, system = prox_system(op, TINY_CONFIG, f,
                               np.ones(f.values.shape, dtype=bool))
    with pytest.raises(DimensionMismatch):
        admm_solve(f.values, np.ones(f.values.size), 1.0, part, system,
                   TINY_CONFIG.inner_tol, TINY_CONFIG.inner_max_iter)
    # so is a center of the wrong shape
    with pytest.raises(DimensionMismatch):
        admm_solve(f.values[:, :1], np.ones(f.values.shape), 1.0, part, system,
                   TINY_CONFIG.inner_tol, TINY_CONFIG.inner_max_iter)
    # and a system of another vertex count than the part's
    half = np.zeros(f.values.shape, dtype=bool)
    half[::2] = True
    _, other = prox_system(op, TINY_CONFIG, f, half)
    with pytest.raises(DimensionMismatch, match="unknowns"):
        admm_solve(f.values, np.ones(f.values.shape), 1.0, part, other,
                   TINY_CONFIG.inner_tol, TINY_CONFIG.inner_max_iter)


def test_pinned_coordinates_are_bit_exact(two_triangle_mesh, rng):
    op = build_gradient_operator(two_triangle_mesh)
    f = MeshImage(rng.uniform(0, 1, size=4))
    support = np.array([[False], [True], [True], [False]])
    u_k = MeshImage(f.values.copy())
    out, _, _, _ = admm_full_size(f, u_k, support, np.ones(2), op, TINY_CONFIG,
                                  prox_system(op, TINY_CONFIG, f, support))
    assert out.values[0, 0] == f.values[0, 0]
    assert out.values[3, 0] == f.values[3, 0]


def test_admm_is_deterministic(two_triangle_mesh, rng):
    op = build_gradient_operator(two_triangle_mesh)
    f = MeshImage(rng.uniform(0, 1, size=4))
    support = np.array([[True], [False], [False], [True]])
    u_k = MeshImage(f.values.copy())
    subproblem = prox_system(op, TINY_CONFIG, f, support)
    a, it_a, _, _ = admm_full_size(f, u_k, support, np.ones(2), op, TINY_CONFIG,
                                   subproblem)
    b, it_b, _, _ = admm_full_size(f, u_k, support, np.ones(2), op, TINY_CONFIG,
                                   subproblem)
    assert it_a == it_b
    assert np.array_equal(a.values, b.values)


def test_penalties_come_from_the_system(rng):
    # config.beta1/beta2 disagree with the factorized system; the system wins
    mesh = icosphere(2)
    op = build_gradient_operator(mesh)
    f = MeshImage(rng.uniform(0, 1, size=mesh.n_vertices))
    support = rng.uniform(size=(mesh.n_vertices, 1)) < 0.3
    w = rng.uniform(0.5, 2.0, size=np.count_nonzero(support))
    matching = SolverConfig(lam=0.2, p=0.5, prox_weight=1.0, beta1=4.0,
                            beta2=1.0, inner_tol=1e-8, inner_max_iter=5000)
    other = dataclasses.replace(matching, beta1=2.0, beta2=2.0)
    subproblem = prox_system(op, matching, f, support)
    a, it_a, ok_a, _ = admm_full_size(f, f, support, w, op, matching, subproblem)
    b, it_b, ok_b, _ = admm_full_size(f, f, support, w, op, other, subproblem)
    assert (it_a, ok_a) == (it_b, ok_b)
    assert np.array_equal(a.values, b.values)


def test_restart_from_returned_duals_is_shorter(rng):
    # plm_solve starts each subproblem from the state that the previous one
    # returned: the multipliers and the penalty factor.  The next
    # subproblem, centered at the previous result, reaches the same point
    # from that state in fewer steps than from zeros.  (The same subproblem
    # restarted at the same center gains nothing: its first v is the
    # center, as far from the solution as before.)
    mesh = icosphere(2)
    op = build_gradient_operator(mesh)
    f = MeshImage(rng.uniform(0, 1, size=mesh.n_vertices))
    support = rng.uniform(size=(mesh.n_vertices, 1)) < 0.3
    w = rng.uniform(0.5, 2.0, size=np.count_nonzero(support))
    config = SolverConfig(lam=0.2, p=0.5, prox_weight=1.0, beta1=2.0,
                          beta2=2.0, inner_tol=1e-8, inner_max_iter=5000)
    subproblem = prox_system(op, config, f, support)
    first, _, ok_first, state = admm_full_size(f, f, support, w, op, config,
                                               subproblem)
    kept = [d.copy() for d in state[:2]]
    cold, it_cold, ok_cold, _ = admm_full_size(f, first, support, w, op, config,
                                               subproblem)
    warm, it_warm, ok_warm, _ = admm_full_size(f, first, support, w, op, config,
                                               subproblem, state)
    assert ok_first and ok_cold and ok_warm
    assert it_warm < it_cold
    # the inputs are left as they were, so a caller can start from them twice
    assert all(np.array_equal(a, b) for a, b in zip(state[:2], kept))
    # the stopping rule bounds residual norms over sqrt(size); so does this
    rms = np.linalg.norm(warm.values - cold.values) / np.sqrt(f.values.size)
    assert rms < config.inner_tol


@pytest.mark.parametrize("channels", [1, 3], ids=["gray", "rgb"])
def test_a_non_finite_step_raises(channels, monkeypatch, rng):
    mesh = icosphere(2)
    op = build_gradient_operator(mesh)
    f = rng.uniform(0, 1, size=(mesh.n_vertices, channels))
    whole = restrict(op, np.arange(mesh.n_vertices), f)
    system = NormalEquationSystem(assemble_gram(op), 2.0, 2.0)
    # the check reads the primal residual norm, which any of them makes
    # non-finite in the step it appears, before numpy warns of anything
    for value in (np.nan, np.inf, -np.inf):
        calls = nan_at_step(monkeypatch, 3, value)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteIterate):
                admm_solve(f, np.full(f.shape, 0.3), 0.0, whole, system,
                           1e-9, 1000)
        assert len(calls) == 3
        monkeypatch.undo()


@pytest.mark.parametrize("channels", [1, 3], ids=["gray", "rgb"])
def test_the_returned_multipliers_are_unscaled(channels, rng):
    # at the minimum eta_j = lam sign(v_j - f_j) where v_j != f_j, and
    # mu_i = z_i / ||z_i|| where z_i != 0: whatever s the solve ends at
    mesh = icosphere(2)
    op = build_gradient_operator(mesh)
    f = rng.uniform(0, 1, size=(mesh.n_vertices, channels))
    lam = 0.3
    whole = restrict(op, np.arange(mesh.n_vertices), f)
    system = NormalEquationSystem(assemble_gram(op), 6.0, 6.0)
    v, _, converged, (eta, mu, s) = admm_solve(
        f, np.full(f.shape, lam), 0.0, whole, system, 1e-9, 20_000)
    assert converged and s != 1.0
    assert np.abs(v - f).max() > 0.0 and np.abs(gradient.apply(op, v)).max() > 0.0
    assert abs(np.abs(eta).max() / lam - 1.0) < 1e-6
    assert abs(gradient.triangle_norms(mu).max() - 1.0) < 1e-6


def _reference_case(name, mesh, rng):
    """(f, support) of one comparison against the full-size reference."""
    n = mesh.n_vertices
    if name == "gray":
        f = rng.uniform(0, 1, size=(n, 1))
        support = rng.uniform(size=(n, 1)) < 0.3
    elif name == "gray-far-pins":
        # pinned data far from 0 and from the free values: the pinned
        # neighbours' gradient offset dominates the free vertices' triangles
        f = rng.uniform(0, 1, size=(n, 1))
        support = rng.uniform(size=(n, 1)) < 0.4
        f[~support] += 40.0
    elif name == "rgb":
        f = rng.uniform(0, 1, size=(n, 3))
        support = rng.uniform(size=(n, 3)) < 0.25
    else:  # "rgb-pinned-channel": every free vertex has a pinned channel
        f = rng.uniform(0, 1, size=(n, 3))
        support = np.zeros((n, 3), dtype=bool)
        free = rng.uniform(size=n) < 0.4
        support[free, rng.integers(0, 3, size=free.sum())] = True
        support[free, 0] |= rng.uniform(size=free.sum()) < 0.5
    return f, support


@pytest.mark.parametrize("name", ["gray", "gray-far-pins", "rgb",
                                  "rgb-pinned-channel"])
def test_admm_matches_full_size_pinned_reference(name, rng):
    # the solve on the free vertices and the triangles that touch them
    # reaches the minimizer the full-size pinned loop reaches
    mesh = icosphere(1)
    op = build_gradient_operator(mesh)
    f_values, support = _reference_case(name, mesh, rng)
    assert not support.all(axis=1).all() and support.any()
    u_k = f_values + rng.normal(scale=0.1, size=f_values.shape)
    u_k[~support] = f_values[~support]
    w = rng.uniform(0.5, 2.0, size=np.count_nonzero(support))
    config = SolverConfig(lam=0.3, p=0.5, prox_weight=1.0, beta1=2.0,
                          beta2=2.0, inner_tol=1e-10, inner_max_iter=50_000)
    out, _, converged, _ = admm_full_size(
        MeshImage(f_values), MeshImage(u_k), support, w, op, config,
        prox_system(op, config, MeshImage(f_values), support))
    expected, ref_converged = pinned_admm_dense(
        f_values, u_k, support, w, op, config.lam, config.beta1, config.beta2,
        config.prox_weight, config.inner_tol, config.inner_max_iter)
    assert converged and ref_converged
    assert np.abs(out.values - expected).max() < 1e-6
    assert np.array_equal(out.values[~support], f_values[~support])


@pytest.mark.parametrize("name", ["gray", "gray-far-pins", "rgb",
                                  "rgb-pinned-channel"])
def test_part_objective_and_norm_equal_those_of_the_scattered_image(name, rng):
    # a step scores the part plus the pinned constants; the sum equals the
    # objective and the norm of the whole image the part's values make
    mesh = icosphere(2)
    op = build_gradient_operator(mesh)
    f_values, support = _reference_case(name, mesh, rng)
    config = SolverConfig(lam=0.3, p=0.5)
    for free in (np.flatnonzero(support.any(axis=1)), np.arange(mesh.n_vertices)):
        part = restrict(op, free, f_values)
        v = part.f_free + rng.normal(scale=0.1, size=part.f_free.shape)
        u = f_values.copy()
        u[part.vertices] = v
        got = lptv._objective_raw(v, part, config.lam, config.p)
        expected = objective(MeshImage(u), MeshImage(f_values), op, config)
        if free.size == mesh.n_vertices:
            assert got == expected
        else:
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert part.size == u.size
        assert v.ravel() @ v.ravel() + part.pinned_sq == pytest.approx(
            np.linalg.norm(u) ** 2, rel=1e-12, abs=0.0)


def test_duals_must_match_the_image(rng):
    mesh = icosphere(1)
    op = build_gradient_operator(mesh)
    rgb = MeshImage(rng.uniform(0, 1, size=(mesh.n_vertices, 3)))
    gray_duals = (np.zeros((mesh.n_vertices, 1)),
                  np.zeros((mesh.n_triangles, 3, 1)), 1.0)
    support = np.ones(rgb.values.shape, dtype=bool)
    with pytest.raises(DimensionMismatch):
        admm_full_size(rgb, rgb, support, np.ones(rgb.values.size), op,
                       TINY_CONFIG, prox_system(op, TINY_CONFIG, rgb, support),
                       gray_duals)


def test_joint_yz_step_matches_per_coordinate_oracles(rng):
    # the (y, z) update must solve its subproblem exactly: per scalar,
    # minimize lam*w*|y| + beta1/2 * (y - a)^2, per triangle group,
    # minimize ||z|| + beta2/2 * ||z - c||^2 (areas cancel)
    lam, beta1, beta2 = 0.7, 1.9, 2.3
    for _ in range(25):
        a = rng.normal()
        w = rng.uniform(0.2, 2.0)
        y = shrink_1d(a, lam * w / beta1)
        y_star = shrink_1d_oracle(a, lam * w / beta1)
        assert y == pytest.approx(y_star, abs=1e-5)

        c = rng.normal(size=3)
        z = _shrink_groups(c[None], 1.0 / beta2)[0]
        z_star = shrink_vec_oracle(c, 1.0 / beta2)
        assert np.abs(z - z_star).max() < 1e-5


def _tiny_admm_case(op, f_values, lam, rng):
    config = SolverConfig(
        lam=lam, p=0.5, prox_weight=1.0, beta1=2.0, beta2=2.0,
        inner_tol=1e-10, inner_max_iter=50_000,
    )
    f = MeshImage(f_values)
    support = np.array([[True], [False], [False], [True]])
    w = np.ones(2)
    u_k = MeshImage(f_values.copy())
    out, _, converged, _ = admm_full_size(f, u_k, support, w, op, config,
                                          prox_system(op, config, f, support))
    assert converged
    objective = make_constrained_objective(
        op, f_values, f_values, [0, 3], w, lam, config.prox_weight
    )
    best = grid2_argmin(objective, -0.5, 1.5)
    return out.values[[0, 3], 0], best


def test_admm_matches_grid_oracle_on_tiny_instance(two_triangle_mesh, rng):
    op = build_gradient_operator(two_triangle_mesh)
    for _ in range(3):
        f_values = rng.uniform(0, 1, size=4)
        lam = rng.uniform(0.05, 0.5)
        got, expected = _tiny_admm_case(op, f_values, lam, rng)
        assert np.abs(got - expected).max() < 2e-3


def test_all_free_part_applies_no_gradient(monkeypatch, rng):
    # with every vertex free nothing is pinned: the part has no offset and
    # zero constants, without applying the operator to an all-zero image
    mesh = icosphere(2)
    op = build_gradient_operator(mesh)
    data = rng.uniform(0, 1, size=(mesh.n_vertices, 3))
    calls = []
    apply = gradient.apply
    monkeypatch.setattr(gradient, "apply",
                        lambda *args: calls.append(args) or apply(*args))
    whole = restrict(op, np.arange(mesh.n_vertices), data)
    assert calls == []
    assert whole.op is op and np.array_equal(whole.f_free, data)
    assert np.array_equal(whole.triangles, np.arange(op.n_triangles))
    assert whole.offset is None and whole.offset_adjoint is None
    assert (whole.pinned_tv, whole.pinned_sq, whole.size) == (0.0, 0.0, data.size)
    # one pinned vertex: its offset needs one application
    restrict(op, np.arange(1, mesh.n_vertices), data)
    assert len(calls) == 1


def test_full_support_prox_free_subproblem_is_l1tv(rng):
    # the proximal weight is the solve's argument, not config.prox_weight
    mesh = icosphere(1)
    op = build_gradient_operator(mesh)
    f = MeshImage(rng.uniform(0, 1, size=mesh.n_vertices))
    config = SolverConfig(lam=0.5, p=1.0, prox_weight=1.0, beta1=2.0, beta2=2.0,
                          inner_tol=1e-8, inner_max_iter=20_000)
    support = np.ones((mesh.n_vertices, 1), dtype=bool)
    whole = restrict(op, np.arange(mesh.n_vertices), f.values)
    system = NormalEquationSystem(assemble_gram(op), config.beta1, config.beta2)
    out, _, converged, _ = admm_full_size(f, f, support, np.ones(mesh.n_vertices),
                                          op, config, (whole, system),
                                          prox_weight=0.0)
    assert converged
    l1tv, _ = plm_solve(f, mesh, op, config, f)
    assert np.array_equal(out.values, l1tv.values)


def test_l1tv_matches_nested_grid_oracle(two_triangle_mesh, rng):
    op = build_gradient_operator(two_triangle_mesh)
    for _ in range(3):
        f_values = rng.uniform(0, 1, size=4)
        lam = rng.uniform(0.5, 2.0)
        config = SolverConfig(lam=lam, p=1.0, beta1=2.0, beta2=2.0,
                              inner_tol=1e-10, inner_max_iter=50_000)
        f = MeshImage(f_values)
        out, _ = plm_solve(f, two_triangle_mesh, op, config, f)
        objective = make_constrained_objective(
            op, f_values, f_values, [0, 1, 2, 3], np.ones(4), lam, 0.0
        )
        lo = np.full(4, f_values.min() - 0.25)
        hi = np.full(4, f_values.max() + 0.25)
        best = nested_grid_argmin(objective, lo, hi, stages=12, points=13)
        assert np.abs(out.values[:, 0] - best).max() < 2e-3


def test_l1tv_large_lambda_returns_data(rng):
    mesh = icosphere(1)
    op = build_gradient_operator(mesh)
    f = MeshImage(rng.uniform(0, 1, size=mesh.n_vertices))
    config = SolverConfig(lam=1e6, p=1.0, beta1=10.0, beta2=10.0,
                          inner_tol=1e-9, inner_max_iter=20_000)
    out, _ = plm_solve(f, mesh, op, config, f)
    assert np.abs(out.values - f.values).max() < 1e-3


def test_l1tv_small_lambda_flattens(rng):
    mesh = icosphere(1)
    op = build_gradient_operator(mesh)
    f = MeshImage(rng.uniform(0, 1, size=mesh.n_vertices))
    config = SolverConfig(lam=1e-6, p=1.0, beta1=1.0, beta2=1.0,
                          inner_tol=1e-9, inner_max_iter=20_000)
    out, _ = plm_solve(f, mesh, op, config, f)
    spread = out.values.max() - out.values.min()
    assert spread < 1e-2


@pytest.mark.parametrize("p, lam, beta", [
    (1.0, 0.1, 200.0), (1.0, 0.1, 2000.0), (1.0, 0.1, 0.01),
    (0.5, 0.15, 30.0), (0.5, 0.15, 300.0),
], ids=["200.0", "2000.0", "0.01", "lptv-200lam", "lptv-2000lam"])
def test_l1tv_stops_at_the_minimum_from_any_starting_penalty(p, lam, beta,
                                                             monkeypatch):
    # L1-TV from beta 200: a stop on the primal residual alone ended after 39
    # steps at objective 14.30, against a minimum of 6.107, and reported
    # converged; from beta 2000 it still did so after 24 steps with the
    # balancing on.  Lp-TV (p 0.5) from the L1-TV result, with fixed
    # penalties and that stop, ran 500 outer steps without converging from
    # 200 * lam and 2000 * lam, and ended 1e-5 and 4e-3 above the tight
    # solve's objective.
    mesh = icosphere(3)
    op = build_gradient_operator(mesh)
    noisy = add_salt_pepper(two_patch_image(mesh), NoiseSpec(0.1, 0))
    start = noisy
    if p < 1.0:
        start, _ = plm_solve(noisy, mesh, op,
                             SolverConfig(lam=lam, p=1.0, beta1=2.0, beta2=2.0),
                             u0=noisy)
    factorizations = []
    splu = admm.spla.splu
    monkeypatch.setattr(admm.spla, "splu",
                        lambda a: factorizations.append(a) or splu(a))
    config = SolverConfig(lam=lam, p=p, beta1=beta, beta2=beta)
    out, trace = plm_solve(noisy, mesh, op, config, u0=start)
    assert trace.converged
    # the penalties moved towards the balance by powers of two, and the one
    # factorization of each free-vertex set served every factor
    scales = trace.column("penalty_scale")
    assert (np.log2(scales) == np.round(np.log2(scales))).all()
    assert ((scales[-1] < 1.0) == (beta > 1.0)) and scales[-1] != 1.0
    assert len(factorizations) == len(set(trace.column("free_vertices")))
    tight = dataclasses.replace(config, beta1=2.0, beta2=2.0, inner_tol=1e-10,
                                inner_max_iter=20_000)
    reference, tight_trace = plm_solve(noisy, mesh, op, tight, u0=start)
    assert tight_trace.converged
    assert objective(out, noisy, op, config) == pytest.approx(
        objective(reference, noisy, op, config), rel=1e-6)


def _step_case(name, rng, scale=1.0):
    """(u_k, w, config, part, system, state) of one subproblem in the coordinates
    of its part, on icosphere(2): "gray" has full support, "rgb-pin" a pinned
    channel (weight +inf) at most free vertices.  The weights carry
    ``config.lam``, the multipliers are nonzero, the penalty factor is
    ``scale`` and the center is extrapolated, as ``plm_solve`` passes them
    on."""
    mesh = icosphere(2)
    op = build_gradient_operator(mesh)
    if name == "gray":
        f = rng.uniform(0, 1, size=(mesh.n_vertices, 1))
        support = np.ones(f.shape, dtype=bool)
    else:
        f, support = _reference_case("rgb-pinned-channel", mesh, rng)
    config = SolverConfig(lam=0.3, p=0.5, prox_weight=1.0, beta1=2.0,
                          beta2=2.0, inner_tol=1e-8, inner_max_iter=1000)
    part, system = prox_system(op, config, MeshImage(f), support)
    fitted = support[part.vertices]
    previous = part.f_free + rng.normal(scale=0.1, size=part.f_free.shape)
    current = part.f_free + rng.normal(scale=0.1, size=part.f_free.shape)
    u_k = current + 0.5 * (current - previous)
    u_k[~fitted] = part.f_free[~fitted]
    w = np.full(fitted.shape, np.inf)
    w[fitted] = config.lam * rng.uniform(0.5, 2.0, size=np.count_nonzero(fitted))
    state = (rng.normal(scale=0.1, size=part.f_free.shape),
             rng.normal(scale=0.1, size=(part.triangles.size, 3, f.shape[1])),
             scale)
    return u_k, w, config, part, system, state


def _out_of_place_admm(u_k, w, prox_weight, part, system, tol, max_iter, state):
    """The scaled ADMM loop written out of place, one new array per
    operation, with the y thresholds set only at the finite weights, the
    penalties, the threshold and the mixing weight computed again from the
    factor s at every step, the fixed part of the right-hand side computed
    here from the part, the group shrink's row norms from ``np.add.reduce``,
    one primal residual r_y over every value, and the dual residual measured
    at every step: the reference that ``admm_solve`` must equal bit for
    bit.  A part with no offset gets a zero one here, which it adds like any
    other."""
    f_free, offset, sub_op = part.f_free, part.offset, part.op
    if offset is None:
        offset = np.zeros((part.triangles.size, 3, f_free.shape[1]))
    fitted = np.isfinite(w)
    eta, mu, s = state
    # the scaled multipliers
    e, m = eta / (s * system.beta1), mu / (s * system.beta2)
    ratio = system.beta1 / system.beta2
    fixed = ratio * f_free - gradient.apply_adjoint(sub_op, offset)
    v = u_k
    grad_v = gradient.apply(sub_op, v) + offset
    primal_met = False
    iters, converged = max_iter, False
    for t in range(max_iter):
        beta1, beta2 = s * system.beta1, s * system.beta2
        y_threshold = np.full(f_free.shape, np.inf)
        y_threshold[fitted] = w[fitted] / (beta1 + prox_weight)
        mix = prox_weight / (beta1 + prox_weight)
        z_threshold = 1.0 / beta2
        x = v - f_free + e
        y = shrink_1d(x + mix * ((u_k - f_free) - x), y_threshold)
        a = grad_v + m
        flat = a.reshape(a.shape[0], -1)
        norms = np.sqrt(np.add.reduce(flat * flat, axis=1))
        z = a * (1.0 - z_threshold / np.maximum(norms, z_threshold))[:, None, None]
        rhs = (gradient.apply_adjoint(sub_op, z - m) + ratio * (y - e) + fixed)
        v_new = solve_normal_equation(system, system.beta2 * rhs)
        grad_new = gradient.apply(sub_op, v_new) + offset
        dual = [np.linalg.norm(v_new - v), np.linalg.norm(grad_new - grad_v)]
        v, grad_v = v_new, grad_new
        r_y = v - f_free - y
        r_z = grad_v - z
        e = e + r_y
        m = m + r_z
        primal = [np.linalg.norm(r) for r in (r_y, r_z)]
        balance = (t + 1) % admm.BALANCE_EVERY == 0
        # the dual rule is read at a balancing step and after a step that
        # met the primal rule
        dual_read = balance or primal_met
        primal_met = max(primal) / np.sqrt(part.size) < tol
        if primal_met and dual_read and max(dual) / np.sqrt(part.size) < tol:
            iters, converged = t + 1, True
            break
        if balance:
            # normalized residuals; s moves by the factor towards their
            # balance, and the scaled multipliers by its inverse
            primal_size = max(_norm(v, grad_v), _norm(y, z), _norm(f_free))
            r = np.hypot(*primal) / primal_size
            d = (np.hypot(beta1 * dual[0], beta2 * dual[1])
                 / _norm(beta1 * e, beta2 * m))
            if r > admm.BALANCE_RATIO * d:
                s, e, m = (s * admm.BALANCE_FACTOR, e / admm.BALANCE_FACTOR,
                           m / admm.BALANCE_FACTOR)
            elif d > admm.BALANCE_RATIO * r:
                s, e, m = (s / admm.BALANCE_FACTOR, e * admm.BALANCE_FACTOR,
                           m * admm.BALANCE_FACTOR)
    v[~fitted] = f_free[~fitted]
    return v, iters, converged, (s * system.beta1 * e, s * system.beta2 * m, s)


def _norm(*arrays):
    """The Euclidean norm of the arrays as one vector."""
    return np.linalg.norm(np.concatenate([a.ravel() for a in arrays]))


@pytest.mark.parametrize("name", ["gray", "rgb-pin"])
def test_admm_solve_leaves_its_inputs_alone(name, rng):
    # plm_solve solves a rejected or redone step again from the same state
    u_k, w, config, part, system, state = _step_case(name, rng)
    inputs = (u_k, w) + state[:2]
    kept = [a.copy() for a in inputs]
    first = admm_solve(u_k, w, config.prox_weight, part, system,
                       config.inner_tol, config.inner_max_iter, state)
    assert all(np.array_equal(a, b) for a, b in zip(inputs, kept))
    second = admm_solve(u_k, w, config.prox_weight, part, system,
                        config.inner_tol, config.inner_max_iter, state)
    assert first[1:3] == second[1:3] and first[3][2] == second[3][2]
    for a, b in zip((first[0],) + first[3][:2], (second[0],) + second[3][:2]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("name", ["gray", "rgb-pin"], ids=["gray-lu", "rgb-pin-lu"])
def test_admm_solve_equals_the_out_of_place_loop_bit_for_bit(name, rng):
    # the pinned case starts from a factor that an earlier solve left
    start = 1.0 if name == "gray" else 4.0
    u_k, w, config, part, system, state = _step_case(name, rng, start)
    assert np.isinf(w).any() == (name == "rgb-pin")
    v, iters, converged, (eta, mu, scale) = admm_solve(
        u_k, w, config.prox_weight, part, system, config.inner_tol,
        config.inner_max_iter, state)
    ref_v, ref_iters, ref_converged, (ref_eta, ref_mu, ref_scale) = (
        _out_of_place_admm(u_k, w, config.prox_weight, part, system,
                           config.inner_tol, config.inner_max_iter, state))
    assert (iters, converged, scale) == (ref_iters, ref_converged, ref_scale)
    # the solve balanced at least once, and moved its factor
    assert iters > admm.BALANCE_EVERY and scale != start
    assert np.array_equal(v, ref_v)
    assert np.array_equal(eta, ref_eta) and np.array_equal(mu, ref_mu)


def test_each_traced_step_function_is_called_once_per_step(monkeypatch, rng):
    # the benchmark's trace splits a step at these module attributes
    mesh = icosphere(2)
    op = build_gradient_operator(mesh)
    f = rng.uniform(0, 1, size=(mesh.n_vertices, 1))
    config = SolverConfig(lam=0.5, p=1.0, beta1=2.0, beta2=2.0,
                          inner_tol=1e-8, inner_max_iter=2000)
    whole = restrict(op, np.arange(mesh.n_vertices), f)
    system = NormalEquationSystem(assemble_gram(op), config.beta1, config.beta2)
    calls = dict.fromkeys(["shrink_1d", "_shrink_groups", "solve_normal_equation",
                           "apply", "apply_adjoint"], 0)

    def counting(module, attr):
        original = getattr(module, attr)

        def counted(*args):
            calls[attr] += 1
            return original(*args)
        monkeypatch.setattr(module, attr, counted)

    for attr in ("shrink_1d", "_shrink_groups", "solve_normal_equation"):
        counting(admm, attr)
    for attr in ("apply", "apply_adjoint"):
        counting(gradient, attr)
    _, n, converged, _ = admm_solve(f, np.full(f.shape, config.lam), 0.0, whole,
                                    system, config.inner_tol,
                                    config.inner_max_iter)
    assert converged and n > 1
    assert calls == {"shrink_1d": n, "_shrink_groups": n,
                     "solve_normal_equation": n, "apply": n + 1,
                     "apply_adjoint": n}
