import dataclasses

import numpy as np
import pytest

from conftest import admm_full_size, prox_system
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
from meshtv.errors import DimensionMismatch
from meshtv.gradient import assemble_gram, build_gradient_operator
from meshtv.imaging import MeshImage
from meshtv.lptv import objective, plm_solve
from meshtv.synthetic import icosphere

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
    system = prox_system(op, TINY_CONFIG, f, np.ones(f.values.shape, dtype=bool))
    with pytest.raises(DimensionMismatch):
        admm_solve(f.values, np.ones(f.values.size), TINY_CONFIG, system)
    # so is a center of the wrong shape
    with pytest.raises(DimensionMismatch):
        admm_solve(f.values[:, :1], np.ones(f.values.shape), TINY_CONFIG, system)


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
    system = prox_system(op, TINY_CONFIG, f, support)
    a, it_a, _, _ = admm_full_size(f, u_k, support, np.ones(2), op, TINY_CONFIG, system)
    b, it_b, _, _ = admm_full_size(f, u_k, support, np.ones(2), op, TINY_CONFIG, system)
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
    system = prox_system(op, matching, f, support)
    a, it_a, ok_a, _ = admm_full_size(f, f, support, w, op, matching, system)
    b, it_b, ok_b, _ = admm_full_size(f, f, support, w, op, other, system)
    assert (it_a, ok_a) == (it_b, ok_b)
    assert np.array_equal(a.values, b.values)


def test_restart_from_returned_duals_is_shorter(rng):
    # the duals a converged solve returns are the subproblem's multipliers:
    # starting from them again reaches the same point in fewer steps
    mesh = icosphere(2)
    op = build_gradient_operator(mesh)
    f = MeshImage(rng.uniform(0, 1, size=mesh.n_vertices))
    support = rng.uniform(size=(mesh.n_vertices, 1)) < 0.3
    w = rng.uniform(0.5, 2.0, size=np.count_nonzero(support))
    config = SolverConfig(lam=0.2, p=0.5, prox_weight=1.0, beta1=2.0,
                          beta2=2.0, inner_tol=1e-8, inner_max_iter=5000)
    system = prox_system(op, config, f, support)
    cold, it_cold, ok_cold, duals = admm_full_size(f, f, support, w, op, config,
                                                   system)
    kept = [d.copy() for d in duals]
    warm, it_warm, ok_warm, _ = admm_full_size(f, f, support, w, op, config,
                                               system, duals)
    assert ok_cold and ok_warm
    assert it_warm < it_cold
    # the inputs are left as they were, so a caller can start from them twice
    assert all(np.array_equal(a, b) for a, b in zip(duals, kept))
    # the stopping rule bounds residual norms over sqrt(size); so does this
    rms = np.linalg.norm(warm.values - cold.values) / np.sqrt(f.values.size)
    assert rms < config.inner_tol


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
                  np.zeros((mesh.n_triangles, 3, 1)))
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
    # with every vertex free nothing is pinned: the offset and the constants
    # are zero without applying the operator to an all-zero image
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
    assert whole.offset.shape == (op.n_triangles, 3, 3) and not whole.offset.any()
    assert (whole.pinned_tv, whole.pinned_sq, whole.size) == (0.0, 0.0, data.size)
    # one pinned vertex: its offset needs one application
    restrict(op, np.arange(1, mesh.n_vertices), data)
    assert len(calls) == 1


def test_full_support_prox_free_subproblem_is_l1tv(rng):
    # the proximal weight comes from the system, not from config.prox_weight
    mesh = icosphere(1)
    op = build_gradient_operator(mesh)
    f = MeshImage(rng.uniform(0, 1, size=mesh.n_vertices))
    config = SolverConfig(lam=0.5, p=1.0, prox_weight=1.0, beta1=2.0, beta2=2.0,
                          inner_tol=1e-8, inner_max_iter=20_000)
    support = np.ones((mesh.n_vertices, 1), dtype=bool)
    whole = restrict(op, np.arange(mesh.n_vertices), f.values)
    system = NormalEquationSystem(assemble_gram(op), config.beta1, config.beta2,
                                  0.0, whole)
    out, _, converged, _ = admm_full_size(f, f, support, np.ones(mesh.n_vertices),
                                          op, config, system=system)
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


def _step_case(name, rng):
    """(u_k, w, config, system, duals) of one subproblem in the coordinates
    of its part, on icosphere(2): "gray" has full support, "rgb-pin" a pinned
    channel (weight +inf) at most free vertices.  The duals are nonzero and
    the center is extrapolated, as ``plm_solve`` passes them on."""
    mesh = icosphere(2)
    op = build_gradient_operator(mesh)
    if name == "gray":
        f = rng.uniform(0, 1, size=(mesh.n_vertices, 1))
        support = np.ones(f.shape, dtype=bool)
    else:
        f, support = _reference_case("rgb-pinned-channel", mesh, rng)
    config = SolverConfig(lam=0.3, p=0.5, prox_weight=1.0, beta1=2.0,
                          beta2=2.0, inner_tol=1e-8, inner_max_iter=1000)
    system = prox_system(op, config, MeshImage(f), support)
    part = system.part
    fitted = support[part.vertices]
    previous = part.f_free + rng.normal(scale=0.1, size=part.f_free.shape)
    current = part.f_free + rng.normal(scale=0.1, size=part.f_free.shape)
    u_k = current + 0.5 * (current - previous)
    u_k[~fitted] = part.f_free[~fitted]
    w = np.full(fitted.shape, np.inf)
    w[fitted] = rng.uniform(0.5, 2.0, size=np.count_nonzero(fitted))
    duals = (rng.normal(scale=0.1, size=part.f_free.shape),
             rng.normal(scale=0.1, size=part.offset.shape))
    return u_k, w, config, system, duals


def _out_of_place_admm(u_k, w, config, system, duals):
    """The ADMM loop written out of place, one new array per operation, with
    the y thresholds set only at the finite weights and the group shrink's
    row norms from ``np.add.reduce``: the reference that ``admm_solve`` must
    equal bit for bit."""
    part = system.part
    f_free, offset, sub_op = part.f_free, part.offset, part.op
    fitted = np.isfinite(w)
    unfitted = ~fitted if not fitted.all() else None
    eta, mu = duals
    beta1, beta2 = system.beta1, system.beta2
    y_threshold = np.full(f_free.shape, np.inf)
    y_threshold[fitted] = config.lam * w[fitted] / beta1
    z_threshold = 1.0 / beta2
    rhs_fixed = (beta1 * f_free + system.prox_weight * u_k
                 - beta2 * gradient.apply_adjoint(sub_op, offset))
    v = u_k
    grad_v = gradient.apply(sub_op, v) + offset
    iters, converged = config.inner_max_iter, False
    for t in range(config.inner_max_iter):
        y = shrink_1d(v - f_free + eta / beta1, y_threshold)
        a = grad_v + mu / beta2
        flat = a.reshape(a.shape[0], -1)
        norms = np.sqrt(np.add.reduce(flat * flat, axis=1))
        z = a * (1.0 - z_threshold / np.maximum(norms, z_threshold))[:, None, None]
        rhs = (gradient.apply_adjoint(sub_op, beta2 * z - mu) + beta1 * y - eta
               + rhs_fixed)
        v = solve_normal_equation(system, rhs)
        grad_v = gradient.apply(sub_op, v) + offset
        r_y = v - f_free - y
        r_z = grad_v - z
        eta = eta + beta1 * r_y
        mu = mu + beta2 * r_z
        if unfitted is None:
            residuals = (r_y, r_z)
        else:
            residuals = (r_y[fitted], r_y[unfitted], r_z)
        largest = max(np.linalg.norm(r) for r in residuals)
        if largest / np.sqrt(part.size) < config.inner_tol:
            iters, converged = t + 1, True
            break
    if unfitted is not None:
        v[unfitted] = f_free[unfitted]
    return v, iters, converged, (eta, mu)


@pytest.mark.parametrize("name", ["gray", "rgb-pin"])
def test_admm_solve_leaves_its_inputs_alone(name, rng):
    # plm_solve solves a rejected or redone step again from the same duals
    u_k, w, config, system, duals = _step_case(name, rng)
    inputs = (u_k, w) + duals
    kept = [a.copy() for a in inputs]
    first = admm_solve(u_k, w, config, system, duals)
    assert all(np.array_equal(a, b) for a, b in zip(inputs, kept))
    second = admm_solve(u_k, w, config, system, duals)
    assert first[1:3] == second[1:3]
    for a, b in zip((first[0],) + first[3], (second[0],) + second[3]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("path", ["lu", "cg"])
@pytest.mark.parametrize("name", ["gray", "rgb-pin"])
def test_admm_solve_equals_the_out_of_place_loop_bit_for_bit(name, path,
                                                             monkeypatch, rng):
    if path == "cg":
        monkeypatch.setattr(admm, "DIRECT_SOLVE_MAX_VERTICES", 0)
    u_k, w, config, system, duals = _step_case(name, rng)
    assert (system._lu is None) == (path == "cg")
    assert np.isinf(w).any() == (name == "rgb-pin")
    v, iters, converged, (eta, mu) = admm_solve(u_k, w, config, system, duals)
    ref_v, ref_iters, ref_converged, (ref_eta, ref_mu) = _out_of_place_admm(
        u_k, w, config, system, duals)
    assert (iters, converged) == (ref_iters, ref_converged)
    assert iters > 1
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
    system = NormalEquationSystem(assemble_gram(op), config.beta1, config.beta2,
                                  0.0, whole)
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
    _, n, converged, _ = admm_solve(f, np.ones(f.shape), config, system)
    assert converged and n > 1
    assert calls == {"shrink_1d": n, "_shrink_groups": n,
                     "solve_normal_equation": n, "apply": n + 1,
                     "apply_adjoint": n + 1}
