import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import smallest_nonzero_residual
from meshtv import admm, lptv
from meshtv.config import SolverConfig
from meshtv.errors import (
    DimensionMismatch,
    IterationLimitExceeded,
    NaNInput,
    SupportGrew,
    ZeroResidualInSupport,
)
from meshtv.gradient import build_gradient_operator
from meshtv.imaging import MeshImage, NoiseSpec, add_salt_pepper
from meshtv.lptv import (
    SolverTrace,
    TraceRecord,
    objective,
    plm_solve,
    support_eps,
    weights,
)
from meshtv.mesh import TriangleMesh
from meshtv.synthetic import icosphere, two_patch_image

PLM_CONFIG = SolverConfig(
    lam=0.1, p=0.5, beta1=2.0, beta2=2.0, inner_tol=1e-8, inner_max_iter=4000
)


def test_objective_zero_for_flat_exact_fit(right_triangle_mesh):
    op = build_gradient_operator(right_triangle_mesh)
    img = MeshImage(np.full(3, 0.4))
    assert objective(img, img, op, SolverConfig(lam=1.0, p=0.5)) == 0.0


def test_objective_hand_computed(right_triangle_mesh):
    op = build_gradient_operator(right_triangle_mesh)
    u = MeshImage(np.array([1.0, 0.0, 0.0]))
    f = MeshImage(np.zeros(3))
    value = objective(u, f, op, SolverConfig(lam=1.0, p=0.5))
    # data term 1, TV term 0.5 * ||(-1, -1, 0)|| = sqrt(2)/2
    assert value == pytest.approx(1.0 + 0.5 * math.sqrt(2.0), rel=1e-12)


def test_objective_linear_in_lambda(right_triangle_mesh):
    op = build_gradient_operator(right_triangle_mesh)
    u = MeshImage(np.array([1.0, 0.0, 0.0]))
    f = MeshImage(np.zeros(3))
    base = objective(u, f, op, SolverConfig(lam=1.0, p=0.5))
    doubled = objective(u, f, op, SolverConfig(lam=2.0, p=0.5))
    tv = 0.5 * math.sqrt(2.0)
    assert doubled - tv == pytest.approx(2.0 * (base - tv), rel=1e-12)


def test_support_eps_empty_when_equal():
    img = np.linspace(0, 1, 7)[:, None]
    assert not support_eps(img, img, 1e-3).any()


def test_support_eps_strict_inequality():
    f = np.array([[0.0], [0.98], [0.5]])
    u = np.array([[0.0], [0.96], [0.5]])
    support = support_eps(u, f, 0.004)
    assert support.shape == f.shape
    assert support[:, 0].tolist() == [False, True, False]
    # residual exactly eps is excluded
    u2 = np.array([[0.004], [0.98], [0.5]])
    assert not support_eps(u2, f, 0.004)[0, 0]


def test_support_eps_color_vertex_view():
    f = np.zeros((3, 3))
    vals = np.zeros((3, 3))
    vals[1, 2] = 0.5
    support = support_eps(vals, f, 1e-3)
    assert np.argwhere(support).tolist() == [[1, 2]]  # (vertex 1, channel 2)
    assert support.any(axis=1).tolist() == [False, True, False]


def test_weights_examples():
    f = np.zeros((3, 1))
    u = np.array([[4.0], [1.0], [0.0]])
    support = np.array([[True], [True], [False]])
    # one weight per value: the linearization weight on the support, a pin
    # (+inf) off it, even where the residual is zero
    w = weights(u, f, support, 0.5)
    assert w.shape == u.shape
    assert w[0, 0] == pytest.approx(0.25) and w[2, 0] == np.inf
    w9 = weights(u, f, support, 0.9)
    assert w9[1, 0] == pytest.approx(0.9) and w9[2, 0] == np.inf
    assert np.array_equal(weights(u, f, support, 1.0), [[1.0], [1.0], [np.inf]])


def test_weights_zero_residual_raises():
    f = np.zeros((2, 1))
    u = np.array([[0.0], [1.0]])
    support = np.ones((2, 1), dtype=bool)
    with pytest.raises(ZeroResidualInSupport):
        weights(u, f, support, 0.5)


@given(st.floats(0.01, 0.99), st.floats(-10.0, 10.0), st.floats(1e-3, 10.0))
@settings(max_examples=300, deadline=None)
def test_majorization_inequality(p, t, r):
    # |t|^p <= w|t| + (|r|^p - w|r|) with w = p |r|^(p-1), for |r| >= eps
    w = p * r ** (p - 1.0)
    lhs = abs(t) ** p
    rhs = w * abs(t) + (r**p - w * r)
    assert lhs <= rhs + 1e-12


def test_plm_with_exact_start_returns_data():
    mesh = icosphere(1)
    op = build_gradient_operator(mesh)
    f = two_patch_image(mesh)
    out, trace = plm_solve(f, mesh, op, PLM_CONFIG, u0=f.copy())
    assert len(trace) == 1
    assert trace.records[0].support_size == 0
    assert np.array_equal(out.values, f.values)
    assert trace.converged


def _denoise_run(p=0.5, seed=0, level=0.10):
    mesh = icosphere(2)
    op = build_gradient_operator(mesh)
    clean = two_patch_image(mesh)
    noisy = add_salt_pepper(clean, NoiseSpec(level, seed))
    l1_config = SolverConfig(lam=0.15, p=1.0, beta1=2.0, beta2=2.0,
                             inner_tol=1e-8, inner_max_iter=6000)
    warm, _ = plm_solve(noisy, mesh, op, l1_config, u0=noisy)
    config = SolverConfig(lam=0.15, p=p, beta1=2.0, beta2=2.0,
                          inner_tol=1e-8, inner_max_iter=6000)
    restored, trace = plm_solve(noisy, mesh, op, config, u0=warm)
    return mesh, op, noisy, warm, restored, trace, config


def test_plm_denoise_invariants():
    mesh, op, noisy, warm, restored, trace, config = _denoise_run()
    assert trace.converged
    # monotone decrease with inexact-inner slack
    f0 = objective(warm, noisy, op, config)
    slack_floor = -1e-6 * max(1.0, f0)
    assert trace.column("decrease_slack").min() >= slack_floor
    # support nesting and stabilization
    sizes = trace.column("support_size")
    assert np.all(np.diff(sizes) <= 0)
    assert len(set(sizes[-min(5, len(sizes)):])) == 1
    # separation: every nonzero residual stays above the support threshold
    assert smallest_nonzero_residual(restored, noisy) > config.eps_support
    # boundedness on the [0, 1] problem scale
    assert np.abs(restored.values).max() <= 10.0


def test_plm_pinned_values_bit_exact():
    mesh, op, noisy, warm, restored, trace, config = _denoise_run(p=0.1, seed=3)
    residual = np.abs(restored.values - noisy.values)
    pinned = residual[:, 0] == 0.0
    assert pinned.any()
    assert np.array_equal(restored.values[pinned], noisy.values[pinned])


def test_plm_color_denoise():
    mesh = icosphere(2)
    op = build_gradient_operator(mesh)
    base = two_patch_image(mesh).values[:, 0]
    rgb = np.column_stack([base, 1.0 - base, np.full(mesh.n_vertices, 0.5)])
    clean = MeshImage(rgb)
    noisy = add_salt_pepper(clean, NoiseSpec(0.1, 2))
    cfg1 = SolverConfig(lam=0.15, p=1.0, beta1=2.0, beta2=2.0,
                        inner_tol=1e-7, inner_max_iter=8000)
    warm, _ = plm_solve(noisy, mesh, op, cfg1, u0=noisy)
    cfg = SolverConfig(lam=0.15, p=0.1, beta1=2.0, beta2=2.0,
                       inner_tol=1e-7, inner_max_iter=8000)
    restored, trace = plm_solve(noisy, mesh, op, cfg, u0=warm)
    assert trace.converged
    from meshtv.imaging import clamp_to_unit, psnr

    assert psnr(clamp_to_unit(restored), clean) > psnr(noisy, clean) + 5.0
    # support bookkeeping runs over (vertex, channel) entries
    sizes = trace.column("support_size")
    assert sizes[0] <= 3 * mesh.n_vertices
    assert np.all(np.diff(sizes) <= 0)


def test_plm_p_one_is_single_l1tv_solve():
    mesh = icosphere(1)
    op = build_gradient_operator(mesh)
    clean = two_patch_image(mesh)
    noisy = add_salt_pepper(clean, NoiseSpec(0.2, 5))
    config = SolverConfig(lam=0.2, p=1.0, beta1=2.0, beta2=2.0,
                          inner_tol=1e-8, inner_max_iter=6000)
    out, trace = plm_solve(noisy, mesh, op, config, u0=noisy)
    assert len(trace) == 1
    from meshtv.admm import NormalEquationSystem, _l1tv_solve_full, restrict
    from meshtv.gradient import assemble_gram

    whole = restrict(op, np.arange(mesh.n_vertices), noisy.values)
    system = NormalEquationSystem(assemble_gram(op), config.beta1, config.beta2,
                                  0.0, whole)
    direct = _l1tv_solve_full(noisy.values, config, system)[0]
    assert np.array_equal(out.values, direct)


def _spy_on_admm(monkeypatch, f):
    """Record (inner_tol, duals in, duals out, center, result, part) of every
    inner solve.  The center is in the coordinates of the solve's part; the
    result is the whole image, scattered into the data ``f`` through
    ``system.part.vertices``."""
    calls = []
    original = lptv.admm_solve

    def spy(u_k, w, config, system, duals=None):
        result = original(u_k, w, config, system, duals)
        whole = f.values.copy()
        whole[system.part.vertices] = result[0]
        calls.append((config.inner_tol, duals, result[3], u_k.copy(), whole,
                      system.part))
        return result

    monkeypatch.setattr(lptv, "admm_solve", spy)
    return calls


def _calls_by_step(calls, trace):
    """Split the spied calls into one list per outer step: the first solve,
    a re-solve after a rejected extrapolation, then a floor redo."""
    counts = (1 + trace.column("rejected_extrapolations")
              + trace.column("inner_redos"))
    assert len(calls) == counts.sum()
    bounds = np.concatenate([[0], np.cumsum(counts)])
    return [calls[a:b] for a, b in zip(bounds, bounds[1:])]


def test_plm_passes_each_steps_duals_to_the_next(monkeypatch):
    mesh, op, noisy, warm, _, _, config = _denoise_run()
    calls = _spy_on_admm(monkeypatch, noisy)
    _, trace = plm_solve(noisy, mesh, op, config, u0=warm)
    assert trace.converged
    assert trace.column("inner_redos").sum() == 0
    assert len(calls) == (len(trace) + trace.column("rejected_extrapolations").sum()
                          + trace.column("inner_redos").sum()) > 2
    assert calls[0][1] is None
    steps = _calls_by_step(calls, trace)
    shrinks = 0
    # every solve of a step starts from the duals the previous step kept,
    # sliced to the step's part when the free vertices shrank
    for kept, following in zip(steps, steps[1:]):
        eta, mu = kept[-1][2]
        before = kept[-1][5]
        for _, received, _, _, _, part in following:
            if part is before:
                assert received is kept[-1][2]
                continue
            shrinks += 1
            whole_eta = np.zeros(noisy.values.shape)
            whole_mu = np.zeros((op.n_triangles,) + mu.shape[1:])
            whole_eta[before.vertices], whole_mu[before.triangles] = eta, mu
            assert np.array_equal(received[0], whole_eta[part.vertices])
            assert np.array_equal(received[1], whole_mu[part.triangles])
    assert shrinks > 0


def test_plm_extrapolates_the_center_and_keeps_only_a_decrease(monkeypatch):
    mesh, op, noisy, warm, _, _, config = _denoise_run()
    calls = _spy_on_admm(monkeypatch, noisy)
    _, trace = plm_solve(noisy, mesh, op, config, u0=warm)
    assert trace.converged and trace.column("inner_converged").all()
    steps = _calls_by_step(calls, trace)
    rejected = trace.column("rejected_extrapolations")
    assert 0 < rejected.sum() < len(trace) - 1
    iterates = [warm.values] + [step[-1][4] for step in steps]
    for k, (step, record) in enumerate(zip(steps, trace.records)):
        part = step[0][5]
        rows = part.vertices
        u, center = iterates[k], step[0][3]
        if k == 0:
            assert np.array_equal(center, u[rows])
            continue
        pinned = (np.abs(u - noisy.values) <= config.eps_support)[rows]
        expected = (u + lptv.EXTRAPOLATION * (u - iterates[k - 1]))[rows]
        assert np.array_equal(center[~pinned], expected[~pinned])
        assert np.array_equal(center[pinned], noisy.values[rows][pinned])
        # the slack of the extrapolated solve, measured against u^k: the
        # part's objective, and the gap on the part plus the jump of the
        # values the step pinned
        out = step[0][4][rows]
        newly_pinned = np.setdiff1d(steps[k - 1][-1][5].vertices, rows)
        jump = (u - noisy.values)[newly_pinned]
        diff = out - u[rows]
        gap = math.sqrt(float(np.vdot(diff, diff)) + float(np.vdot(jump, jump)))
        f_next = lptv._objective_raw(out, part, config.lam, config.p)
        slack = (record.objective - f_next
                 - 0.5 * config.prox_weight * gap ** 2)
        assert record.rejected_extrapolations == int(slack < 0.0)
        if record.rejected_extrapolations:
            # re-solved around u^k from the same starting duals
            assert np.array_equal(step[1][3], u[rows])
            assert step[1][1] is step[0][1]
        else:
            assert slack >= 0.0
            assert record.decrease_slack == slack


@pytest.mark.parametrize("color", [False, True], ids=["gray", "rgb"])
def test_iterate_gap_is_the_whole_image_step(color, monkeypatch):
    # the gap on the part plus the jump of the values a step pins is the
    # whole-image ||u^{k+1} - u^k||: at the first step, which pins every
    # value outside the support, and at later steps that pin values.  A wide
    # eps_support, and a start whose pinned values sit eps/2 off the data,
    # make the jumps a visible share of the gap.
    mesh, op, noisy, warm, _, _, config = _denoise_run()
    config = dataclasses.replace(config, eps_support=0.1)
    if color:
        # 20% noise, seed 1: also pins channels at vertices that stay free
        noisy = add_salt_pepper(_rgb_image(mesh), NoiseSpec(0.2, 1))
        warm, _ = plm_solve(noisy, mesh, op, dataclasses.replace(config, p=1.0),
                            u0=noisy)
    near = np.abs(warm.values - noisy.values) <= config.eps_support
    offsets = np.random.default_rng(0).choice([-0.5, 0.5], size=near.shape)
    start = np.where(near, noisy.values + offsets * config.eps_support,
                     warm.values)
    calls = _spy_on_admm(monkeypatch, noisy)
    restored, trace = plm_solve(noisy, mesh, op, config, u0=MeshImage(start))
    assert trace.converged
    assert (np.diff(trace.column("support_size")) < 0).any()
    steps = _calls_by_step(calls, trace)
    iterates = [start] + [step[-1][4] for step in steps]
    assert np.array_equal(iterates[-1], restored.values)
    for k, record in enumerate(trace.records):
        assert record.iterate_gap == pytest.approx(
            np.linalg.norm(iterates[k + 1] - iterates[k]), rel=1e-12, abs=0.0)


def test_plm_redoes_a_step_below_the_floor_from_the_same_duals(monkeypatch):
    # icosphere k=1, 10% noise, seed 0, lam 0.3, beta 2: one Lp-TV step
    # lands below the decrease floor at the default inner tolerance
    mesh = icosphere(1)
    op = build_gradient_operator(mesh)
    noisy = add_salt_pepper(two_patch_image(mesh), NoiseSpec(0.10, 0))
    config = SolverConfig(lam=0.3, p=1.0, beta1=2.0, beta2=2.0,
                          inner_max_iter=4000)
    warm, _ = plm_solve(noisy, mesh, op, config, u0=noisy)
    config = dataclasses.replace(config, p=0.5)
    calls = _spy_on_admm(monkeypatch, noisy)
    _, trace = plm_solve(noisy, mesh, op, config, u0=warm)
    redos = trace.column("inner_redos")
    assert redos.sum() == 1 and len(calls) == (
        len(trace) + trace.column("rejected_extrapolations").sum() + redos.sum())
    # the redo is the last solve of its step, the solve it repeats the one before
    first, redo = _calls_by_step(calls, trace)[int(np.argmax(redos))][-2:]
    assert first[0] == config.inner_tol
    assert redo[0] == config.inner_tol / 100.0
    assert redo[1] is first[1]
    floor = -1e-6 * max(1.0, trace.records[0].objective)  # criterion 4
    assert trace.column("decrease_slack").min() >= floor
    assert trace.converged


def test_plm_not_converged_when_the_decrease_guarantee_fails(caplog, monkeypatch):
    # lam 1e-6 with tiny penalties: every inner solve stops at inner_max_iter
    # and the outer steps raise the objective; the outer iterates still
    # settle below outer_tol
    mesh = icosphere(2)
    op = build_gradient_operator(mesh)
    noisy = add_salt_pepper(two_patch_image(mesh), NoiseSpec(0.10, 0))
    config = SolverConfig(lam=1e-6, p=1.0, beta1=2e-5, beta2=2e-5,
                          outer_max_iter=100)
    warm, _ = plm_solve(noisy, mesh, op, config, u0=noisy)
    config = dataclasses.replace(config, p=0.5)
    calls = _spy_on_admm(monkeypatch, noisy)
    with caplog.at_level(logging.WARNING, logger="meshtv.lptv"):
        _, trace = plm_solve(noisy, mesh, op, config, u0=warm)
    floor = -1e-6 * max(1.0, trace.records[0].objective)  # criterion 4
    assert trace.column("decrease_slack").min() < floor
    assert not trace.converged
    assert any("below the floor" in message for message in caplog.messages)
    # no step follows a converged inner solve, so none is extrapolated: each
    # solve is centered at the iterate the previous one returned
    assert not trace.column("inner_converged").any()
    assert trace.column("rejected_extrapolations").sum() == 0
    assert len(calls) == len(trace)
    for call, u in zip(calls, [warm.values] + [call[4] for call in calls]):
        assert np.array_equal(call[3], u[call[5].vertices])


def test_plm_builds_one_system_per_free_vertex_set(monkeypatch):
    mesh = icosphere(3)
    op = build_gradient_operator(mesh)
    noisy = add_salt_pepper(two_patch_image(mesh), NoiseSpec(0.10, 0))
    config = SolverConfig(lam=0.15, p=1.0, beta1=2.0, beta2=2.0)
    warm, _ = plm_solve(noisy, mesh, op, config, u0=noisy)
    config = dataclasses.replace(config, p=0.5)

    # systems built and supports taken, in the order they happen
    events = []
    original_init = admm.NormalEquationSystem.__init__
    original_support = lptv.support_eps

    def spy_init(self, gram, *args, **kwargs):
        original_init(self, gram, *args, **kwargs)
        events.append(self)

    def spy_support(u, f, eps):
        events.append(original_support(u, f, eps))
        return events[-1]

    monkeypatch.setattr(admm.NormalEquationSystem, "__init__", spy_init)
    monkeypatch.setattr(lptv, "support_eps", spy_support)
    _, trace = plm_solve(noisy, mesh, op, config, u0=warm)
    assert trace.converged
    # a support is taken on the rows of the last system built before it,
    # the first one on every vertex
    built = [e for e in events if isinstance(e, admm.NormalEquationSystem)]
    rows, supports = np.arange(mesh.n_vertices), []
    for event in events:
        if isinstance(event, admm.NormalEquationSystem):
            rows = event.part.vertices
        else:
            whole = np.zeros(noisy.values.shape, dtype=bool)
            whole[rows] = event
            supports.append(whole)
    free_sets = []
    for support in supports:
        free = np.flatnonzero(support.any(axis=1))
        if not free_sets or not np.array_equal(free, free_sets[-1]):
            free_sets.append(free)
    assert 1 < len(free_sets) < len(trace)
    assert len(built) == len(free_sets)
    for system, free in zip(built, free_sets):
        assert system.n == free.size
        assert np.array_equal(system.part.vertices, free)
    assert np.array_equal(trace.column("free_vertices"),
                          [np.count_nonzero(s.any(axis=1)) for s in supports])

    # a start that fits the data leaves nothing free and builds nothing
    events.clear()
    out, trace = plm_solve(noisy, mesh, op, config, u0=noisy)
    assert not any(isinstance(e, admm.NormalEquationSystem) for e in events)
    assert np.array_equal(out.values, noisy.values)
    assert trace.column("free_vertices").tolist() == [0]


def _two_spheres():
    sphere = icosphere(2)
    return TriangleMesh(
        np.vstack([sphere.vertices, sphere.vertices + [3.0, 0.0, 0.0]]),
        np.vstack([sphere.triangles, sphere.triangles + sphere.n_vertices]))


def _bowtie():
    # two spheres touching at one shared vertex: sphere vertex 3 is the
    # antipode of vertex 0, so the copy moved by 2 * v0 meets the first
    # sphere only at v0, and its vertex 3 becomes vertex 0
    sphere = icosphere(2)
    n = sphere.n_vertices
    rest = np.delete(np.arange(n), 3)
    index = np.empty(n, dtype=np.int64)
    index[3], index[rest] = 0, n + np.arange(n - 1)
    return TriangleMesh(
        np.vstack([sphere.vertices, sphere.vertices[rest] + 2.0 * sphere.vertices[0]]),
        np.vstack([sphere.triangles, index[sphere.triangles]]))


def _fin():
    # one more triangle on an existing edge, which then has three triangles
    sphere = icosphere(2)
    a, b = sphere.triangles[0, :2]
    tip = 0.75 * (sphere.vertices[a] + sphere.vertices[b])
    return TriangleMesh(np.vstack([sphere.vertices, tip]),
                        np.vstack([sphere.triangles, [a, b, sphere.n_vertices]]))


def _rgb_image(mesh):
    base = two_patch_image(mesh).values[:, 0]
    return MeshImage(np.column_stack([base, 1.0 - base,
                                      np.full(mesh.n_vertices, 0.5)]))


@pytest.mark.parametrize("make_mesh, make_image, level, lam", [
    (lambda: icosphere(2), two_patch_image, 0.0, 0.15),
    (lambda: icosphere(2), two_patch_image, 1.0, 0.15),
    (lambda: icosphere(2), _rgb_image, 0.3, 0.15),
    (lambda: icosphere(2), _rgb_image, 1.0, 0.15),
    (_two_spheres, two_patch_image, 0.1, 0.15),
    (_bowtie, two_patch_image, 0.1, 0.15),
    (_fin, two_patch_image, 0.1, 0.15),
    (lambda: icosphere(2), two_patch_image, 0.1, 1e4),
], ids=["gray-0%", "gray-100%", "rgb-30%", "rgb-100%", "two-spheres-10%",
        "bowtie-10%", "fin-10%", "lam-1e4"])
def test_plm_edge_cases_keep_the_run_time_guarantees(make_mesh, make_image,
                                                     level, lam):
    mesh = make_mesh()
    noisy = add_salt_pepper(make_image(mesh), NoiseSpec(level, 0))
    _assert_run_time_guarantees(noisy, *_warm_then_lptv(mesh, noisy, lam))


def test_l1tv_that_moves_no_value_warns_that_lam_is_too_large(caplog):
    # with lam 1e4 the fidelity dominates: L1-TV returns the data to within
    # eps_support everywhere, and the Lp-TV solve has no free vertex
    mesh = icosphere(2)
    noisy = add_salt_pepper(two_patch_image(mesh), NoiseSpec(0.1, 0))
    with caplog.at_level(logging.WARNING, logger="meshtv.lptv"):
        warm, restored, trace, _, config = _warm_then_lptv(mesh, noisy, 1e4)
    assert np.abs(warm.values - noisy.values).max() <= config.eps_support
    assert trace.column("free_vertices").tolist() == [0]
    assert np.array_equal(restored.values, noisy.values)
    assert len(caplog.records) == 1
    assert "lam = 10000 is probably too large" in caplog.messages[0]


def test_l1tv_that_denoises_logs_no_warning(caplog):
    mesh = icosphere(2)
    noisy = add_salt_pepper(two_patch_image(mesh), NoiseSpec(0.1, 0))
    with caplog.at_level(logging.WARNING, logger="meshtv.lptv"):
        _warm_then_lptv(mesh, noisy, 0.15)
    assert caplog.records == []


def _warm_then_lptv(mesh, noisy, lam=0.15):
    """An L1-TV solve, then p = 0.5 warm-started from it, as the CLI runs."""
    op = build_gradient_operator(mesh)
    config = SolverConfig(lam=lam, p=1.0, beta1=2.0, beta2=2.0)
    warm, _ = plm_solve(noisy, mesh, op, config, u0=noisy)
    config = dataclasses.replace(config, p=0.5)
    restored, trace = plm_solve(noisy, mesh, op, config, u0=warm)
    return warm, restored, trace, op, config


def _assert_run_time_guarantees(noisy, warm, restored, trace, op, config):
    assert trace.converged
    assert np.all(np.diff(trace.column("support_size")) <= 0)
    floor = -1e-6 * max(1.0, objective(warm, noisy, op, config))  # criterion 4
    assert trace.column("decrease_slack").min() >= floor
    assert smallest_nonzero_residual(restored, noisy) > config.eps_support


@pytest.mark.parametrize("make_image", [two_patch_image, _rgb_image],
                         ids=["gray", "rgb"])
def test_plm_cg_path_keeps_the_guarantees_and_matches_lu(make_image, monkeypatch):
    mesh = icosphere(2)
    noisy = add_salt_pepper(make_image(mesh), NoiseSpec(0.1, 0))
    _, lu_restored, _, _, _ = _warm_then_lptv(mesh, noisy)
    # every system above 0 vertices takes the preconditioned-CG path
    monkeypatch.setattr(admm, "DIRECT_SOLVE_MAX_VERTICES", 0)
    run = _warm_then_lptv(mesh, noisy)
    _assert_run_time_guarantees(noisy, *run)
    assert np.abs(run[1].values - lu_restored.values).max() <= 1e-8


def test_plm_cg_step_limit_raises_typed_error(monkeypatch):
    mesh = icosphere(2)
    noisy = add_salt_pepper(two_patch_image(mesh), NoiseSpec(0.1, 0))
    monkeypatch.setattr(admm, "DIRECT_SOLVE_MAX_VERTICES", 0)
    monkeypatch.setattr(admm, "CG_MAX_ITER", 1)
    with pytest.raises(IterationLimitExceeded):
        _warm_then_lptv(mesh, noisy)


def test_plm_raises_typed_error_when_support_grows(monkeypatch):
    # a color channel pinned at the first step re-enters the support at a
    # vertex that another channel keeps free, so the free vertices do not grow
    mesh = icosphere(1)
    op = build_gradient_operator(mesh)
    f = _rgb_image(mesh)
    first = np.zeros(f.values.shape, dtype=bool)
    first[:10, 0] = True
    # the second support is taken on the rows of the ten free vertices
    second = first[:10].copy()
    second[0, 1] = True
    masks = iter([first, second])

    def growing_support(u, f, eps):
        return next(masks)

    monkeypatch.setattr(lptv, "support_eps", growing_support)
    with pytest.raises(SupportGrew):
        plm_solve(f, mesh, op, PLM_CONFIG, u0=MeshImage(f.values + 0.1))


def test_plm_dimension_checks():
    mesh = icosphere(1)
    op = build_gradient_operator(mesh)
    f = two_patch_image(mesh)
    bad = MeshImage(np.zeros(5))
    with pytest.raises(DimensionMismatch):
        plm_solve(f, mesh, op, PLM_CONFIG, u0=bad)


@pytest.mark.parametrize("p", [0.5, 1.0])
@pytest.mark.parametrize("where", ["u0", "f"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_plm_refuses_a_non_finite_input_before_any_solve(bad, where, p,
                                                         monkeypatch):
    # a NaN in u0 used to be pinned silently, with a run reported converged
    mesh = icosphere(2)
    op = build_gradient_operator(mesh)
    noisy = add_salt_pepper(two_patch_image(mesh), NoiseSpec(0.1, 0))
    config = SolverConfig(lam=0.3, p=1.0, beta1=6.0, beta2=6.0)
    warm, _ = plm_solve(noisy, mesh, op, config, u0=noisy)
    images = {"u0": warm.values.copy(), "f": noisy.values.copy()}
    images[where][7, 0] = bad
    calls = []
    for module in (admm, lptv):
        monkeypatch.setattr(module, "admm_solve", lambda *args, solve=module.admm_solve:
                            calls.append(args) or solve(*args))
    with pytest.raises(NaNInput):
        plm_solve(MeshImage(images["f"]), mesh, op,
                  dataclasses.replace(config, p=p), u0=MeshImage(images["u0"]))
    assert calls == []


def test_trace_csv_round_trip(tmp_path):
    trace = SolverTrace()
    trace.append(TraceRecord(0, 12.5, 100, 0.5, 0.01, 42))
    trace.append(TraceRecord(1, 11.0, 80, 0.25, 0.005, 17))
    path = tmp_path / "trace.csv"
    trace.write_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == ("iteration,objective,support_size,iterate_gap,"
                        "decrease_slack,inner_iterations,inner_redos,"
                        "rejected_extrapolations,free_vertices,"
                        "inner_converged")
    assert lines[1].startswith("0,12.5,100,")
    assert len(lines) == 3


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(p=0.0)
    with pytest.raises(ValueError):
        SolverConfig(p=1.2)
    with pytest.raises(ValueError):
        SolverConfig(lam=-1.0)
    for name in ("lam", "eps_support", "beta1", "prox_weight", "inner_tol"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                SolverConfig(**{name: bad})
    # iteration counts must be integers; numpy integers are accepted
    for name in ("outer_max_iter", "inner_max_iter"):
        with pytest.raises(ValueError, match=name):
            SolverConfig(**{name: 2.5})
        with pytest.raises(ValueError, match=name):
            SolverConfig(**{name: 100.0})
        assert getattr(SolverConfig(**{name: np.int64(7)}), name) == 7
    config = SolverConfig(lam=0.3)
    assert config.beta1 == pytest.approx(3.0)
    assert config.beta2 == pytest.approx(3.0)
