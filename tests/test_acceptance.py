"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The denoising rigs pin
their own model parameters (lam, penalties, proximal weight, seeds); the
tolerances asserted here are fixed by the criteria themselves.
"""

import time

import numpy as np
import pytest

from conftest import admm_full_size, prox_system, smallest_nonzero_residual
from grid_oracles import (
    grid2_argmin,
    make_constrained_objective,
    nested_grid_argmin,
    shrink_1d_oracle,
    shrink_vec_oracle,
)
from meshtv.admm import _shrink_groups, shrink_1d
from meshtv.config import SolverConfig
from meshtv.experiment import ExperimentSpec, run_experiment
from meshtv.gradient import apply as apply_gradient
from meshtv.gradient import build_gradient_operator
from meshtv.imaging import MeshImage, NoiseSpec, add_salt_pepper
from meshtv.lptv import objective, plm_solve
from meshtv.synthetic import generate_synthetic, planar_grid

# Model parameters for the denoising rigs.  The fidelity weight is sized for
# unit-sphere icospheres so that the L1-TV baseline moves every corrupted
# value (a warm-start requirement) while still eroding edges that the
# reweighted solver then repairs; the larger proximal weight on the lemma rig
# slows the final approach enough to record a stable support tail.
RIG_LAM = 0.1
RIG_BETA = 2.0
LEMMA_PROX = 5.0
PSNR_BASE_SEED = 1000


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"\n[{status}] criterion {num}: {name}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# --------------------------------------------------------------- criterion 1


def test_criterion_1_operator_exactness():
    tic = time.perf_counter()
    mesh = planar_grid(12)  # 242 triangles
    assert mesh.n_triangles >= 200
    op = build_gradient_operator(mesh)
    u = 2.0 * mesh.vertices[:, 0] + 3.0 * mesh.vertices[:, 1] + 1.0
    grads = apply_gradient(op, u)
    err = float(np.abs(grads - np.array([2.0, 3.0, 0.0])).max())
    elapsed = time.perf_counter() - tic
    _report(1, "operator exactness on affine field", err < 1e-10 and elapsed < 1.0,
            f"max err {err:.2e}, {elapsed:.2f}s")


# --------------------------------------------------------------- criterion 2


def test_criterion_2_prox_oracles():
    tic = time.perf_counter()
    rng = np.random.default_rng(7)
    n = 10_000
    xs = rng.uniform(-5.0, 5.0, n)
    thresholds = rng.uniform(0.0, 3.0, n)
    worst_1d = 0.0
    for x, thr in zip(xs, thresholds):
        worst_1d = max(worst_1d, abs(shrink_1d(x, thr) - shrink_1d_oracle(x, thr)))
    vecs = rng.normal(size=(n, 3)) * 2.0
    vthr = rng.uniform(0.0, 3.0, n)
    worst_3d = 0.0
    for x, thr in zip(vecs, vthr):
        diff = np.abs(_shrink_groups(x[None], thr)[0]
                      - shrink_vec_oracle(x, thr)).max()
        worst_3d = max(worst_3d, diff)
    elapsed = time.perf_counter() - tic
    ok = worst_1d < 1e-5 and worst_3d < 1e-5 and elapsed < 30.0
    _report(2, "shrinkage matches grid-search minimizers",
            ok, f"1d err {worst_1d:.2e}, 3d err {worst_3d:.2e}, {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 3


def test_criterion_3_tiny_instance_equivalence(two_triangle_mesh):
    tic = time.perf_counter()
    op = build_gradient_operator(two_triangle_mesh)
    rng = np.random.default_rng(11)
    worst_admm = worst_l1 = 0.0
    for _ in range(20):
        f_values = rng.uniform(0.0, 1.0, 4)
        f = MeshImage(f_values)

        lam = rng.uniform(0.05, 0.5)
        config = SolverConfig(lam=lam, p=0.5, prox_weight=1.0, beta1=2.0,
                              beta2=2.0, inner_tol=1e-10, inner_max_iter=50_000)
        support = np.array([[True], [False], [False], [True]])
        got, _, converged, _ = admm_full_size(f, MeshImage(f_values.copy()),
                                              support, np.ones(2), op, config,
                                              prox_system(op, config, f, support))
        assert converged
        hk = make_constrained_objective(op, f_values, f_values, [0, 3],
                                        np.ones(2), lam, 1.0)
        best = grid2_argmin(hk, -0.5, 1.5)
        worst_admm = max(worst_admm,
                         float(np.abs(got.values[[0, 3], 0] - best).max()))

        lam1 = rng.uniform(0.5, 2.0)
        config1 = SolverConfig(lam=lam1, p=1.0, beta1=2.0, beta2=2.0,
                               inner_tol=1e-10, inner_max_iter=50_000)
        out, _ = plm_solve(f, two_triangle_mesh, op, config1, f)
        l1_obj = make_constrained_objective(op, f_values, f_values,
                                            [0, 1, 2, 3], np.ones(4), lam1, 0.0)
        lo = np.full(4, f_values.min() - 0.25)
        hi = np.full(4, f_values.max() + 0.25)
        best1 = nested_grid_argmin(l1_obj, lo, hi, stages=12, points=13)
        worst_l1 = max(worst_l1, float(np.abs(out.values[:, 0] - best1).max()))
    elapsed = time.perf_counter() - tic
    ok = worst_admm < 2e-3 and worst_l1 < 2e-3 and elapsed < 120.0
    _report(3, "tiny-instance solver vs brute-force grid",
            ok, f"admm err {worst_admm:.2e}, l1tv err {worst_l1:.2e}, {elapsed:.0f}s")


# ---------------------------------------------------------- criteria 4, 5, 6


def _lemma_config(p: float) -> SolverConfig:
    return SolverConfig(lam=RIG_LAM, p=p, prox_weight=LEMMA_PROX,
                        beta1=RIG_BETA, beta2=RIG_BETA,
                        inner_tol=1e-8, inner_max_iter=20_000)


@pytest.fixture(scope="module")
def lemma_rig():
    tic = time.perf_counter()
    mesh, clean, _ = generate_synthetic("icosphere_k=3,pattern=two_patch")
    op = build_gradient_operator(mesh)
    runs = []
    for p in (0.1, 0.5, 0.9):
        for seed in range(5):
            noisy = add_salt_pepper(clean, NoiseSpec(0.10, seed))
            warm, _ = plm_solve(noisy, mesh, op, _lemma_config(1.0), u0=noisy)
            restored, trace = plm_solve(noisy, mesh, op, _lemma_config(p), u0=warm)
            f_start = objective(warm, noisy, op, _lemma_config(p))
            runs.append({
                "p": p, "seed": seed, "noisy": noisy, "restored": restored,
                "trace": trace, "objective_start": f_start,
            })
    return {"runs": runs, "elapsed": time.perf_counter() - tic,
            "eps": _lemma_config(0.5).eps_support}


def test_criterion_4_objective_decrease(lemma_rig):
    worst = np.inf
    ok = True
    for run in lemma_rig["runs"]:
        floor = -1e-6 * max(1.0, run["objective_start"])
        slack_min = float(run["trace"].column("decrease_slack").min())
        worst = min(worst, slack_min - floor)
        ok = ok and slack_min >= floor
    ok = ok and lemma_rig["elapsed"] < 300.0
    _report(4, "proximal decrease holds at every outer iteration",
            ok, f"worst slack margin {worst:.2e}, rig {lemma_rig['elapsed']:.0f}s")


def test_criterion_5_support_behavior(lemma_rig):
    ok = True
    for run in lemma_rig["runs"]:
        sizes = run["trace"].column("support_size")
        if not np.all(np.diff(sizes) <= 0):
            ok = False
        tail = sizes[-min(5, len(sizes)):]
        if len(set(tail.tolist())) != 1:
            ok = False
    _report(5, "support sizes shrink and stabilize", ok)


def test_criterion_6_residual_separation(lemma_rig):
    eps = lemma_rig["eps"]
    worst = np.inf
    ok = True
    for run in lemma_rig["runs"]:
        assert run["trace"].converged
        gap = smallest_nonzero_residual(run["restored"], run["noisy"])
        worst = min(worst, gap)
        ok = ok and gap > eps
    _report(6, "nonzero residuals stay above the support threshold",
            ok, f"min nonzero residual {worst:.3g} vs eps {eps}")


# ------------------------------------------------------------- criteria 7, 8


@pytest.fixture(scope="module")
def psnr_rig(tmp_path_factory):
    tic = time.perf_counter()
    spec = ExperimentSpec(
        output_dir=str(tmp_path_factory.mktemp("psnr_rig")),
        synthetic="icosphere_k=4,pattern=two_patch",
        noise_levels=(0.05, 0.10, 0.30),
        p_values=(0.5, 0.1),
        trials=5,
        base_seed=PSNR_BASE_SEED,
        solver=SolverConfig(lam=RIG_LAM, beta1=RIG_BETA, beta2=RIG_BETA,
                            inner_max_iter=4000),
        record_time=False,
    )
    rows = run_experiment(spec)
    means = {(row.noise_level, row.method): row.psnr_db for row in rows}
    return {"means": means, "elapsed": time.perf_counter() - tic}


def test_criterion_7_psnr_ordering(psnr_rig):
    means = psnr_rig["means"]
    l1 = means[(0.10, "L1TV")]
    p5 = means[(0.10, "LpTV_p0.5")]
    p1 = means[(0.10, "LpTV_p0.1")]
    ok = (
        np.isfinite([l1, p5, p1]).all()
        and p1 >= p5 - 0.2
        and p5 - 0.2 >= l1 + 0.8
        and p1 >= l1 + 1.0
        and psnr_rig["elapsed"] < 900.0
    )
    _report(7, "smaller p restores better than L1-TV",
            ok, f"L1TV {l1:.2f} dB, p=0.5 {p5:.2f} dB, p=0.1 {p1:.2f} dB, "
                f"rig {psnr_rig['elapsed']:.0f}s")


def test_criterion_8_noise_degradation(psnr_rig):
    means = psnr_rig["means"]
    a = means[(0.05, "LpTV_p0.1")]
    b = means[(0.10, "LpTV_p0.1")]
    c = means[(0.30, "LpTV_p0.1")]
    ok = bool(np.isfinite([a, b, c]).all() and a > b + 0.5 and b > c + 0.5)
    _report(8, "restoration degrades with the noise level",
            ok, f"{a:.2f} > {b:.2f} > {c:.2f} dB")


# --------------------------------------------------------------- criterion 9


def test_criterion_9_determinism(tmp_path):
    def spec(out):
        return ExperimentSpec(
            output_dir=str(out),
            synthetic="icosphere_k=1,pattern=two_patch",
            noise_levels=(0.1, 0.2),
            p_values=(0.5,),
            trials=2,
            base_seed=5,
            solver=SolverConfig(lam=0.15, beta1=RIG_BETA, beta2=RIG_BETA,
                                inner_max_iter=3000),
            record_time=False,
        )

    rows_a = run_experiment(spec(tmp_path / "a"))
    rows_b = run_experiment(spec(tmp_path / "b"))
    bytes_a = (tmp_path / "a" / "results.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "results.csv").read_bytes()
    ok = rows_a == rows_b and bytes_a == bytes_b
    _report(9, "repeated runs produce byte-identical results.csv", ok)
