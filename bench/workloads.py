"""Benchmark workloads: generated inputs, solver settings, one unit of work.

Inputs.  Every workload restores a fixed set of noisy images.  The noise of
each image comes from a noise seed that belongs to the workload definition,
drawn over the vertices in lexicographic order of their coordinates, so the
realization does not depend on how the program numbers vertices.  The noise
realization decides how much work a nonconvex solve does (one Lp-TV solve at
k = 4 and 30% noise took from 5 s to 66 s over three noise seeds), so it is
held fixed and every run does the same solver work.  The run's ``--seed``
instead relabels the problem: it permutes the vertices (where the benchmark
draws the noise itself) and the triangles, rotates each triangle's vertex
list cyclically, and rotates the mesh rigidly.  That leaves the model
unchanged and varies memory layout, the fill-reducing ordering and the order
of floating-point sums.

Solver settings are those of the acceptance rigs: beta1 = beta2 = 20 * lam,
inner_max_iter = 4000, other ``SolverConfig`` defaults; ``lam`` is scaled with
mesh resolution.  Each L1-TV solve starts from the noisy image, and each
Lp-TV solve is warm-started from the L1-TV result of the same image.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from meshtv import cli, gradient, imaging, lptv, synthetic
from meshtv import mesh as meshmod
from meshtv.config import SolverConfig
from meshtv.imaging import MeshImage

from checks import SolveRecord, results_csv_failures, solve_failures
from tracing import Patches

PATTERN_LOW = 0.25
PATTERN_HIGH = 0.75
_PATCH_NORMAL = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)


@dataclass(frozen=True)
class NoisyImage:
    level: float          # salt-and-pepper fraction
    noise_seed: int
    psnr_floor: float     # dB; a final restoration below it fails


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mesh: str             # "icosphere" (size = subdivision level) or "grid"
    size: int
    pattern: str          # "two_patch", "step" or "rgb"
    lam: float
    p_values: tuple       # Lp-TV exponents after the L1-TV warm start
    images: tuple
    cli_trials: int = 0   # > 0: run meshtv.cli.main with this many trials

    def config(self, p: float) -> SolverConfig:
        return SolverConfig(lam=self.lam, p=p, beta1=20.0 * self.lam,
                            beta2=20.0 * self.lam, inner_max_iter=4000)

    def describe(self) -> dict:
        cfg = self.config(1.0)
        return {
            "mesh": f"{self.mesh}({self.size})", "pattern": self.pattern,
            "noise": [[i.level, i.noise_seed] for i in self.images],
            "p_values": list(self.p_values), "cli_trials": self.cli_trials,
            "lam": cfg.lam, "beta1": cfg.beta1, "beta2": cfg.beta2,
            "prox_weight": cfg.prox_weight, "eps_support": cfg.eps_support,
            "inner_tol": cfg.inner_tol, "inner_max_iter": cfg.inner_max_iter,
            "outer_tol": cfg.outer_tol, "outer_max_iter": cfg.outer_max_iter,
        }


# The timed workloads (BENCHMARK.json) each restore one image in well under a
# second.  On a shared host the CPU speed drifts by up to 1.8x in phases of
# seconds to tens of seconds; the fastest of many short units repeats from
# run to run, while one long solve averages over whatever phases it meets.
WORKLOADS = {w.name: w for w in (
    Workload(
        "l1tv-sphere4",
        "direct LU path, L1-TV only: full support and no prox term, so "
        "outer-loop and support changes should not move it",
        "icosphere", 4, "two_patch", 0.1, (),
        (NoisyImage(0.10, 0, 33.0),),
    ),
    Workload(
        "lptv-sparse3",
        "nonconvex outer loop dominates (34 steps); 10% of values stay in "
        "the support while every ADMM step solves all 642 vertices",
        "icosphere", 3, "two_patch", 0.15, (0.5,),
        (NoisyImage(0.10, 1, 26.0),),
    ),
    Workload(
        "lptv-dense3",
        "nonconvex outer loop (51 steps) with 20% of values in the support: "
        "support restriction saves less than on lptv-sparse3",
        "icosphere", 3, "two_patch", 0.15, (0.5,),
        (NoisyImage(0.20, 0, 35.0),),
    ),
    Workload(
        "sweep-rgb2",
        "meshtv CLI over PLY files: tiny n, three channels, per-step Python "
        "overhead, one factorization per solve, file parse and write",
        "icosphere", 2, "rgb", 0.15, (0.5, 0.9),
        (NoisyImage(0.05, 0, 33.0), NoisyImage(0.10, 0, 32.0)),
        cli_trials=1,
    ),
    # Paper-scale workloads, for traced runs by hand; not in BENCHMARK.json,
    # because each of their solves takes 6-16 s.
    Workload(
        "lptv-sphere4",
        "nonconvex outer loop dominates; 11% and 30% of values stay in the "
        "support while every ADMM step solves all 2,562 vertices",
        "icosphere", 4, "two_patch", 0.1, (0.5,),
        (NoisyImage(0.10, 0, 40.0), NoisyImage(0.30, 1, 25.0)),
    ),
    Workload(
        "l1tv-sphere6",
        "direct LU path at its largest size (40,962 vertices); full support "
        "and no prox term, so outer-loop changes should not move it",
        "icosphere", 6, "two_patch", 0.025, (),
        (NoisyImage(0.10, 0, 34.0),),
    ),
    Workload(
        "l1tv-grid-cg",
        "the only Jacobi-CG workload (53,824 vertices, above the direct-solve "
        "limit), with no factorization",
        "grid", 232, "step", 0.005, (),
        (NoisyImage(0.10, 0, 39.0),),
    ),
    # Tiny variants for the benchmark's own tests; not in BENCHMARK.json.
    Workload(
        "smoke", "test of the in-process path", "icosphere", 1, "two_patch",
        0.3, (0.5,), (NoisyImage(0.10, 0, 0.0),),
    ),
    Workload(
        "smoke-cli", "test of the CLI path", "icosphere", 1, "rgb", 0.3,
        (0.5,), (NoisyImage(0.10, 0, 0.0),), cli_trials=1,
    ),
)}


# ---------------------------------------------------------------- inputs


def canonical_order(vertices: np.ndarray, triangles: np.ndarray):
    """Vertices sorted lexicographically by (x, y, z), triangles renumbered."""
    order = np.lexsort(np.round(vertices, 9).T[::-1])
    new_id = np.empty_like(order)
    new_id[order] = np.arange(order.size)
    return vertices[order], new_id[triangles]


def relabel(vertices, triangles, rng, permute_vertices: bool):
    """Same mesh, new numbering and pose: returns (vertices, triangles, order)
    where new vertex i is old vertex ``order[i]``."""
    n = vertices.shape[0]
    order = rng.permutation(n) if permute_vertices else np.arange(n)
    new_id = np.empty_like(order)
    new_id[order] = np.arange(n)
    tris = new_id[triangles][rng.permutation(triangles.shape[0])]
    shift = rng.integers(0, 3, size=tris.shape[0])
    tris = np.take_along_axis(tris, (np.arange(3) + shift[:, None]) % 3, axis=1)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return vertices[order] @ q.T, tris, order


def clean_image(pattern: str, vertices: np.ndarray) -> np.ndarray:
    """(n, channels) piecewise-constant image over the unrotated mesh."""
    if pattern == "step":
        high = vertices[:, 0] + 0.5 * vertices[:, 1] > 0.7
    else:
        high = vertices @ _PATCH_NORMAL >= 0.0
    red = np.where(high, PATTERN_HIGH, PATTERN_LOW)
    if pattern == "rgb":
        return np.column_stack([red, 1.0 - red, np.full_like(red, 0.5)])
    return red[:, None]


def salt_pepper(values: np.ndarray, level: float, seed: int) -> np.ndarray:
    """Each value independently set to 0 or 1 with probability level / 2."""
    draw = np.random.default_rng(seed).random(values.shape)
    out = values.copy()
    out[draw < level / 2.0] = 0.0
    out[(draw >= level / 2.0) & (draw < level)] = 1.0
    return out


def write_ply(path: str, vertices, triangles, rgb=None) -> None:
    """ASCII PLY; with ``rgb`` a vertex-only file of 0-255 colours."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"ply\nformat ascii 1.0\nelement vertex {len(vertices)}\n")
        if rgb is None:
            fh.write("property double x\nproperty double y\nproperty double z\n"
                     f"element face {len(triangles)}\n"
                     "property list uchar int vertex_indices\nend_header\n")
            fh.writelines(f"{x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in vertices)
            fh.writelines(f"3 {a} {b} {c}\n" for a, b, c in triangles)
        else:
            fh.write("property uchar red\nproperty uchar green\n"
                     "property uchar blue\nend_header\n")
            fh.writelines(f"{r} {g} {b}\n" for r, g, b in rgb)


def _program_mesh(w: Workload):
    if w.mesh == "grid":
        return synthetic.planar_grid(w.size)
    return synthetic.icosphere(w.size)


# ------------------------------------------------------------- the runs


@dataclass
class Unit:
    wall_s: float
    records: list          # SolveRecord per solve that returned
    attempted: int
    failed: int = 0
    reasons: list = field(default_factory=list)   # one line per failure


class InProcessRun:
    """Synthetic mesh and noisy images handed to ``lptv.plm_solve``."""

    def __init__(self, w: Workload, seed: int):
        self.w = w
        self.seed = seed

    def setup(self) -> float:
        """Build the program's inputs; returns the program's share of the time
        (mesh generation, mesh validation, gradient operator)."""
        tic = time.perf_counter()
        base = _program_mesh(self.w)
        elapsed = time.perf_counter() - tic
        verts, tris = canonical_order(base.vertices, base.triangles)
        clean = clean_image(self.w.pattern, verts)
        noisy = [salt_pepper(clean, i.level, i.noise_seed) for i in self.w.images]
        verts, tris, order = relabel(verts, tris, np.random.default_rng(self.seed),
                                     permute_vertices=True)
        tic = time.perf_counter()
        self.mesh = meshmod.TriangleMesh(verts, tris)
        self.op = gradient.build_gradient_operator(self.mesh)
        elapsed += time.perf_counter() - tic
        self.clean = clean[order]
        self.noisy = [f[order] for f in noisy]
        return elapsed

    def unit(self) -> Unit:
        w = self.w
        done, reasons = [], []
        tic = time.perf_counter()
        for image, f in zip(w.images, self.noisy):
            noisy = MeshImage(f)
            try:
                warm, trace = lptv.plm_solve(noisy, self.mesh, self.op,
                                             w.config(1.0), u0=noisy)
            except Exception as exc:  # a raising solve is a failed solve
                reasons += [f"noise {image.level:g}: L1-TV raised {exc!r}"]
                continue
            done.append((image, 1.0, f, warm.values, trace, not w.p_values))
            for p in w.p_values:
                try:
                    u, trace = lptv.plm_solve(noisy, self.mesh, self.op,
                                              w.config(p), u0=warm)
                except Exception as exc:
                    reasons.append(f"noise {image.level:g} p {p:g}: raised {exc!r}")
                    continue
                done.append((image, p, f, u.values, trace, True))
        wall = time.perf_counter() - tic
        attempted = len(w.images) * (1 + len(w.p_values))
        records = [
            make_record(w.config(p), f, u, self.clean, trace, self.op,
                        image.psnr_floor if final else None)
            for image, p, f, u, trace, final in done
        ]
        # an L1-TV solve that raised also takes its Lp-TV solves with it
        return _checked(Unit(wall, records, attempted,
                             attempted - len(records), reasons))


class CliRun:
    """``meshtv.cli.main`` in-process over PLY files the benchmark writes."""

    def __init__(self, w: Workload, seed: int, workdir: str):
        self.w = w
        self.workdir = workdir
        base = _program_mesh(w)
        verts, tris = canonical_order(base.vertices, base.triangles)
        rgb = np.rint(255.0 * clean_image(w.pattern, verts)).astype(np.int64)
        # The CLI draws noise by vertex index, so vertices keep their
        # canonical order and only triangles and pose follow the seed.
        verts, tris, _ = relabel(verts, tris, np.random.default_rng(seed),
                                 permute_vertices=False)
        self.mesh_path = os.path.join(workdir, "mesh.ply")
        self.image_path = os.path.join(workdir, "image.ply")
        write_ply(self.mesh_path, verts, tris)
        write_ply(self.image_path, verts, tris, rgb=rgb)
        self.clean = rgb / 255.0

    def setup(self) -> float:
        tic = time.perf_counter()
        self.mesh = meshmod.load_mesh(self.mesh_path)
        imaging.read_image(self.image_path)
        self.op = gradient.build_gradient_operator(self.mesh)
        return time.perf_counter() - tic

    def argv(self, out_dir: str) -> list:
        w = self.w
        cfg = w.config(1.0)
        return [
            "--mesh", self.mesh_path, "--image", self.image_path, "--out", out_dir,
            "--noise-levels", ",".join(f"{i.level:g}" for i in w.images),
            "--p-values", ",".join(f"{p:g}" for p in w.p_values),
            "--trials", str(w.cli_trials), "--seed", str(w.images[0].noise_seed),
            "--lambda", repr(cfg.lam), "--beta1", repr(cfg.beta1),
            "--beta2", repr(cfg.beta2), "--inner-max", str(cfg.inner_max_iter),
        ]

    def unit(self) -> Unit:
        w = self.w
        per_level = w.cli_trials * (1 + len(w.p_values))
        attempted = len(w.images) * per_level
        out_dir = tempfile.mkdtemp(prefix="out-", dir=self.workdir)
        calls = []

        def capture(original):
            def recorded(*args, **kwargs):
                result = original(*args, **kwargs)
                calls.append((args, result))
                return result
            return recorded

        try:
            with Patches() as patches, contextlib.redirect_stdout(io.StringIO()):
                patches.wrap("meshtv.experiment", "plm_solve", capture)
                tic = time.perf_counter()
                try:
                    code = cli.main(self.argv(out_dir))
                except SystemExit as exc:  # argparse rejected the arguments
                    code = exc.code
                except Exception as exc:  # escaped the CLI's own handler
                    code = repr(exc)
                wall = time.perf_counter() - tic
            reasons = [] if code == 0 else [f"CLI exit code {code}"]
            reasons += results_csv_failures(
                os.path.join(out_dir, "results.csv"),
                len(w.images) * (1 + len(w.p_values)))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if len(calls) != attempted:
            reasons.append(f"{len(calls)} solves ran, expected {attempted}")
        if reasons:
            return Unit(wall, [], attempted, attempted, reasons)
        records = []
        for index, (args, (u, trace)) in enumerate(calls):
            f, _, op, config = args[:4]
            image = w.images[index // per_level]
            records.append(make_record(config, f.values, u.values, self.clean,
                                       trace, op, image.psnr_floor))
        return _checked(Unit(wall, records, attempted))


def make_record(config, f, u, clean, trace, op, psnr_floor) -> SolveRecord:
    def column(name, default=None):
        return np.array([getattr(r, name, default) for r in trace.records])

    return SolveRecord(
        p=config.p, eps_support=config.eps_support, noisy=f, restored=u,
        clean=clean, converged=bool(trace.converged),
        support_sizes=column("support_size"), slacks=column("decrease_slack"),
        objective_start=float(trace.records[0].objective),
        inner_iterations=column("inner_iterations"),
        inner_converged=column("inner_converged", True),
        objective=lptv.objective(MeshImage(u), MeshImage(f), op, config),
        psnr_floor=psnr_floor,
    )


def _checked(unit: Unit) -> Unit:
    """Run the per-solve checks; each solve with a reason counts as failed."""
    for rec in unit.records:
        reasons = solve_failures(rec)
        if reasons:
            unit.failed += 1
            unit.reasons.append(f"p {rec.p:g}: " + "; ".join(reasons))
    return unit


def make_run(w: Workload, seed: int, workdir: str):
    return CliRun(w, seed, workdir) if w.cli_trials else InProcessRun(w, seed)
