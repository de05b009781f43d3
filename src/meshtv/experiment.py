"""Experiment harness: noise sweeps, warm-started solves, PSNR tables.

For every (noise level, trial) the harness corrupts the clean image with a
trial-specific seed, solves L1-TV once, then runs the nonconvex solver for
each requested p warm-started from that result, sharing the noisy image
across methods.  Per-method PSNR / wall time / outer iterations / final
objective are averaged over trials and written to ``results.csv``; trial 0
additionally leaves a restored PLY and a trace CSV per method.
"""

from __future__ import annotations

import csv
import dataclasses
import numbers
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .config import SolverConfig
from .errors import DimensionMismatch
from .gradient import build_gradient_operator
from .imaging import (
    NoiseSpec,
    add_salt_pepper,
    clamp_to_unit,
    psnr,
    read_image,
    write_ply_with_image,
)
from .lptv import objective, plm_solve
from .mesh import load_mesh
from .synthetic import generate_synthetic

RESULTS_HEADER = "image,noise_level,method,psnr_db,wall_time_s,outer_iters,objective"


@dataclass
class ExperimentSpec:
    """Inputs and protocol of one experiment run.

    Either ``synthetic`` (e.g. "icosphere_k=3,pattern=two_patch") or both
    ``mesh_path`` and ``image_path`` must be given.  ``record_time`` exists
    because wall clocks are not reproducible: with it off, the time column is
    written as zero and repeated runs produce byte-identical CSVs.
    """

    output_dir: str
    mesh_path: str | None = None
    image_path: str | None = None
    synthetic: str | None = None
    noise_levels: tuple[float, ...] = (0.05, 0.10, 0.20, 0.30)
    p_values: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9)
    trials: int = 10
    base_seed: int = 0
    solver: SolverConfig = field(default_factory=SolverConfig)
    record_time: bool = True

    def __post_init__(self):
        if self.synthetic is None and (self.mesh_path is None
                                       or self.image_path is None):
            raise ValueError("need either synthetic or mesh_path + image_path")
        if not isinstance(self.trials, numbers.Integral) or self.trials < 1:
            raise ValueError(f"trials {self.trials!r} is not an integer >= 1")
        if not isinstance(self.base_seed, numbers.Integral) or self.base_seed < 0:
            raise ValueError(f"base_seed {self.base_seed!r} is not an integer >= 0")
        if not self.noise_levels:
            raise ValueError("need at least one noise level")
        # values that print alike under :g would write result rows that read
        # the same and overwrite each other's restored.ply and trace.csv
        for name in ("noise_levels", "p_values"):
            values = getattr(self, name)
            if len({f"{v:g}" for v in values}) != len(values):
                raise ValueError(f"values in {name} print alike: {values}")
        for level in self.noise_levels:
            if not 0.0 <= level <= 1.0:
                raise ValueError(f"noise level {level} outside [0, 1]")
        for p in self.p_values:
            if not 0.0 < p <= 1.0:
                raise ValueError(f"p value {p} outside (0, 1]")


@dataclass(frozen=True)
class ResultRow:
    image_name: str
    noise_level: float
    method: str
    psnr_db: float
    wall_time_s: float
    outer_iters: int
    objective: float


def _load_inputs(spec: ExperimentSpec):
    if spec.synthetic is not None:
        return generate_synthetic(spec.synthetic)
    mesh = load_mesh(spec.mesh_path)
    clean = read_image(spec.image_path)
    if clean.vertex_count != mesh.n_vertices:
        raise DimensionMismatch(
            f"image has {clean.vertex_count} vertices, mesh has {mesh.n_vertices}"
        )
    name = os.path.splitext(os.path.basename(spec.image_path))[0]
    return mesh, clean, name


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    """Run the full protocol and write results under ``spec.output_dir``."""
    mesh, clean, image_name = _load_inputs(spec)
    op = build_gradient_operator(mesh)
    os.makedirs(spec.output_dir, exist_ok=True)

    methods = [("L1TV", 1.0)] + [(f"LpTV_p{p:g}", p) for p in spec.p_values]
    rows: list[ResultRow] = []
    for level in spec.noise_levels:
        # per method, one (PSNR, wall time, outer iterations, objective) per trial
        runs: list[list[tuple]] = [[] for _ in methods]
        for trial in range(spec.trials):
            noisy = add_salt_pepper(clean, NoiseSpec(level, spec.base_seed + trial))
            u0 = noisy
            for (label, p), method_runs in zip(methods, runs):
                config = dataclasses.replace(spec.solver, p=p)
                tic = time.perf_counter()
                restored, trace = plm_solve(noisy, mesh, op, config, u0=u0)
                elapsed = time.perf_counter() - tic
                if label == "L1TV":
                    u0 = restored  # the Lp-TV solves start from L1-TV's result
                value = objective(restored, noisy, op, config)
                restored = clamp_to_unit(restored)
                method_runs.append((psnr(restored, clean),
                                    elapsed if spec.record_time else 0.0,
                                    len(trace), value))
                if trial == 0:
                    out_dir = os.path.join(spec.output_dir, image_name,
                                           f"noise_{level:g}", label)
                    os.makedirs(out_dir, exist_ok=True)
                    write_ply_with_image(os.path.join(out_dir, "restored.ply"),
                                         mesh, restored)
                    trace.write_csv(os.path.join(out_dir, "trace.csv"))
        for (label, _), method_runs in zip(methods, runs):
            psnrs, times, iters, values = zip(*method_runs)
            rows.append(ResultRow(
                image_name=image_name,
                noise_level=level,
                method=label,
                psnr_db=float(np.mean(psnrs)),
                wall_time_s=float(np.mean(times)),
                outer_iters=int(round(float(np.mean(iters)))),
                objective=float(np.mean(values)),
            ))

    write_results_csv(os.path.join(spec.output_dir, "results.csv"), rows)
    return rows


def write_results_csv(path: str, rows: list[ResultRow]) -> None:
    """Write ``rows`` as CSV; only a field holding a comma, quote or line
    break (an image name can) is quoted."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULTS_HEADER.split(","))
        for row in rows:
            writer.writerow([row.image_name, f"{row.noise_level:g}", row.method,
                             f"{row.psnr_db:.6f}", f"{row.wall_time_s:.6f}",
                             row.outer_iters, f"{row.objective:.10g}"])
