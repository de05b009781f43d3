"""Experiment harness: noise sweeps, warm-started solves, PSNR tables.

For every (noise level, trial) the harness corrupts the clean image with a
trial-specific seed, solves L1-TV once, then runs the nonconvex solver for
each requested p warm-started from that result, sharing the noisy image
across methods.  Per-method PSNR / wall time / outer iterations are averaged
over trials and written to ``results.csv``; trial 0 additionally leaves a
restored PLY and a trace CSV per method.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .config import SolverConfig
from .errors import DimensionMismatch
from .gradient import build_gradient_operator
from .imaging import (
    MeshImage,
    NoiseSpec,
    add_salt_pepper,
    clamp_to_unit,
    psnr,
    read_image,
    write_ply_with_image,
)
from .lptv import plm_solve
from .mesh import TriangleMesh, load_mesh
from .synthetic import generate_synthetic

RESULTS_HEADER = "image,noise_level,method,psnr_db,wall_time_s,outer_iters"


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
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.base_seed < 0:
            raise ValueError(f"base seed {self.base_seed} is negative")
        if not self.noise_levels:
            raise ValueError("need at least one noise level")
        # a repeated value would write its result row twice and overwrite
        # its own restored.ply and trace.csv
        for name in ("noise_levels", "p_values"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"repeated value in {name}: {values}")
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


def _method_label(p: float | None) -> str:
    return "L1TV" if p is None else f"LpTV_p{p:g}"


def _write_artifacts(out_dir: str, mesh: TriangleMesh, restored: MeshImage,
                     trace) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_ply_with_image(os.path.join(out_dir, "restored.ply"), mesh, restored)
    trace.write_csv(os.path.join(out_dir, "trace.csv"))


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    """Run the full protocol and write results under ``spec.output_dir``."""
    mesh, clean, image_name = _load_inputs(spec)
    op = build_gradient_operator(mesh)
    os.makedirs(spec.output_dir, exist_ok=True)

    methods: list[float | None] = [None] + list(spec.p_values)
    rows: list[ResultRow] = []
    for level in spec.noise_levels:
        stats = {m: {"psnr": [], "time": [], "iters": []} for m in methods}
        for trial in range(spec.trials):
            noisy = add_salt_pepper(clean, NoiseSpec(level, spec.base_seed + trial))
            warm = None
            for method in methods:
                p = 1.0 if method is None else method
                config = dataclasses.replace(spec.solver, p=p)
                start_from = noisy if method is None else warm
                tic = time.perf_counter()
                restored, trace = plm_solve(noisy, mesh, op, config, u0=start_from)
                elapsed = time.perf_counter() - tic
                if method is None:
                    warm = restored
                restored = clamp_to_unit(restored)
                stats[method]["psnr"].append(psnr(restored, clean))
                stats[method]["time"].append(elapsed if spec.record_time else 0.0)
                stats[method]["iters"].append(len(trace))
                if trial == 0:
                    method_dir = os.path.join(
                        spec.output_dir, image_name, f"noise_{level:g}",
                        _method_label(method),
                    )
                    _write_artifacts(method_dir, mesh, restored, trace)
        for method in methods:
            acc = stats[method]
            rows.append(ResultRow(
                image_name=image_name,
                noise_level=level,
                method=_method_label(method),
                psnr_db=float(np.mean(acc["psnr"])),
                wall_time_s=float(np.mean(acc["time"])),
                outer_iters=int(round(float(np.mean(acc["iters"])))),
            ))

    write_results_csv(os.path.join(spec.output_dir, "results.csv"), rows)
    return rows


def write_results_csv(path: str, rows: list[ResultRow]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(RESULTS_HEADER + "\n")
        for row in rows:
            fh.write(
                f"{row.image_name},{row.noise_level:g},{row.method},"
                f"{row.psnr_db:.6f},{row.wall_time_s:.6f},{row.outer_iters}\n"
            )
