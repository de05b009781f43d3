"""The refactoring gate as a test: two fixed runs against committed results.

The runs are the synthetic icosphere(3) sweep and the icosphere(2) RGB PLY
sweep that a change to the solver's arithmetic is judged by.  Their
``results.csv`` under ``tests/data`` was written with ``--no-time``.  Every
row must come back with a PSNR within 0.01 dB and a final objective within
1e-6 relative.  Outer iterations may move when the stopping path changes, so
they are reported on a failure but not compared.  A change that moves the
numbers on purpose regenerates the reference files with the command lines
below and shows the old and new values; it never widens the tolerances.

    meshtv --synthetic icosphere_k=3,pattern=two_patch --noise-levels 0.1,0.3
      --p-values 0.5,0.9 --trials 2 --lambda 0.1 --beta1 2 --beta2 2 --no-time
    meshtv --mesh rgb.ply --image rgb.ply --noise-levels 0.05,0.1
      --p-values 0.5,0.9 --trials 1 --lambda 0.15 --beta1 3 --beta2 3
      --inner-max 4000 --no-time
"""

import csv
import os

import numpy as np
import pytest

from meshtv.config import SolverConfig
from meshtv.experiment import ExperimentSpec, run_experiment
from meshtv.imaging import MeshImage, write_ply_with_image
from meshtv.synthetic import icosphere, two_patch_image

DATA = os.path.join(os.path.dirname(__file__), "data")
PSNR_TOL_DB = 0.01
OBJECTIVE_RTOL = 1e-6


def _rgb_ply(directory):
    """An RGB icosphere(2) written as mesh and image in one PLY file."""
    mesh = icosphere(2)
    gray = two_patch_image(mesh).values[:, 0]
    rgb = np.column_stack([gray, 1.0 - gray, np.full(mesh.n_vertices, 0.5)])
    path = str(directory / "rgb.ply")
    write_ply_with_image(path, mesh, MeshImage(rgb))
    return path


def _spec(name, tmp_path):
    out = str(tmp_path / "out")
    if name == "gate_synthetic_k3":
        return ExperimentSpec(
            output_dir=out, synthetic="icosphere_k=3,pattern=two_patch",
            noise_levels=(0.1, 0.3), p_values=(0.5, 0.9), trials=2,
            solver=SolverConfig(lam=0.1, beta1=2.0, beta2=2.0),
            record_time=False)
    ply = _rgb_ply(tmp_path)
    return ExperimentSpec(
        output_dir=out, mesh_path=ply, image_path=ply,
        noise_levels=(0.05, 0.1), p_values=(0.5, 0.9), trials=1,
        solver=SolverConfig(lam=0.15, beta1=3.0, beta2=3.0, inner_max_iter=4000),
        record_time=False)


def _read(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("name", ["gate_synthetic_k3", "gate_rgb_ply_k2"])
def test_gate_run_matches_the_committed_results(name, tmp_path):
    spec = _spec(name, tmp_path)
    run_experiment(spec)
    expected = _read(os.path.join(DATA, name + ".csv"))
    got = _read(os.path.join(spec.output_dir, "results.csv"))
    key = ("image", "noise_level", "method")
    assert [[r[k] for k in key] for r in got] == [[r[k] for k in key] for r in expected]
    failures = []
    for new, ref in zip(got, expected):
        psnr_diff = abs(float(new["psnr_db"]) - float(ref["psnr_db"]))
        objective_rel = (abs(float(new["objective"]) - float(ref["objective"]))
                         / abs(float(ref["objective"])))
        if psnr_diff > PSNR_TOL_DB or objective_rel > OBJECTIVE_RTOL:
            failures.append(
                f"{new['noise_level']} {new['method']}: psnr {ref['psnr_db']} -> "
                f"{new['psnr_db']}, objective {ref['objective']} -> "
                f"{new['objective']}, outer iterations {ref['outer_iters']} -> "
                f"{new['outer_iters']}")
    assert not failures, "\n".join(failures)
