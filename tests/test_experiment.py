import csv
import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import nan_at_step
from meshtv import admm, cli
from meshtv.config import SolverConfig
from meshtv.errors import InvalidParams
from meshtv.experiment import ExperimentSpec, run_experiment
from meshtv.imaging import read_image
from meshtv.synthetic import checker_image, generate_synthetic

FAST_SOLVER = SolverConfig(lam=0.15, beta1=2.0, beta2=2.0,
                           inner_tol=1e-6, inner_max_iter=3000)


def _tiny_spec(out_dir, **overrides):
    kwargs = dict(
        output_dir=str(out_dir),
        synthetic="icosphere_k=1,pattern=two_patch",
        noise_levels=(0.1, 0.2),
        p_values=(0.5,),
        trials=2,
        base_seed=3,
        solver=FAST_SOLVER,
        record_time=False,
    )
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


def test_parse_synthetic_spec(tmp_path):
    mesh, image, name = generate_synthetic("icosphere_k=2,pattern=checker,"
                                           "lat_bands=3,lon_bands=5")
    assert (mesh.n_vertices, name) == (162, "icosphere2_checker")
    assert np.array_equal(image.values, checker_image(mesh, 3, 5).values)
    mesh, image, name = generate_synthetic("pattern=two_patch")
    assert (mesh.n_vertices, name) == (642, "icosphere3_two_patch")
    rows = run_experiment(_tiny_spec(tmp_path / "out", p_values=()))
    assert {row.image_name for row in rows} == {"icosphere1_two_patch"}
    with pytest.raises(InvalidParams, match="bad integer"):
        run_experiment(_tiny_spec(tmp_path / "bad", synthetic="icosphere_k=x"))


def test_run_experiment_rows_and_layout(tmp_path):
    spec = _tiny_spec(tmp_path / "out")
    rows = run_experiment(spec)
    assert len(rows) == len(spec.noise_levels) * (1 + len(spec.p_values))
    methods = {row.method for row in rows}
    assert methods == {"L1TV", "LpTV_p0.5"}
    results = tmp_path / "out" / "results.csv"
    lines = results.read_text().splitlines()
    assert lines[0] == ("image,noise_level,method,psnr_db,wall_time_s,"
                        "outer_iters,objective")
    assert len(lines) == 1 + len(rows)
    image_name = rows[0].image_name
    for level in ("0.1", "0.2"):
        for method in ("L1TV", "LpTV_p0.5"):
            base = tmp_path / "out" / image_name / f"noise_{level}" / method
            assert (base / "restored.ply").is_file()
            assert (base / "trace.csv").is_file()


def test_restored_images_are_valid(tmp_path):
    spec = _tiny_spec(tmp_path / "out")
    rows = run_experiment(spec)
    image_name = rows[0].image_name
    restored = read_image(
        str(tmp_path / "out" / image_name / "noise_0.1" / "LpTV_p0.5" / "restored.ply")
    )
    assert restored.is_unit_range()
    assert restored.vertex_count == 42


def test_run_experiment_deterministic_bytes(tmp_path):
    a = run_experiment(_tiny_spec(tmp_path / "a"))
    b = run_experiment(_tiny_spec(tmp_path / "b"))
    assert a == b
    bytes_a = (tmp_path / "a" / "results.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "results.csv").read_bytes()
    assert bytes_a == bytes_b


def test_timed_runs_agree_except_wall_time(tmp_path):
    rows_a = run_experiment(_tiny_spec(tmp_path / "a", record_time=True))
    rows_b = run_experiment(_tiny_spec(tmp_path / "b", record_time=True))
    for ra, rb in zip(rows_a, rows_b):
        assert (ra.image_name, ra.noise_level, ra.method) == (
            rb.image_name, rb.noise_level, rb.method)
        assert ra.psnr_db == rb.psnr_db
        assert ra.outer_iters == rb.outer_iters
        assert ra.objective == rb.objective
        assert ra.wall_time_s > 0.0 and rb.wall_time_s > 0.0


def test_no_noise_degenerate_run(tmp_path):
    # fidelity-dominated config: with zero noise every method keeps the input
    solver = SolverConfig(lam=5.0, beta1=2.0, beta2=2.0,
                          inner_tol=1e-8, inner_max_iter=20_000)
    spec = _tiny_spec(tmp_path / "out", noise_levels=(0.0,), trials=1,
                      solver=solver)
    rows = run_experiment(spec)
    for row in rows:
        assert row.psnr_db > 60.0


def test_file_based_experiment(tmp_path):
    from grid_oracles import off_text

    mesh, image, _ = generate_synthetic("icosphere_k=1,pattern=two_patch")
    mesh_path = tmp_path / "m.off"
    image_path = tmp_path / "img.txt"
    mesh_path.write_text(off_text(mesh))
    np.savetxt(image_path, image.values, fmt="%.17g")
    spec = ExperimentSpec(
        output_dir=str(tmp_path / "out"),
        mesh_path=str(mesh_path),
        image_path=str(image_path),
        noise_levels=(0.1,),
        p_values=(0.5,),
        trials=1,
        solver=FAST_SOLVER,
        record_time=False,
    )
    rows = run_experiment(spec)
    assert rows[0].image_name == "img"


def test_spec_validation(tmp_path):
    with pytest.raises(ValueError):
        ExperimentSpec(output_dir=str(tmp_path))
    with pytest.raises(ValueError):
        _tiny_spec(tmp_path, noise_levels=(1.5,))
    with pytest.raises(ValueError):
        _tiny_spec(tmp_path, trials=0)
    # counts are integers; numpy integers are accepted
    for name in ("trials", "base_seed"):
        with pytest.raises(ValueError, match=name):
            _tiny_spec(tmp_path, **{name: 2.5})
        with pytest.raises(ValueError, match=name):
            _tiny_spec(tmp_path, **{name: 1.0})
        assert getattr(_tiny_spec(tmp_path, **{name: np.int64(3)}), name) == 3


def _run_cli(args, cwd):
    # The child runs in another cwd, where a relative PYTHONPATH (such as
    # "src") resolves to nothing; put the directory holding the imported
    # package first, so the child runs the same meshtv as this process.
    import meshtv

    package_root = os.path.dirname(
        os.path.dirname(os.path.abspath(meshtv.__file__))
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "meshtv", *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


def test_cli_synthetic_run(tmp_path):
    result = _run_cli(
        [
            "--synthetic", "icosphere_k=1,pattern=two_patch",
            "--out", str(tmp_path / "out"),
            "--noise-levels", "0.1",
            "--p-values", "0.5",
            "--trials", "1",
            "--lambda", "0.15",
            "--beta1", "2.0", "--beta2", "2.0",
            "--inner-max", "3000",
            "--no-time",
        ],
        cwd=str(tmp_path),
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out" / "results.csv").is_file()


def test_cli_results_csv_reads_back_with_a_comma_in_the_image_name(tmp_path):
    from grid_oracles import off_text

    mesh, image, _ = generate_synthetic("icosphere_k=1,pattern=two_patch")
    (tmp_path / "m.off").write_text(off_text(mesh))
    np.savetxt(tmp_path / "two,patch.txt", image.values, fmt="%.17g")
    result = _run_cli(
        ["--mesh", "m.off", "--image", "two,patch.txt", "--out", "out",
         "--noise-levels", "0.1", "--p-values", "0.5", "--trials", "1",
         "--lambda", "0.15", "--no-time"],
        cwd=str(tmp_path),
    )
    assert result.returncode == 0, result.stderr
    with open(tmp_path / "out" / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["image"], r["method"]) for r in rows] == [
        ("two,patch", "L1TV"), ("two,patch", "LpTV_p0.5")]
    for r in rows:
        assert float(r["psnr_db"]) > 0 and r["outer_iters"].isdigit()


def test_cli_requires_inputs(tmp_path):
    result = _run_cli(["--out", str(tmp_path / "out")], cwd=str(tmp_path))
    assert result.returncode != 0
    assert "synthetic" in result.stderr


def test_cli_missing_file_fails(tmp_path):
    result = _run_cli(
        ["--mesh", "nope.off", "--image", "nope.txt",
         "--out", str(tmp_path / "out")],
        cwd=str(tmp_path),
    )
    assert result.returncode == 1
    assert "error" in result.stderr.lower()


def _cli_spec(monkeypatch, argv):
    specs = []
    monkeypatch.setattr(cli, "run_experiment", lambda spec: specs.append(spec) or [])
    assert cli.main(argv) == 0
    (spec,) = specs
    return spec


def test_cli_sets_every_field(tmp_path, monkeypatch):
    out = str(tmp_path / "out")
    spec = _cli_spec(monkeypatch, [
        "--mesh", "m.off", "--image", "i.txt", "--synthetic", "icosphere_k=1",
        "--out", out, "--noise-levels", "0.2,0.4", "--p-values", "0.3",
        "--trials", "3", "--seed", "7", "--lambda", "0.5", "--rho", "2",
        "--beta1", "3", "--beta2", "4", "--eps", "0.01", "--outer-tol", "1e-4",
        "--outer-max", "9", "--inner-tol", "1e-5", "--inner-max", "11", "--no-time",
    ])
    solver = dict(lam=0.5, prox_weight=2.0, eps_support=0.01, outer_tol=1e-4,
                  outer_max_iter=9, beta1=3.0, beta2=4.0, inner_tol=1e-5,
                  inner_max_iter=11)
    fields = dict(output_dir=out, mesh_path="m.off", image_path="i.txt",
                  synthetic="icosphere_k=1", noise_levels=(0.2, 0.4),
                  p_values=(0.3,), trials=3, base_seed=7, record_time=False)
    assert dataclasses.asdict(spec) == {
        **fields, "solver": {**solver, "p": SolverConfig.p}}
    # every value differs from its default, so a dropped flag cannot pass
    defaults = ExperimentSpec(output_dir="", synthetic="")
    for name, value in solver.items():
        assert value != getattr(defaults.solver, name), name
    for name, value in fields.items():
        assert value != getattr(defaults, name), name


def test_cli_defaults_are_the_dataclass_defaults(tmp_path, monkeypatch):
    out = str(tmp_path / "out")
    spec = _cli_spec(monkeypatch, ["--synthetic", "icosphere_k=1", "--out", out])
    assert spec == ExperimentSpec(output_dir=out, synthetic="icosphere_k=1")
    assert spec.solver == SolverConfig()
    assert spec.solver.beta1 == spec.solver.beta2 == 10 * spec.solver.lam


@pytest.mark.parametrize("bad", [
    ["--trials", "0"],
    ["--noise-levels", "1.5"],
    ["--lambda", "-1"],
    ["--lambda", "nan"],
    ["--eps", "nan"],
    ["--beta1", "inf"],
    ["--noise-levels", ""],
    ["--noise-levels", "0.1,0.1"],
    ["--p-values", "0.5,0.5"],
    ["--seed", "-1"],
    # values that print alike would share a result label and output folder
    ["--noise-levels", "0.1,0.1000001"],
    ["--p-values", "0.5,0.5000001"],
])
def test_cli_invalid_values_exit_2(tmp_path, bad):
    argv = ["--synthetic", "icosphere_k=1,pattern=two_patch",
            "--out", str(tmp_path / "out"), *bad]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_cli_trace_records_unconverged_inner_solves(tmp_path):
    # one ADMM step per subproblem cannot meet the inner tolerance
    result = _run_cli(
        [
            "--synthetic", "icosphere_k=1,pattern=two_patch",
            "--out", str(tmp_path / "out"),
            "--noise-levels", "0.1",
            "--p-values", "0.5",
            "--trials", "1",
            "--lambda", "0.15",
            "--beta1", "2.0", "--beta2", "2.0",
            "--inner-max", "1", "--outer-max", "3",
            "--no-time",
        ],
        cwd=str(tmp_path),
    )
    assert result.returncode == 0, result.stderr
    traces = sorted((tmp_path / "out").rglob("trace.csv"))
    assert len(traces) == 2  # L1TV and LpTV_p0.5
    for path in traces:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert all(row["inner_converged"] == "False" for row in rows)


def test_a_sweep_factors_the_whole_mesh_once(tmp_path, monkeypatch):
    factored, built = [], []
    splu = admm.spla.splu
    init = admm.NormalEquationSystem.__init__

    def counting(matrix):
        factored.append(matrix.shape[0])
        return splu(matrix)

    def counting_init(self, gram, *args):
        built.append(gram.shape[0])
        init(self, gram, *args)

    monkeypatch.setattr(admm.spla, "splu", counting)
    # the benchmark's admm.factorize span wraps this method: it counts the
    # systems built, not the solves that get one
    monkeypatch.setattr(admm.NormalEquationSystem, "__init__", counting_init)
    # 2 noise levels x 2 trials x (L1-TV + one p) on the 42 vertices of
    # icosphere(1): each solve on every vertex gets the first one's system
    spec = _tiny_spec(tmp_path / "out")
    assert (len(spec.noise_levels), spec.trials, spec.p_values) == (2, 2, (0.5,))
    run_experiment(spec)
    assert factored.count(42) == 1 and built.count(42) == 1
    assert factored.count(42) < len(factored)
    assert built == factored


def test_cli_reports_an_out_of_memory_factorization(tmp_path, monkeypatch, capsys):
    def out_of_memory(matrix):
        raise MemoryError

    monkeypatch.setattr(admm.spla, "splu", out_of_memory)
    argv = ["--synthetic", "icosphere_k=1,pattern=two_patch",
            "--out", str(tmp_path / "out"), "--noise-levels", "0.1",
            "--p-values", "0.5", "--trials", "1", "--no-time"]
    assert cli.main(argv) == 1
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    # the L1-TV warm start factors the system of all 42 vertices first
    assert errors == ["error: out of memory factorizing the system of 42 "
                      "unknowns"]


def test_cli_reports_a_non_finite_iterate(tmp_path, monkeypatch, capsys):
    nan_at_step(monkeypatch, 3)
    argv = ["--synthetic", "icosphere_k=1,pattern=two_patch",
            "--out", str(tmp_path / "out"), "--noise-levels", "0.1",
            "--p-values", "0.5", "--trials", "1", "--no-time"]
    assert cli.main(argv) == 1
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert errors == ["error: ADMM produced non-finite vertex values"]
