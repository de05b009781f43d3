"""Tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from checks import SolveRecord, results_csv_failures, solve_failures  # noqa: E402
from tracing import Patches, Tracer  # noqa: E402
from workloads import Unit, _checked  # noqa: E402


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", ["smoke", "smoke-cli"])
def test_smoke_run_prints_every_end_to_end_metric(workload):
    out = _run(workload, 0)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in _benchmark_spec()["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        value = result["metrics"][name]["value"]
        assert value > 0
        assert any(line.split()[::2] == [name, unit] for line in lines[:-1]), name
    assert set(result["metrics"]) == {m["name"] for m in _benchmark_spec()["end_to_end"]}
    assert any(line.startswith("failed_fraction 0 fraction") for line in lines)


@pytest.mark.parametrize("workload", ["smoke", "smoke-cli"])
def test_traced_smoke_run_reports_every_per_layer_metric(workload):
    out = _run(workload, 1)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"]
    wanted = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert result["metrics"]["trace.hooks_missing"]["value"] == 0
    assert result["metrics"]["admm.solve_calls"]["value"] > 0
    assert result["metrics"]["admm.inner_iters"]["value"] > 0


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("smoke", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def _good_record(**changes) -> SolveRecord:
    """A hand-made Lp-TV result that passes every check: two of six values
    stay in the support, the rest are pinned to the data exactly."""
    clean = np.array([[0.25], [0.25], [0.75], [0.75], [0.25], [0.75]])
    noisy = clean.copy()
    noisy[[1, 4], 0] = [1.0, 0.0]
    restored = noisy.copy()
    restored[[1, 4], 0] = [0.26, 0.24]
    fields = dict(
        p=0.5, eps_support=1e-3, noisy=noisy, restored=restored, clean=clean,
        converged=True, support_sizes=np.array([6, 3, 2, 2]),
        slacks=np.array([0.5, 0.1, 1e-9, 0.0]),
        objective_start=4.0,
        inner_iterations=np.array([40, 30, 20, 10]),
        inner_converged=np.array([True] * 4), objective=3.4, psnr_floor=30.0,
    )
    fields.update(changes)
    return SolveRecord(**fields)


def test_checker_passes_the_good_record():
    assert solve_failures(_good_record()) == []


def test_checker_fails_a_perturbed_pinned_value():
    rec = _good_record()
    rec.restored[0, 0] += 1e-7
    assert any("residual" in r for r in solve_failures(rec))


@pytest.mark.parametrize("changes, word", [
    ({"support_sizes": np.array([6, 3, 4, 2])}, "support grew"),
    ({"slacks": np.array([0.5, -1e-5, 0.0, 0.0])}, "slack"),
    ({"converged": False}, "converge"),
    ({"psnr_floor": 60.0}, "PSNR"),
])
def test_checker_fails_a_bad_trace(changes, word):
    assert any(word in r for r in solve_failures(_good_record(**changes)))


def test_checker_fails_non_finite_output():
    rec = _good_record()
    rec.restored[2, 0] = np.nan
    assert any("non-finite" in r for r in solve_failures(rec))


def test_failed_checks_count_as_failed_solves():
    bad = _good_record(support_sizes=np.array([6, 7, 2, 2]))
    unit = _checked(Unit(1.0, [_good_record(), bad, bad], attempted=3))
    assert unit.failed == 2 and len(unit.reasons) == 2


def test_results_csv_row_count_is_checked(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text("image,noise_level,method,psnr_db,wall_time_s,outer_iters\n"
                    "img,0.1,L1TV,30.5,0.1,1\n")
    assert results_csv_failures(str(path), 1) == []
    assert results_csv_failures(str(path), 3)
    assert results_csv_failures(str(tmp_path / "missing.csv"), 1)


def test_missing_hook_target_is_reported_not_raised():
    with Patches() as patches:
        assert not patches.wrap("meshtv.admm", "no_such_function", lambda f: f)
        assert not patches.wrap("meshtv.no_such_module", "x", lambda f: f)
    assert patches.missing == ["meshtv.admm.no_such_function",
                               "meshtv.no_such_module.x"]


def test_tracer_restores_targets_and_derives_self_time():
    import meshtv.gradient
    from meshtv.synthetic import icosphere
    from meshtv.gradient import build_gradient_operator

    original = meshtv.gradient.apply
    op = build_gradient_operator(icosphere(1))
    with Tracer() as tracer:
        assert meshtv.gradient.apply is not original
        meshtv.gradient.apply(op, np.ones(op.n_vertices))
    assert meshtv.gradient.apply is original
    assert tracer.missing == []
    stats = tracer.stats()
    assert stats["gradient.apply"].calls == 1

    tracer.spans[:] = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0],
                       ["inner", 5.0, 6.0, 0], ["leaf", 2.0, 2.5, 1]]
    stats = tracer.stats()
    assert stats["outer"].self_s == pytest.approx(10.0 - 3.0 - 1.0)
    assert stats["inner"].self_s == pytest.approx(3.0 - 0.5 + 1.0)
    assert stats["inner"].total_s == pytest.approx(4.0)
    assert stats["leaf"].calls == 1


def test_times_are_scaled_by_the_speed_probe(monkeypatch):
    import run

    class FakeRun:
        def unit(self):
            return Unit(0.5, [], 1)

        def setup(self):
            return 0.1

    # a host at half the reference speed: every time reads twice as long
    monkeypatch.setattr(run, "SpeedProbe", lambda: lambda: 2.0 * run.PROBE_REF_S)
    measured = run.measure(FakeRun(), 0.1, seconds=0.2)
    assert len(measured["units"]) == 1
    assert measured["wall_s"] == pytest.approx(0.25)
    assert measured["setup_s"] == pytest.approx(0.05)
