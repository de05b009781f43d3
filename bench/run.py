"""meshtv benchmark: one workload per run, one fresh process per run.

    python3 bench/run.py --workload lptv-sparse3 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The package is imported from ``src/`` next
to this directory; without it the run exits with status 1 and no result.
Solves run one after another in this process (a closed loop with one
caller), with BLAS and OpenMP held to one thread.

``--trace 0`` sets up once, then measures for ``--seconds``: it repeats the
workload's unit of work while the next unit and a reserve for set-ups still
fit (at least once), reads the peak memory, then sets up again for the rest
of the window (at least three timed set-ups).  Each unit and set-up is timed
between two readings of a CPU-speed probe and scaled to the probe's
reference speed (see ``SpeedProbe``); ``wall_s`` and ``setup_s`` are the
medians of the scaled times, and the raw ones are printed beside them.
``--trace 1`` runs one untraced unit, then one traced set-up and unit, and
reports the per-layer metrics.  Every solve is checked (see checks.py); the
last line of standard output is the JSON result.
"""

from __future__ import annotations

import os

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
if __name__ == "__main__":
    # before numpy is imported anywhere in this process
    for _name in THREAD_VARIABLES:
        os.environ[_name] = "1"

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "psnr_db": "dB",
                    "objective": "1", "peak_rss_mb": "MB"}


def import_program():
    """Import meshtv from this checkout's src/; exit 1 if it is not there."""
    sys.path.insert(0, SRC)
    try:
        import meshtv
    except ImportError as exc:
        sys.exit(f"bench: cannot import meshtv from {SRC}: {exc}")
    if not os.path.abspath(meshtv.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: meshtv came from {meshtv.__file__}, not {SRC}")


def environment(w, run) -> dict:
    import numpy
    import scipy
    from meshtv import admm

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    limit = getattr(admm, "DIRECT_SOLVE_MAX_VERTICES", None)
    n = run.op.n_vertices
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "DIRECT_SOLVE_MAX_VERTICES": limit,
        "n_vertices": n,
        "solver_path_by_limit": None if limit is None else
        ("lu" if n <= limit else "cg"),
        "config": w.describe(),
    }


SETUP_REPS = 3        # timed set-ups in a run, at least
SETUP_SHARE = 0.1     # share of the window kept for set-ups, at least
PROBE_REPS = 5        # runs of the probe kernel per speed reading
PROBE_REF_S = 0.002   # the probe kernel's time at the reference CPU speed


class SpeedProbe:
    """Reads the CPU speed this process gets right now: the median time of
    ``PROBE_REPS`` runs of a fixed kernel (a pure-Python loop and three
    200x200 matrix products, one thread), about 2 ms at the reference speed.

    On a shared host that speed drifts by up to 1.8x over seconds to
    minutes, and the program's solves slow down with it by about the same
    factor.  Dividing a time by the probe readings taken just before and
    after it gives the time at the reference speed, which varies far less
    from run to run; the program's own speed-ups and slow-downs pass through
    unchanged, because the probe runs none of its code."""

    def __init__(self):
        import numpy as np

        self.matrix = np.random.default_rng(0).random((200, 200))

    def __call__(self) -> float:
        times = []
        for _ in range(PROBE_REPS):
            tic = time.perf_counter()
            total = 0
            for i in range(20000):
                total += i * i
            for _ in range(3):
                self.matrix @ self.matrix
            times.append(time.perf_counter() - tic)
        return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(run, first_setup_s: float, seconds: float) -> dict:
    """Units, then set-ups, within ``seconds``, each between two probe
    readings and scaled to the reference speed.

    Units run back to back while the next one and the set-up reserve still
    fit.  The peak memory is read after them (one set-up and the units), and
    set-ups repeat for the rest of the window, at least ``SETUP_REPS``."""
    probe = SpeedProbe()
    start = time.perf_counter()
    reserve = max(SETUP_REPS * first_setup_s, SETUP_SHARE * seconds)
    units, unit_s, setup_s, readings = [], [], [], [probe()]

    def scaled(elapsed_s: float) -> float:
        readings.append(probe())
        return elapsed_s * 2.0 * PROBE_REF_S / (readings[-2] + readings[-1])

    while True:
        units.append(run.unit())
        unit_s.append(scaled(units[-1].wall_s))
        if time.perf_counter() - start + units[-1].wall_s + reserve > seconds:
            break
    peak_mb = peak_rss_mb()
    raw_setup_s = []
    while (len(setup_s) < SETUP_REPS or time.perf_counter() - start
           + raw_setup_s[-1] + readings[-1] * PROBE_REPS <= seconds):
        raw_setup_s.append(run.setup())
        setup_s.append(scaled(raw_setup_s[-1]))
    print(f"raw wall_s median {statistics.median(u.wall_s for u in units):.6g} "
          f"min {min(u.wall_s for u in units):.6g}  raw setup_s median "
          f"{statistics.median(raw_setup_s):.6g} ({len(raw_setup_s)} set-ups)  "
          f"probe median {statistics.median(readings):.6g} s "
          f"(reference {PROBE_REF_S:g} s)")
    return {"units": units, "wall_s": statistics.median(unit_s),
            "setup_s": statistics.median(setup_s), "peak_rss_mb": peak_mb}


def end_to_end(m: dict) -> dict:
    from checks import pooled_psnr_db

    final = [r for u in m["units"] for r in u.records if r.final]
    return {
        "setup_s": m["setup_s"],
        "wall_s": m["wall_s"],
        "psnr_db": pooled_psnr_db([(r.restored, r.clean) for r in final])
        if final else math.nan,
        "objective": statistics.fmean(r.objective for r in final)
        if final else math.nan,
        "peak_rss_mb": m["peak_rss_mb"],
    }


PER_LAYER_UNITS = {
    "admm.solve_s": "s", "admm.solve_calls": "count",
    "admm.factorize_s": "s", "admm.factorize_calls": "count",
    "admm.shrink_s": "s", "admm.loop_self_s": "s",
    "admm.inner_iters": "count", "admm.inner_unconverged": "count",
    "admm.cg_path": "flag",
    "gradient.apply_s": "s", "gradient.apply_calls": "count",
    "gradient.adjoint_s": "s", "gradient.adjoint_calls": "count",
    "gradient.bytes_per_apply": "B",
    "gradient.build_s": "s", "gradient.gram_s": "s", "gradient.gram_calls": "count",
    "lptv.outer_iters": "count", "lptv.support_initial": "count",
    "lptv.support_final": "count", "lptv.free_fraction": "fraction",
    "lptv.support_frozen_at": "iter", "lptv.objective_s": "s",
    "lptv.support_s": "s", "lptv.self_s": "s", "lptv.min_slack": "1",
    "synthetic.mesh_s": "s", "mesh.load_s": "s", "imaging.read_s": "s",
    "imaging.write_s": "s", "imaging.noise_s": "s", "experiment.self_s": "s",
    "trace.overhead_s": "s", "trace.hooks_missing": "count",
}

# per-layer metric -> (span name, statistic) read from the tracer
SPAN_METRICS = {
    "admm.solve_s": ("admm.solve", "total_s"),
    "admm.solve_calls": ("admm.solve", "calls"),
    "admm.factorize_s": ("admm.factorize", "total_s"),
    "admm.factorize_calls": ("admm.factorize", "calls"),
    "admm.shrink_s": ("admm.shrink", "total_s"),
    "admm.loop_self_s": ("admm.subproblem", "self_s"),
    "gradient.apply_s": ("gradient.apply", "total_s"),
    "gradient.apply_calls": ("gradient.apply", "calls"),
    "gradient.adjoint_s": ("gradient.adjoint", "total_s"),
    "gradient.adjoint_calls": ("gradient.adjoint", "calls"),
    "gradient.build_s": ("gradient.build", "total_s"),
    "gradient.gram_s": ("gradient.gram", "total_s"),
    "gradient.gram_calls": ("gradient.gram", "calls"),
    "lptv.objective_s": ("lptv.objective", "total_s"),
    "lptv.support_s": ("lptv.support", "total_s"),
    "lptv.self_s": ("lptv.plm_solve", "self_s"),
    "synthetic.mesh_s": ("synthetic.mesh", "total_s"),
    "mesh.load_s": ("mesh.load", "total_s"),
    "imaging.read_s": ("imaging.read", "total_s"),
    "imaging.write_s": ("imaging.write", "total_s"),
    "imaging.noise_s": ("imaging.noise", "total_s"),
}


def solve_counts(records) -> dict:
    """Iteration and support counts over the solves of one unit.  Support
    figures cover the Lp-TV solves, or the L1-TV ones when there are none."""
    lp = [r for r in records if r.p < 1.0] or records
    total_values = sum(r.noisy.size for r in lp)
    final = sum(int(r.support_sizes[-1]) for r in lp)
    frozen = [int(next(i for i, s in enumerate(r.support_sizes)
                       if s == r.support_sizes[-1])) for r in lp]
    return {
        "admm.inner_iters": sum(int(r.inner_iterations.sum()) for r in records),
        "admm.inner_unconverged": sum(int((~r.inner_converged.astype(bool)).sum())
                                      for r in records),
        "lptv.outer_iters": sum(len(r.support_sizes) for r in records),
        "lptv.support_initial": sum(int(r.support_sizes[0]) for r in lp),
        "lptv.support_final": final,
        "lptv.free_fraction": final / total_values,
        "lptv.support_frozen_at": statistics.fmean(frozen),
        "lptv.min_slack": min(float(r.slacks.min()) for r in records),
    }


def bytes_per_apply(op, channels: int) -> float:
    """Computed bytes one CSR gradient product reads and writes: values and
    column indices once per nonzero, row pointers, input and output.  Zero
    when the operator keeps no CSR matrix."""
    m = getattr(op, "matrix", None)
    if m is None:
        return 0.0
    return float(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
                 + 8 * channels * (m.shape[0] + m.shape[1]))


def per_layer(run, untraced_wall_s: float, out_path: str):
    """One traced set-up and unit.  Returns the per-layer metrics, the traced
    unit, the hook targets that were missing and the linear-solver paths
    that ran."""
    from tracing import Tracer

    paths = set()

    def factorized(args, result):
        system = args[0]
        lu = getattr(system, "_lu", False)
        paths.add("unknown" if lu is False else ("cg" if lu is None else "lu"))

    with Tracer(observers={"admm.factorize": factorized}) as tracer:
        run.setup()
        unit = run.unit()
    stats = tracer.stats()
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    metrics.update({name: float(getattr(stats[span], stat))
                    for name, (span, stat) in SPAN_METRICS.items() if span in stats})
    metrics["experiment.self_s"] = sum(
        stats[span].self_s for span in ("cli.main", "experiment.run") if span in stats)
    metrics["admm.cg_path"] = 1.0 if "cg" in paths else 0.0
    metrics["gradient.bytes_per_apply"] = bytes_per_apply(
        run.op, run.clean.shape[1])
    if unit.records:
        metrics.update(solve_counts(unit.records))
    metrics["trace.overhead_s"] = unit.wall_s - untraced_wall_s
    metrics["trace.hooks_missing"] = len(tracer.missing)
    tracer.write_csv(out_path)
    return metrics, unit, tracer.missing, sorted(paths)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, make_run

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{w.name}-", dir=os.path.join(ROOT, ".bench_tmp"))
    try:
        run = make_run(w, args.seed, workdir)
        first_setup_s = run.setup()
        print("env " + json.dumps(environment(w, run), sort_keys=True))
        if args.trace:
            units = [run.unit()]
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            metrics, traced, missing, paths = per_layer(
                run, units[0].wall_s,
                os.path.join(out_dir, f"spans-{w.name}-seed{args.seed}.csv"))
            units.append(traced)
            units_of = PER_LAYER_UNITS
            for target in missing:
                print(f"hook missing: {target} (not found in this meshtv; "
                      "its spans read 0)")
            print(f"solver path (traced): {', '.join(paths) or 'none'}")
        else:
            measured = measure(run, first_setup_s, args.seconds)
            units = measured["units"]
            metrics = end_to_end(measured)
            units_of = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_tmp"))
        except OSError:
            pass

    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    for u in units:
        for reason in u.reasons:
            print(f"failed: {reason}")
    print(f"units {len(units)}  unit wall_s "
          + " ".join(f"{u.wall_s:.3f}" for u in units))
    print(f"failed_fraction {failed / attempted:.6g} fraction "
          f"({failed} of {attempted} solves)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units_of[name]}")
    finite = all(math.isfinite(v) for v in metrics.values())
    result = {
        "correct": failed == 0 and finite,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None,
                           "unit": units_of[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
