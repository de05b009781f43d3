"""Command-line experiment runner."""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys

from .config import SolverConfig
from .errors import MeshTVError
from .experiment import ExperimentSpec, run_experiment


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number list: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    """The CLI's options, each stored under the name of the dataclass field
    it sets; an option not given stays unset, so its field keeps its default."""
    parser = argparse.ArgumentParser(
        prog="meshtv",
        description=(
            "Remove salt-and-pepper noise from vertex images on triangle "
            "meshes.  Runs an L1-TV baseline and the nonconvex Lp-TV solver "
            "over a sweep of noise levels and p values, writing restored "
            "meshes, solver traces, and a PSNR table."
        ),
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--mesh", dest="mesh_path", metavar="PATH",
                        help="input mesh (.off, .obj, or ASCII .ply)")
    parser.add_argument("--image", dest="image_path", metavar="PATH",
                        help="clean per-vertex image (.txt or .ply)")
    parser.add_argument("--synthetic", metavar="SPEC",
                        help="generate mesh and image instead of loading, "
                             "e.g. icosphere_k=3,pattern=two_patch")
    parser.add_argument("--out", dest="output_dir", metavar="DIR", required=True,
                        help="output directory (results.csv plus per-method "
                             "restored.ply and trace.csv)")
    parser.add_argument("--noise-levels", type=_float_list, metavar="A,B,...")
    parser.add_argument("--p-values", type=_float_list, metavar="A,B,...")
    parser.add_argument("--trials", type=int, metavar="N")
    parser.add_argument("--seed", dest="base_seed", type=int, metavar="N",
                        help="base RNG seed; trial t uses seed + t")
    parser.add_argument("--lambda", dest="lam", type=float, metavar="X",
                        help="data-fitting weight")
    parser.add_argument("--rho", dest="prox_weight", type=float, metavar="X",
                        help="proximal weight of the outer subproblems")
    parser.add_argument("--beta1", type=float, metavar="X",
                        help="ADMM fidelity penalty (default 10*lambda)")
    parser.add_argument("--beta2", type=float, metavar="X",
                        help="ADMM gradient penalty (default 10*lambda)")
    parser.add_argument("--eps", dest="eps_support", type=float, metavar="X",
                        help="support threshold on the [0,1] scale")
    parser.add_argument("--outer-tol", type=float, metavar="X")
    parser.add_argument("--outer-max", dest="outer_max_iter", type=int, metavar="N")
    parser.add_argument("--inner-tol", type=float, metavar="X")
    parser.add_argument("--inner-max", dest="inner_max_iter", type=int, metavar="N")
    parser.add_argument("--no-time", dest="record_time", action="store_false",
                        help="write zeros for wall time so repeated runs "
                             "produce byte-identical results.csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = vars(parser.parse_args(argv))
    if "synthetic" not in args and not {"mesh_path", "image_path"} <= args.keys():
        parser.error("either --synthetic or both --mesh and --image are required")

    solver_fields = {f.name for f in dataclasses.fields(SolverConfig)}
    try:
        solver = SolverConfig(**{k: v for k, v in args.items() if k in solver_fields})
        spec = ExperimentSpec(
            solver=solver, **{k: v for k, v in args.items() if k not in solver_fields}
        )
    except ValueError as exc:
        parser.error(str(exc))

    try:
        rows = run_experiment(spec)
    except (MeshTVError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"wrote {len(rows)} result rows to {spec.output_dir}/results.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
