"""Command-line experiment runner."""

from __future__ import annotations

import argparse
import logging
import sys

from .config import SolverConfig
from .errors import MeshTVError
from .experiment import ExperimentSpec, run_experiment


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number list: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    """The CLI's options; every default is the matching dataclass default."""
    parser = argparse.ArgumentParser(
        prog="meshtv",
        description=(
            "Remove salt-and-pepper noise from vertex images on triangle "
            "meshes.  Runs an L1-TV baseline and the nonconvex Lp-TV solver "
            "over a sweep of noise levels and p values, writing restored "
            "meshes, solver traces, and a PSNR table."
        ),
    )
    parser.add_argument("--mesh", metavar="PATH",
                        help="input mesh (.off, .obj, or ASCII .ply)")
    parser.add_argument("--image", metavar="PATH",
                        help="clean per-vertex image (.txt or .ply)")
    parser.add_argument("--synthetic", metavar="SPEC",
                        help="generate mesh and image instead of loading, "
                             "e.g. icosphere_k=3,pattern=two_patch")
    parser.add_argument("--out", metavar="DIR", required=True,
                        help="output directory (results.csv plus per-method "
                             "restored.ply and trace.csv)")
    parser.add_argument("--noise-levels", type=_float_list, metavar="A,B,...",
                        default=list(ExperimentSpec.noise_levels))
    parser.add_argument("--p-values", type=_float_list, metavar="A,B,...",
                        default=list(ExperimentSpec.p_values))
    parser.add_argument("--trials", type=int, default=ExperimentSpec.trials,
                        metavar="N")
    parser.add_argument("--seed", type=int, default=ExperimentSpec.base_seed,
                        metavar="N", help="base RNG seed; trial t uses seed + t")
    parser.add_argument("--lambda", dest="lam", type=float, default=SolverConfig.lam,
                        metavar="X", help="data-fitting weight")
    parser.add_argument("--rho", type=float, default=SolverConfig.prox_weight,
                        metavar="X", help="proximal weight of the outer subproblems")
    parser.add_argument("--beta1", type=float, default=SolverConfig.beta1, metavar="X",
                        help="ADMM fidelity penalty (default 10*lambda)")
    parser.add_argument("--beta2", type=float, default=SolverConfig.beta2, metavar="X",
                        help="ADMM gradient penalty (default 10*lambda)")
    parser.add_argument("--eps", type=float, default=SolverConfig.eps_support,
                        metavar="X", help="support threshold on the [0,1] scale")
    parser.add_argument("--outer-tol", type=float, default=SolverConfig.outer_tol,
                        metavar="X")
    parser.add_argument("--outer-max", type=int, default=SolverConfig.outer_max_iter,
                        metavar="N")
    parser.add_argument("--inner-tol", type=float, default=SolverConfig.inner_tol,
                        metavar="X")
    parser.add_argument("--inner-max", type=int, default=SolverConfig.inner_max_iter,
                        metavar="N")
    parser.add_argument("--no-time", action="store_true",
                        help="write zeros for wall time so repeated runs "
                             "produce byte-identical results.csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.synthetic is None and (args.mesh is None or args.image is None):
        parser.error("either --synthetic or both --mesh and --image are required")

    try:
        solver = SolverConfig(
            lam=args.lam,
            prox_weight=args.rho,
            eps_support=args.eps,
            outer_tol=args.outer_tol,
            outer_max_iter=args.outer_max,
            beta1=args.beta1,
            beta2=args.beta2,
            inner_tol=args.inner_tol,
            inner_max_iter=args.inner_max,
        )
        spec = ExperimentSpec(
            output_dir=args.out,
            mesh_path=args.mesh,
            image_path=args.image,
            synthetic=args.synthetic,
            noise_levels=tuple(args.noise_levels),
            p_values=tuple(args.p_values),
            trials=args.trials,
            base_seed=args.seed,
            solver=solver,
            record_time=not args.no_time,
        )
    except ValueError as exc:
        parser.error(str(exc))

    try:
        rows = run_experiment(spec)
    except (MeshTVError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"wrote {len(rows)} result rows to {args.out}/results.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
