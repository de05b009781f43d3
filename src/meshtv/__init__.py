"""Salt-and-pepper denoising of vertex images on triangle meshes.

The restoration model combines a nonconvex |.|^p data-fitting term with
area-weighted total variation of the piecewise-linear interpolant.  It is
minimized by proximal linearization with support shrinking; each convex
subproblem is solved by ADMM, warm-started from an L1-TV solution.

The package root exports what a restoration run needs; solver internals stay
importable from their submodules.
"""

from .config import SolverConfig
from .errors import MeshTVError
from .experiment import ExperimentSpec, run_experiment
from .gradient import build_gradient_operator
from .imaging import MeshImage, NoiseSpec, add_salt_pepper, psnr, read_image
from .lptv import objective, plm_solve
from .mesh import load_mesh
from .synthetic import generate_synthetic, icosphere

__all__ = [
    "ExperimentSpec",
    "MeshImage",
    "MeshTVError",
    "NoiseSpec",
    "SolverConfig",
    "add_salt_pepper",
    "build_gradient_operator",
    "generate_synthetic",
    "icosphere",
    "load_mesh",
    "objective",
    "plm_solve",
    "psnr",
    "read_image",
    "run_experiment",
]

__version__ = "0.1.0"
