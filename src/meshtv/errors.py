"""Exception types shared across the package."""


class MeshTVError(Exception):
    """Base class for all package-specific errors."""


class ParseError(MeshTVError):
    """Mesh or image file could not be parsed."""


class DegenerateTriangle(MeshTVError):
    """Triangle with a repeated vertex, (near-)zero area, or coordinates too
    large for its area to be finite."""


class IndexOutOfRange(MeshTVError):
    """Face references a vertex index outside [0, n_vertices)."""


class IsolatedVertex(MeshTVError):
    """Vertex not referenced by any triangle."""


class DimensionMismatch(MeshTVError):
    """Operands disagree on vertex / triangle / channel counts."""


class NaNInput(MeshTVError):
    """Input contains a NaN or infinite value where finite values are required."""


class ZeroResidualInSupport(MeshTVError):
    """A supported value has an exactly zero residual (support bookkeeping bug)."""


class SupportGrew(MeshTVError):
    """An outer iteration's support gained an index that had been pinned."""


class NonFiniteIterate(MeshTVError):
    """Solver produced NaN or infinite values."""


class IterationLimitExceeded(MeshTVError):
    """Iterative linear solver hit its iteration cap before converging."""


class SingularSystem(MeshTVError):
    """Normal-equation matrix could not be factorized or solved."""


class InvalidParams(MeshTVError):
    """Bad parameters for synthetic data generation."""
