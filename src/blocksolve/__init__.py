"""Two-stage block-Jacobi (multisplitting) solver framework.

Outer block Jacobi over a 3D block grid with synchronous or asynchronous
halo exchange, pluggable inner solvers per block, a simulated multi-worker
communication fabric with seeded delay injection, and a CLI harness for
parameter studies.
"""

from .comm import DelayModel, Fabric, ReductionTree
from .errors import ConfigurationError, ProtocolError, SolverBreakdownError
from .inner_solvers import InnerSolveReport, InnerSolverSpec, prepare
from .linalg import (
    SparseMatrix,
    ZeroRhsError,
    residual_norms,
    spmv,
)
from .multisplit import (
    OuterConfig,
    ResidualTrace,
    SolveResult,
    combined_residual,
    iteration_operator,
    outer_solve,
    true_relative_residual,
)
from .problems import (
    BlockDecomposition,
    DirichletBoundary,
    Grid3D,
    LinearProblem,
    block_system,
    build_laplace_3d,
    decompose,
)

__version__ = "0.1.0"

__all__ = [
    "BlockDecomposition",
    "ConfigurationError",
    "DelayModel",
    "DirichletBoundary",
    "Fabric",
    "Grid3D",
    "InnerSolveReport",
    "InnerSolverSpec",
    "LinearProblem",
    "OuterConfig",
    "ProtocolError",
    "ReductionTree",
    "ResidualTrace",
    "SolveResult",
    "SolverBreakdownError",
    "SparseMatrix",
    "ZeroRhsError",
    "block_system",
    "build_laplace_3d",
    "combined_residual",
    "decompose",
    "iteration_operator",
    "outer_solve",
    "prepare",
    "residual_norms",
    "spmv",
    "true_relative_residual",
]
