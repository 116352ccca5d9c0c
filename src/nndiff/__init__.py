"""Maximum-principle-preserving solvers for anisotropic diffusion.

Solves steady and transient diffusion problems on unstructured tet/hex
meshes with either the classical Galerkin linear solve or a
bound-constrained quadratic program that enforces the discrete maximum
principle, and models solver performance with a FLOP/byte roofline ledger.
"""

from .diagnostics import dmp_check
from .fem import (
    AssembledSystem,
    DiffusivityField,
    DispersionParams,
    ReducedSystem,
    apply_dirichlet,
    assemble,
    dispersion_tensor,
)
from .mesh import (
    BoundarySpec,
    Mesh,
    cell_volumes,
    generate_box,
    generate_cube_with_hole,
    refine_uniform,
    with_boundary_markers,
)
from .mesh_io import read_gmsh, write_gmsh, write_vtk
from .perf import PerfEnvelope, arithmetic_intensity, efficiency
from .qp import (
    QpProblem,
    gradient,
    kkt_check,
    objective,
    project,
    projected_gradient,
    solve_blmvm,
    solve_tron,
)
from .sparse import (
    CsrMatrix,
    OpLedger,
    SolveReport,
    cg_solve,
    make_preconditioner,
    read_matrix_market,
    spmv,
    write_matrix_market,
)
from .transient import (
    TransientConfig,
    TransientResult,
    build_transient_operator,
    build_transient_rhs,
    write_step_csv,
)
from .transient import run as run_transient

__version__ = "0.1.0"

__all__ = [
    "AssembledSystem",
    "BoundarySpec",
    "CsrMatrix",
    "DiffusivityField",
    "DispersionParams",
    "Mesh",
    "OpLedger",
    "PerfEnvelope",
    "QpProblem",
    "ReducedSystem",
    "SolveReport",
    "TransientConfig",
    "TransientResult",
    "apply_dirichlet",
    "arithmetic_intensity",
    "assemble",
    "build_transient_operator",
    "build_transient_rhs",
    "cell_volumes",
    "cg_solve",
    "dispersion_tensor",
    "dmp_check",
    "efficiency",
    "generate_box",
    "generate_cube_with_hole",
    "gradient",
    "kkt_check",
    "make_preconditioner",
    "objective",
    "project",
    "projected_gradient",
    "read_gmsh",
    "read_matrix_market",
    "refine_uniform",
    "run_transient",
    "solve_blmvm",
    "solve_tron",
    "spmv",
    "with_boundary_markers",
    "write_gmsh",
    "write_matrix_market",
    "write_step_csv",
    "write_vtk",
]
