"""Variational time-discrete solver for incompressible flow.

Each time step minimizes a back-traced kinetic term plus the Dirichlet
energy over discretely divergence-free fields; the analysis layer turns
the scheme's energy inequalities and weak-form identity into executable
checks.
"""

from .fields import (
    BoundaryCondition,
    GridSpec,
    ScalarField,
    VelocityField,
    divergence,
    grad_norm_sq,
    gradient,
    inner_product_l2,
    laplacian,
    norm_l2,
)
from .interpolate import InterpOrder, sample_offgrid
from .projection import (
    ProjectionError,
    leray_project,
    solve_implicit_stokes,
)
from .scheme import (
    DnsConfig,
    SolvePath,
    SolverFailure,
    backtrace,
    dns_step,
    functional_value,
    run,
)
from .analysis import (
    AnalyticVectorField,
    EnergyLedger,
    build_energy_ledger,
    check_cumulative_estimate,
    check_step_inequality,
    constant_analytic_field,
    default_test_functions,
    ledger_from_results,
    ledger_to_csv,
    material_derivative_identity,
    max_step_increment,
    monitor_assumption_a,
    stable_within_factor,
    weak_residual,
)
from .bench import (
    TaylorGreenOracle,
    convergence_study,
    random_solenoidal_field,
    stream_bump_field,
    taylor_green_field,
)

__version__ = "0.1.0"
