"""Harmonic-balance solver and verification suite for time-periodic
nonlinear acoustic wave equations with relaxation."""

from .errors import (
    ConfigError,
    ConfigSyntaxError,
    DegeneracyDetected,
    HbwaveError,
    InvalidModel,
    MaxIterExceeded,
    NoPeriodicAttractor,
    NonContraction,
    NonConvergedIteration,
    SingularMeanMode,
    SolveFailure,
    SolverFailure,
    StabilityViolation,
    StepRejected,
    TypeMismatch,
    UnknownCase,
    UnknownKey,
    Violation,
)
from .model import (
    BCKind,
    BoundaryCondition,
    Grid,
    HarmonicField,
    PhysicalParams,
    TimeField,
    ValidatedModel,
    collect_violations,
    dealiased_samples,
    min_samples,
    to_harmonics,
    to_time_samples,
    validate_model,
)
from .spatial import (
    SpatialOperator,
    assemble_laplacian,
    dual_norm_h1star,
    gradient,
    l2_norm,
    laplacian_fd,
    spatial_norms,
)
from .norms import l2l2_norm, parseval_weights, time_space_norm_sq, u0lo_norm, u0me_norm
from .linear import (
    FixedPointOptions,
    SolveReport,
    assemble_harmonic_system,
    fixed_point,
    kappa_squared,
    linear_residual,
    solve_linear_mgt,
    solve_linearized,
)
from .nonlinear import (
    alpha_samples,
    degeneracy_monitor,
    eval_bilinear,
    eval_nonlinearity,
    fixed_point_solve,
    solve,
)
from .diagnostics import (
    EnergyReport,
    Multipliers,
    choose_multipliers,
    coefficient_smallness_report,
    compute_energies,
    energy_identity_residual,
    estimate_ratio_report,
    estimate_rhs_hi,
    estimate_rhs_lo,
    estimate_rhs_me,
)
from .studies import (
    ManufacturedCase,
    StudyResult,
    convergence_study,
    manufactured_case,
    oracle_discrepancy,
    solve_case,
    tau_sweep,
    taylor_test,
    time_stepping_oracle,
)
from .io import (
    RunSetup,
    apply_overrides,
    build_setup,
    parse_config,
    read_solution_csv,
    write_csv,
    write_energy_csv,
    write_solution_csv,
)
from .cli import main, run_command

__version__ = "0.1.0"
