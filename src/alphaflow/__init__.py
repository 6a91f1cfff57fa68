"""Pseudospectral Maxwell-alpha / Euler-alpha solver and verification harness."""

__version__ = "0.1.0"

from .errors import (
    AlphaFlowError,
    BoundOverflow,
    CflViolation,
    CheckpointError,
    CheckpointFormatError,
    CheckpointTruncated,
    CheckpointVersionError,
    ConfigurationError,
    ContractViolation,
    IntegrationBlowup,
)
from .spectral import Grid
from .fields import (
    PhysicalParams,
    SpinField,
    StressField,
    VelocityField,
    energy,
    random_divfree,
    random_stress,
    strain,
    vorticity,
)
from .operators import (
    TestPair,
    commutator_hat,
    gronwall_weight,
    identity_suite,
    momentum_residual,
    momentum_transport,
    stress_divergence,
    stress_residual,
)
from .gronwall import MarginReport, exponential_bound
from .solver import (
    SimConfig,
    SolverState,
    Trajectory,
    energy_law_residuals,
    initial_condition,
    run,
)
from .dissipative import (
    DissipativeReport,
    alpha_sweep,
    calibrate_gamma,
    inequality_margin,
)
from .abstract_ode import (
    MollifiedFamily,
    OdePath,
    OdeProblem,
    apriori_bound,
    apriori_bound_holds,
    dissipative_margin,
    integrate,
    one_sided_bound_from_decomposition,
)
from .config import config_from_dict, config_to_dict, parse_config
from .checkpoint import read_trajectory, write_trajectory

__all__ = [name for name in dir() if not name.startswith("_")]
