"""Numerical toolkit for the one-dimensional Dicke lattice: mean-field
ground states, symplectic fluctuation spectra and critical scaling of the
frustrated superradiant phase transition."""

from .errors import (
    ConvergenceError,
    DomainError,
    FitQualityError,
    FrustraError,
    InstabilityError,
    PhaseError,
    ValidationError,
)
from .fluctuations import (
    CovarianceMatrix,
    ModeWeights,
    QuadraticForm,
    WilliamsonDecomposition,
    analytic_nfsp_spectrum,
    analytic_np_spectrum,
    build_quadratic_hamiltonian,
    covariance,
    fsp_frustrated_mode_energy,
    mode_weights,
    photon_number,
    squeezing_variance,
    symplectic_form,
    symplectic_spectrum_modulus,
    williamson_diagonalize,
)
from .meanfield import (
    CriticalModes,
    GroundStateSolution,
    Phase,
    SolverOptions,
    enumerate_degenerate_ground_states,
    fsp_approximation,
    hessian_critical_modes,
    nfsp_closed_form,
    saddle_configuration,
    solve_ground_state,
    solve_ground_states,
)
from .model import (
    MeanFieldConfiguration,
    ModelParams,
    critical_point,
    energy_gradient,
    energy_hessian,
    origin_hessian_eigenvalues,
    rescaled_energy,
    stability_window,
)
from .scaling import (
    DerivativeDiagnostics,
    ExponentReport,
    PowerLawFit,
    SweepResult,
    SweepSpec,
    energy_derivative_diagnostics,
    extract_exponents,
    fit_power_law,
    run_sweep,
)

__version__ = "0.1.0"
