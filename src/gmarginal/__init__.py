"""Compatibility and synthesis of global and local spectra of Gaussian states.

The package answers two questions about n-mode Gaussian states with
covariance matrix V (quadrature ordering q1, p1, ..., qn, pn, vacuum = 1):

* whether prescribed per-mode local parameters m are reachable from global
  symplectic eigenvalues kappa (``dominates``), and
* how to build a state realizing a compatible pair with at most n - 1
  two-mode transformations (``synthesize``), or conversely how to
  diagonalize a given state by two-mode pivots (``jacobi_decompose``).
"""

from .exceptions import (
    IncompatibleSpectraError,
    InfeasibleRedistributionError,
    InvalidCovarianceError,
    NumericalError,
    UnphysicalSpectrumError,
)
from .solver import (
    JacobiStep,
    JacobiTrace,
    SynthesisStep,
    SynthesisTrace,
    VerifyReport,
    jacobi_decompose,
    synthesize,
    verify,
)
from .spectra import (
    DominanceCertificate,
    WilliamsonFactorization,
    check_physical,
    dominates,
    symplectic_spectrum,
    williamson,
)
from .symplectic import (
    COUPLING_TOL,
    DEFAULT_TOL,
    FACTOR_TOL,
    VERIFY_TOL,
    beam_splitter_pair,
    expand_two_mode,
    is_symplectic,
    local_normal_form,
    local_parameters,
    mode_slice,
    random_state,
    squeezer_pair,
    symplectic_form,
    symplectic_inverse,
    validate_covariance,
)
from .two_mode import (
    TwoModeStandardForm,
    bs_param,
    diagonalize_balanced,
    pair_factor,
    reconstruct_two_mode,
    solve_couplings,
    sq_param,
    standard_form,
    two_mode_invariants,
)

__version__ = "0.1.0"

__all__ = [
    "COUPLING_TOL",
    "DEFAULT_TOL",
    "DominanceCertificate",
    "FACTOR_TOL",
    "IncompatibleSpectraError",
    "InfeasibleRedistributionError",
    "InvalidCovarianceError",
    "JacobiStep",
    "JacobiTrace",
    "NumericalError",
    "SynthesisStep",
    "SynthesisTrace",
    "TwoModeStandardForm",
    "UnphysicalSpectrumError",
    "VERIFY_TOL",
    "VerifyReport",
    "WilliamsonFactorization",
    "beam_splitter_pair",
    "bs_param",
    "check_physical",
    "diagonalize_balanced",
    "dominates",
    "expand_two_mode",
    "is_symplectic",
    "jacobi_decompose",
    "local_normal_form",
    "local_parameters",
    "mode_slice",
    "pair_factor",
    "random_state",
    "reconstruct_two_mode",
    "solve_couplings",
    "sq_param",
    "squeezer_pair",
    "standard_form",
    "symplectic_form",
    "symplectic_inverse",
    "symplectic_spectrum",
    "synthesize",
    "two_mode_invariants",
    "validate_covariance",
    "verify",
    "williamson",
]
