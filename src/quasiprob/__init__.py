"""Quasi-probability distributions of 1-D quantum states: Wigner transforms,
characteristic functions, direction marginals and tomographic reconstruction,
Weyl quantization with the expectation-equality check, and Feynman's
spin-1/2 quasi-probability family."""

from .numerics import (
    Grid1D,
    Grid2D,
    PreconditionError,
    SampledFunction1D,
    fourier_forward_1d,
    fourier_inverse_1d,
    quadrature_2d,
    square_grid,
)
from .spin import (
    SpinQuasiDist,
    SpinState,
    expectations,
    feynman_choice,
    marginal_residuals,
    nonneg_window,
    pauli,
    quasi_family,
    zx_sum_spectrum_report,
)
from .states import (
    DEFAULT_GRID,
    DirectionAB,
    WaveFunction,
    gaussian_state,
    hermite_functions,
    oscillator_eigenstate,
    sampled_state,
)
from .tomography import (
    Marginal,
    direction_residuals,
    fan,
    fhat_on_ray,
    find_violated_direction,
    marginal_of_quasi,
    quantum_marginal,
    reconstruct_from_marginals,
    rectangle_modification,
    smooth_modification,
    verify_j2m,
)
from .verify import run_verify
from .weyl import (
    PhaseSpaceFunction,
    displacement,
    fock_coefficients,
    moyal_expectation_check,
    oscillator_matrices,
    symbol,
    weyl_quantize,
)
from .wigner import (
    CharacteristicFunction,
    QuasiDistribution,
    characteristic_function,
    characteristic_grid,
    negative_volume,
    wigner_from_characteristic,
    wigner_transform,
)

__version__ = "0.1.0"
