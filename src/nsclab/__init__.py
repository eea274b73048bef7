"""Spectral laboratory for compressible heat-conductive flows with a
relaxing (Cattaneo-type) heat flux and their instantaneous Fourier-law
limit: generator symbols, stability checks, dyadic Besov machinery, exact
linear propagation, hypocoercive Lyapunov diagnostics, a nonlinear
pseudo-spectral solver, and quantitative decay/relaxation studies."""

from .besov import Thresholds, ThresholdOrderError, band_project, bernstein_check, besov_seminorm, make_thresholds
from .diagnostics import (
    EffectiveState,
    LyapunovValue,
    XFunctional,
    effective_unknowns,
    functional_X,
    lyapunov_high,
    lyapunov_low,
)
from .evolve import (
    DensityPositivityError,
    LinearPropagator,
    NumericalBlowupError,
    RadialDataProfile,
    RadialFlow,
    imex_step,
    linear_trajectory,
    propagate_mode,
    sharp_low_profile,
    source_terms,
)
from .model import (
    ModelSpec,
    PhysParams,
    SKReport,
    SymbolMatrix,
    SystemKind,
    build_spec,
    eigenvalues,
    kalman_rank,
    reduced_symbol,
    symbol,
)
from .spectral import Grid, SpectralField, State, to_physical, to_spectral
from .studies import (
    DecayReport,
    FitResult,
    LayerReport,
    RelaxReport,
    decay_fit,
    initial_layer,
    layer_scaling,
    lyapunov_ode_compare,
    relax_sweep,
    theory_decay_exponent,
)

__version__ = "0.1.0"
