"""Wigner quasiprobability functions on hyperbolic configuration space.

The package covers the one-dimensional conic oscillator (a Poschl-Teller
sech^2 trough on a hyperbola branch) end to end: special functions, the
hyperboloid plane-wave basis and geodesic machinery, bound and scattering
eigenstates with their momentum representations, one certified spectral
Wigner grid engine with two independent oracles (the correlation integral by
quadrature and the paper's closed form), marginals and flat-space contraction
checks, and a deterministic CLI that renders the phase-space panels to
CSV/PGM artifacts.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    CurvedWignerError,
    DomainError,
    NonconvergenceError,
    OffShellError,
    PoleError,
    PrecisionLossError,
)
from .quadrature import QuadratureSpec, adaptive_gauss_kronrod
from .sampling import DecayEnvelope, FieldSampler
from .geometry import (
    AmbientVector,
    BoostParams,
    HyperbolicAngleCoord,
    MomentumLabel,
    ambient_from_angle,
    binding_delta_midpoint,
    boost_direction,
    boost_point,
    geodesic_pair,
    norm_factor,
    shapiro_covariance_check,
    shapiro_forward_1d,
    shapiro_phi,
)
from .oscillator import (
    BoundStateLabel,
    OscillatorParams,
    ScatteringStateLabel,
    bound_sampler,
    bound_state_count,
    depth_param,
    energy,
    flat_ho_reference,
    momentum_calibration,
    psi_bound,
    psi_momentum,
    psi_scatter,
)
from .wigner import (
    WignerGrid,
    contraction_report,
    exact_marginals,
    flat_ho_wigner,
    marginal_momentum_integrated,
    marginal_position_integrated,
    total_probability,
    wigner_closed_grid,
    wigner_grid,
    wigner_quadrature_grid,
)

__all__ = [name for name in dir() if not name.startswith("_")]
