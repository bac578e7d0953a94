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
