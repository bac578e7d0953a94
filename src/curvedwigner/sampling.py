"""Field samplers: vectorized profiles with a declared decay envelope.

The envelope is what quadrature code uses to truncate infinite integrals, so
it must genuinely bound the sampled values: |f(u)| <= exp(log_amplitude -
rate * |u|) everywhere.  The amplitude is carried as its logarithm because
the bound-state amplitudes are products of Gamma functions that overflow a
double at large depth, while the truncations only need their logarithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = ["DecayEnvelope", "FieldSampler"]


@dataclass(frozen=True)
class DecayEnvelope:
    """Exponential bound |f(u)| <= exp(log_amplitude - rate * |u|)."""

    log_amplitude: float
    rate: float

    def __post_init__(self):
        if math.isnan(self.log_amplitude):
            raise ValueError("envelope log amplitude must be a number")
        if self.rate < 0:
            raise ValueError("envelope rate must be non-negative")

    def tail_radius(self, tail_bound: float) -> float:
        """Smallest T with integral of the envelope over |u| > T below
        ``tail_bound``; an envelope whose whole mass is already under the
        bound gets T = 4.  T is not floored at 4: a mass just above the bound
        gives T = log(mass / bound) / rate, 0.025 for a log excess of 0.1 at
        rate 4.  Requires a strictly decaying envelope."""
        if self.rate <= 0:
            raise DomainError("envelope does not decay; integral cannot be truncated")
        if tail_bound <= 0:
            raise ValueError("tail_bound must be positive")
        # log of the envelope's mass 2 amplitude / rate over the whole line
        excess = self.log_amplitude + math.log(2.0 / self.rate) - math.log(tail_bound)
        if excess <= 0:
            return 4.0
        return excess / self.rate


@dataclass(frozen=True)
class FieldSampler:
    """A complex- or real-valued profile of one real variable.

    ``func`` must accept a 1-D numpy array and return an array of the same
    shape.
    """

    func: Callable[[np.ndarray], np.ndarray]
    envelope: DecayEnvelope

    def __call__(self, u):
        return self.func(np.asarray(u, dtype=float))
