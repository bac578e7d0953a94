import math

import numpy as np
import pytest

from curvedwigner.oscillator import BoundStateLabel, OscillatorParams
from curvedwigner.quadrature import QuadratureSpec
from curvedwigner.sampling import DecayEnvelope, FieldSampler


@pytest.fixture(scope="session")
def s4_params():
    return OscillatorParams.from_depth(4.0)


@pytest.fixture(scope="session")
def s4_states(s4_params):
    return [BoundStateLabel(n, s4_params) for n in range(4)]


@pytest.fixture(scope="session")
def tight_spec():
    return QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)


def gaussian_sampler(width=1.0, center=0.0, amplitude=None, phase_k=0.0):
    """Normalized Gaussian (times optional plane-wave phase) with an honest
    exponential envelope of rate 3/width."""
    amp = amplitude if amplitude is not None else (math.pi * width**2) ** -0.25
    rate = 3.0 / width

    def func(u):
        z = (np.asarray(u, dtype=float) - center) / width
        vals = amp * np.exp(-0.5 * z * z)
        if phase_k:
            return vals * np.exp(1j * phase_k * np.asarray(u, dtype=float))
        return vals

    # sup of |f| e^{rate |u|} = amp * exp(rate*|center|+ rate^2 w^2 / 2)
    log_c = math.log(abs(amp)) + rate * abs(center) + 0.5 * (rate * width) ** 2
    return FieldSampler(func=func, envelope=DecayEnvelope(log_amplitude=log_c, rate=rate))
