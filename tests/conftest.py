import numpy as np
import pytest

from rsgames import mjls_inner
from rsgames.as_game import ASModel, HOURS_PER_YEAR


@pytest.fixture
def scalar_lq_model():
    """Scalar benchmark: A=0, Q=1, Sctrl=1, Q_T=0; P(tau) = tanh(tau)."""
    return mjls_inner.RegimeLQModel(
        A=[[[0.0]]], B=[[[1.0]]], D=[[[0.0]]], Sigma=[[[0.0]]],
        Q=[[[1.0]]], R=[[[1.0]]], S=[[[1.0]]], Q_T=[[[0.0]]],
    )


@pytest.fixture
def paper_as_model():
    """Case-study parameter set: gamma=0.02, xi=10, A=250000/yr, k=10,
    calibrated vols, q in [-10, 10], symmetric switching at 30/day, T=12h."""
    return ASModel(
        gamma=0.02,
        xi=10.0,
        A=250000.0,
        k=10.0,
        sigmas=[0.2253, 0.5305],
        q_max=10,
        horizon=12.0 / HOURS_PER_YEAR,
        rates=np.array([[0.0, 30.0], [30.0, 0.0]]) * 365.0,
    )


@pytest.fixture
def lively_as_model():
    """Moderate-scale instance where quoting, fills and the predator all
    matter over the horizon (used for behavioral tests)."""
    return ASModel(
        gamma=0.5,
        xi=2.0,
        A=2000.0,
        k=8.0,
        sigmas=[0.3, 0.8],
        q_max=5,
        horizon=0.02,
        rates=[[0.0, 50.0], [50.0, 0.0]],
        s0=100.0,
    )
