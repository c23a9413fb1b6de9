"""Dynkin checks by simulation: the LQ hierarchy's values are expectations
over the regime chain.

With Lambda = 0 the equilibrium rates are the base rates mu_bar at every
node, and Dynkin's formula for the switching chain theta of generator
mu_bar gives

    k_i(0) = E[ int_0^T tr P_theta(s)(s) ds | theta_0 = i ],
    r_i(0) = E[ int_0^T tr(Sigma_theta Sigma_theta' P_theta(s)(s)) ds | theta_0 = i ].

Each value is compared with the mean of its path integral over N_PATHS
paths per starting regime (oracles.regime_path_integrals: exact step
transitions, trapezoid rule), as a z-score against the mean's standard
error.  The band |z| <= Z_BAND holds at 400 000 paths too (|z| <= 1.0 on
two seed groups), so no bias shows at ten times the resolution of the
test.  Simulating the chain of mu_bar transposed gives |z| from 9 to 29.
Mutations of the solver that these checks catch: the generator transposed
in `_FlowWorkspace.derivative` (r: z = 21.5, -28.6, 7.2), mu transposed in
`outer_layer.k_step` (k: z = 12.8, -26.2, 11.7), and the noise trace
dropped from the r flow (r: |z| > 130).
"""

import numpy as np
import pytest

import oracles
from rsgames import hierarchy, numkit
from rsgames.mjls_inner import RegimeLQModel
from rsgames.numkit import TimeGrid
from rsgames.outer_layer import OuterGameSpec

N_PATHS = 4000
Z_BAND = 4.0
SEED = 1

# a non-reversible cycle: mostly 0 -> 1 -> 2 -> 0
MU_BAR = np.array([[0.0, 2.0, 0.1], [0.1, 0.0, 2.0], [2.0, 0.1, 0.0]])


@pytest.fixture(scope="module")
def solved():
    eye = np.eye(2)
    model = RegimeLQModel(
        A=np.array([[[0.2, 1.0], [0.0, -0.5]], [[-1.0, 0.3], [0.5, 0.1]],
                    [[0.5, 0.0], [0.2, 0.3]]]),
        B=np.stack([eye, eye, 0.5 * eye]),
        D=np.stack([0.3 * eye] * 3),
        Sigma=np.array([np.diag([0.3, 0.1]), np.diag([1.0, 0.5]), np.diag([0.5, 1.5])]),
        Q=np.stack([0.5 * eye, 3.0 * eye, [[1.0, 0.5], [0.5, 1.0]]]),
        R=np.stack([eye] * 3),
        S=np.stack([eye] * 3),
        Q_T=np.stack([eye, 0.0 * eye, 2.0 * eye]),
    )
    spec = OuterGameSpec(mu_bar=MU_BAR, Lambda=np.zeros((3, 3, 2, 2)))
    grid = TimeGrid(0.0, 2.0, 200)
    return model, grid, hierarchy.solve_hierarchy(model, spec, grid)


def z_scores(values, targets, grid):
    """(target - path mean) / standard error, per starting regime."""
    z = []
    for i, target in enumerate(targets):
        x = oracles.regime_path_integrals(values, numkit.generator(MU_BAR),
                                          grid.step, i, N_PATHS, SEED)
        z.append((target - x.mean()) / (x.std(ddof=1) / np.sqrt(N_PATHS)))
    print("z-scores at", N_PATHS, "paths:", np.round(z, 2))
    return np.array(z)


def test_switching_value_is_the_expected_integral_of_trace_p(solved):
    _, grid, sol = solved
    trace_p = np.einsum("tijj->ti", sol.riccati.P)
    assert np.abs(z_scores(trace_p, sol.outer.k[0], grid)).max() <= Z_BAND


def test_noise_value_is_the_expected_integral_of_the_noise_trace(solved):
    model, grid, sol = solved
    noise = np.einsum("iab,icb,tica->ti", model.Sigma, model.Sigma, sol.riccati.P)
    assert np.abs(z_scores(noise, sol.riccati.r[0], grid)).max() <= Z_BAND
