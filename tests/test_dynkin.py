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

The model whose node games move (1.0 added to mu_bar off the diagonal,
Lambda_ij drawn independently) has equilibrium rates that change at every
one of the 200 steps; its games take 13 pure, 577 equalizer and 13 LP
paths.  The chain there follows the solved generators, each step under the
rates of its end node, as the backward sweep freezes them.  As solved at
4000 paths: k z = 0.92, 0.26, -0.36 and r z = 1.28, -0.55, -0.36.  Mutations
it catches: the Riccati step coupled by the terminal node's rates mu[-1]
throughout (r: z = -3.05, -5.07, -4.47; invisible at Lambda = 0, where the
rates never move) and mu transposed in `outer_layer.k_step` (k: z = 2.66,
-11.68, 0.77).  A swap of f and g in `outer_layer._rate_rows` is not
caught: the chain follows the same swapped rates.  The best-response-gap
checks of the node games cover it.

The value itself, x'P_i(0)x + r_i(0), is the expected closed-loop cost
E[int_0^T (x'Qx + u'Ru - w'Sw) dt + x_T'Q_T x_T | x_0 = X0, theta_0 = i]
under the saddle feedback u = -R^{-1}B'P_theta x, w = S^{-1}D'P_theta x,
with the noise Sigma dW.  oracles.closed_loop_costs runs the state by
Euler-Maruyama, one step per grid step, along the same regime paths; the
band is again |z| <= Z_BAND at N_PATHS paths per starting regime.  As
solved at X0 = (1, -0.5): z = -1.03, -0.91, 1.14, in 1.3 s.  The Euler bias
is below the test's resolution: at 40 000 paths z = 1.40, 1.41, -0.84, and
with ten sub-steps per grid step (P linear between nodes) z = 0.48, 0.81,
-2.00.  Mutations it catches: the noise trace dropped from the r flow (z =
-41.5, -48.2, -41.3), the sign of D S^{-1} D' flipped in
`RegimeLQModel.control_matrices` (z = -7.1, -8.6, -8.3), and the hierarchy
solved on mu_bar transposed while the paths follow mu_bar (z = 9.1, -10.8,
7.5).  On the moving model, with the paths following its solved
generators, the same check gives z = -0.95, -0.99, 1.26.  There it catches
the sign flip of D S^{-1} D' (z = -7.67, -8.66, -8.21) and the Riccati
step of `solve_hierarchy` coupled by mu transposed (z = 1.93, -4.06,
5.30), but not the Riccati step coupled by mu[-1] throughout (z = -2.51,
-2.68, -0.38), which the moving model's r check catches.

The market-making macro game obeys the same formula: with phi_i(t) the
short-horizon penalty (`as_game.theta_expansions`) of regime i under the
rates its efforts adopt at node t, recomputed from the solution's f and g,

    U_i(0) = E[ int_0^T phi_theta(s)(s) ds | theta_0 = i ]

along the chain of the sweep's generators.  The market has regime 1 the
riskier and asymmetric rates, so transposed rates show; in affine mode at
q = 3 and MACRO_STEPS steps the efforts are pure (both act in regime 0,
neither in regime 1) except at the terminal node.  As solved: z = 0.59,
-0.00, in 0.1 s.  At 200 000 paths z was (-0.65, 0.10), (-0.87, -0.37)
and (-0.83, -0.88) at 50, 100 and 200 steps: the trapezoid's bias is
below 0.13 standard errors at N_PATHS.  Mutations it catches: the adopted
rates transposed in `solve_macro_as`'s k_step call (z = 30.0, 28.2) and
every regime's flow payoff taken under regime 0's generator (z = 6.8,
19.0).  The step's end payoff taken at its midpoint is not caught (z =
0.09, -0.45).
"""

import numpy as np
import pytest

import oracles
from rsgames import as_game, hierarchy, numkit
from rsgames.as_game import ASModel
from rsgames.mjls_inner import RegimeLQModel
from rsgames.numkit import TimeGrid
from rsgames.outer_layer import OuterGameSpec

N_PATHS = 4000
Z_BAND = 4.0
SEED = 1
LAMBDA_SEED = 4
X0 = np.array([1.0, -0.5])
MACRO_STEPS = 100

# a non-reversible cycle: mostly 0 -> 1 -> 2 -> 0
MU_BAR = np.array([[0.0, 2.0, 0.1], [0.1, 0.0, 2.0], [2.0, 0.1, 0.0]])


def lq_model():
    eye = np.eye(2)
    return RegimeLQModel(
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


@pytest.fixture(scope="module")
def solved():
    spec = OuterGameSpec(mu_bar=MU_BAR, Lambda=np.zeros((3, 3, 2, 2)))
    model, grid = lq_model(), TimeGrid(0.0, 2.0, 200)
    return model, grid, hierarchy.solve_hierarchy(model, spec, grid)


@pytest.fixture(scope="module")
def moving():
    """The same model with 1.0 added to mu_bar off the diagonal and each
    Lambda_ij drawn independently as U(0.2, 0.4) * (cyclic + U(-0.6,
    0.6)^{3x3}), so the node games and their rates move along the sweep."""
    rng = np.random.default_rng(LAMBDA_SEED)
    cyclic = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])
    Lambda = np.zeros((3, 3, 3, 3))
    for i, j in zip(*np.nonzero(~np.eye(3, dtype=bool))):
        Lambda[i, j] = rng.uniform(0.2, 0.4) * (cyclic + rng.uniform(-0.6, 0.6, (3, 3)))
    spec = OuterGameSpec(mu_bar=MU_BAR + 1.0 - np.eye(3), Lambda=Lambda)
    model, grid = lq_model(), TimeGrid(0.0, 2.0, 200)
    return model, grid, hierarchy.solve_hierarchy(model, spec, grid)


def z_scores(targets, sample):
    """(target - path mean) / standard error, per starting regime i, of the
    N_PATHS path values sample(i)."""
    z = []
    for i, target in enumerate(targets):
        x = sample(i)
        z.append((target - x.mean()) / (x.std(ddof=1) / np.sqrt(N_PATHS)))
    print("z-scores at", N_PATHS, "paths:", np.round(z, 2))
    return np.array(z)


def integral_z_scores(values, targets, grid, generator):
    return z_scores(targets, lambda i: oracles.regime_path_integrals(
        values, generator, grid.step, i, N_PATHS, SEED))


def test_switching_value_is_the_expected_integral_of_trace_p(solved):
    _, grid, sol = solved
    trace_p = np.einsum("tijj->ti", sol.riccati.P)
    z = integral_z_scores(trace_p, sol.outer.k[0], grid, numkit.generator(MU_BAR))
    assert np.abs(z).max() <= Z_BAND


def test_noise_value_is_the_expected_integral_of_the_noise_trace(solved):
    model, grid, sol = solved
    noise = np.einsum("iab,icb,tica->ti", model.Sigma, model.Sigma, sol.riccati.P)
    z = integral_z_scores(noise, sol.riccati.r[0], grid, numkit.generator(MU_BAR))
    assert np.abs(z).max() <= Z_BAND


def test_values_follow_the_chain_of_the_moving_equilibrium_rates(moving):
    # the chain steps node k - 1 -> k under the rates the sweep froze over
    # that step, the equilibrium generator of node k
    model, grid, sol = moving
    mu = sol.outer.mu
    assert (np.abs(np.diff(mu, axis=0)) > 0.0).any(axis=(1, 2)).all()
    paths = sol.diagnostics["saddle_paths"]
    assert paths["equalizer"] > 0 and paths["lp"] > 0
    trace_p = np.einsum("tijj->ti", sol.riccati.P)
    noise = np.einsum("iab,icb,tica->ti", model.Sigma, model.Sigma, sol.riccati.P)
    z = np.concatenate([integral_z_scores(trace_p, sol.outer.k[0], grid, mu),
                        integral_z_scores(noise, sol.riccati.r[0], grid, mu)])
    assert np.abs(z).max() <= Z_BAND


@pytest.mark.parametrize("case", ["solved", "moving"])
def test_value_is_the_expected_closed_loop_cost_with_noise(case, request):
    model, grid, sol = request.getfixturevalue(case)
    P, r = sol.riccati.P, sol.riccati.r
    generator = numkit.generator(MU_BAR) if case == "solved" else sol.outer.mu
    values = [X0 @ P[0, i] @ X0 + r[0, i] for i in range(3)]
    z = z_scores(values, lambda i: oracles.closed_loop_costs(
        model, P, generator, grid.step, X0, i, N_PATHS, SEED))
    assert np.abs(z).max() <= Z_BAND


def test_macro_value_is_the_expected_integral_of_its_flow_payoff():
    # U_i(0) = E[int_0^T phi_theta(s)(s) ds | theta_0 = i] along the chain
    # of the sweep's generators, phi_i(t) being regime i's short-horizon
    # penalty under the rates its efforts adopt at node t
    model = ASModel(gamma=0.5, xi=0.5, A=1.0, k=8.0, sigmas=[0.2, 1.0], q_max=3,
                    horizon=1.0, rates=[[0.0, 4.0], [4.0, 0.0]])
    spec = OuterGameSpec.from_affine(mu0=[[0.0, 1.0], [3.0, 0.0]],
                                     lam_att=[[0.0, 2.0], [2.0, 0.0]],
                                     lam_stab=[[0.0, 0.8], [1.5, 0.0]])
    q = 3
    sol = as_game.solve_macro_as(model, spec, q, MACRO_STEPS)
    f, g = sol.f[:, :, 1, None, None], sol.g[:, :, 1, None, None]
    rates = np.maximum(spec.mu_bar + f * spec.lam_att - g * spec.lam_stab, 0.0)
    taus = model.horizon - sol.grid.nodes()
    phi = np.array([  # phi[t, i]: regime i's penalty under rates[t, i]
        np.diagonal(as_game.theta_expansions(model, rates[t], [tau], [q])[:, 0, :, 0])
        for t, tau in enumerate(taus)])
    z = integral_z_scores(phi, sol.k[0], sol.grid, sol.mu)
    assert np.abs(z).max() <= Z_BAND
