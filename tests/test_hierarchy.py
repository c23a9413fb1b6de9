import numpy as np
import pytest

from rsgames import game_core, hierarchy, mjls_inner, outer_layer
from rsgames.mjls_inner import RegimeLQModel
from rsgames.numkit import BlowupError, TimeGrid
from rsgames.outer_layer import OuterGameSpec


def two_regime_scalar(Q=(1.0, 4.0), Q_T=(0.0, 0.0), Sigma=(0.3, 0.3)):
    ones = np.ones((2, 1, 1))
    zeros = np.zeros((2, 1, 1))
    col = lambda vals: np.array([[[v]] for v in vals])
    return RegimeLQModel(A=zeros, B=ones, D=zeros, Sigma=col(Sigma),
                         Q=col(Q), R=ones, S=ones, Q_T=col(Q_T))


def mixed_saddle_spec(mu0=0.9):
    Lam = np.zeros((2, 2, 2, 2))
    Lam[0, 1] = np.array([[0.8, -0.5], [-0.5, 0.6]])
    Lam[1, 0] = np.array([[0.5, -0.2], [-0.45, 0.85]])
    return OuterGameSpec(mu_bar=mu0 * (np.ones((2, 2)) - np.eye(2)), Lambda=Lam)


class TestSolveHierarchy:
    def test_decoupled_matches_independent_solves(self):
        model = two_regime_scalar()
        spec = OuterGameSpec(mu_bar=np.array([[0.0, 0.4], [0.7, 0.0]]),
                             Lambda=np.zeros((2, 2, 2, 2)))
        grid = TimeGrid(0.0, 1.0, 200)
        sol = hierarchy.solve_hierarchy(model, spec, grid)

        base_rates = spec.mu_bar - np.diag(spec.mu_bar.sum(axis=1))
        ric = mjls_inner.solve_coupled_riccati(model, base_rates, grid)
        phi = np.einsum("tijj->ti", ric.P)
        out = outer_layer.solve_outer(phi, spec, grid)

        assert np.abs(sol.riccati.P - ric.P).max() <= 1e-12
        assert np.abs(sol.riccati.r - ric.r).max() <= 1e-12
        assert np.abs(sol.outer.k - out.k).max() <= 1e-12

    def test_identical_regimes(self):
        model = two_regime_scalar(Q=(1.0, 1.0), Sigma=(0.2, 0.2))
        off = np.ones((2, 2)) - np.eye(2)
        spec = OuterGameSpec.from_affine(0.9 * off, 0.6 * off, 0.5 * off)
        grid = TimeGrid(0.0, 1.0, 100)
        sol = hierarchy.solve_hierarchy(model, spec, grid)
        assert np.abs(sol.outer.k[:, 0] - sol.outer.k[:, 1]).max() <= 1e-12
        assert np.abs(sol.riccati.P[:, 0] - sol.riccati.P[:, 1]).max() <= 1e-12
        # zero local games resolve to the first (idle) actions: baseline rates
        np.testing.assert_allclose(sol.outer.mu[:, 0, 1], 0.9, atol=1e-12)

    def test_riccati_self_consistency(self):
        model = two_regime_scalar()
        spec = mixed_saddle_spec()
        grid = TimeGrid(0.0, 1.0, 150)
        sol = hierarchy.solve_hierarchy(model, spec, grid)
        resolved = mjls_inner.solve_coupled_riccati(model, sol.outer.mu, grid)
        assert np.abs(resolved.P - sol.riccati.P).max() <= 1e-10
        assert np.abs(resolved.r - sol.riccati.r).max() <= 1e-10

    def test_brute_force_joint_sweep(self):
        model = two_regime_scalar(Sigma=(0.0, 0.0))
        spec = mixed_saddle_spec()
        grid = TimeGrid(0.0, 1.0, 150)
        sol = hierarchy.solve_hierarchy(model, spec, grid)
        k_bf, p_bf = brute_force_hierarchy_sweep(model, spec, grid)
        rel_k = np.max(np.abs(sol.outer.k[0] - k_bf) / np.maximum(np.abs(k_bf), 1e-9))
        rel_p = np.max(
            np.abs(sol.riccati.P[0, :, 0, 0] - p_bf) / np.maximum(np.abs(p_bf), 1e-9)
        )
        assert rel_k <= 1e-3
        assert rel_p <= 1e-3

    def test_grid_refinement_first_order_or_better(self):
        model = two_regime_scalar()
        spec = mixed_saddle_spec()
        vals = {}
        for n in (100, 200, 400):
            sol = hierarchy.solve_hierarchy(model, spec, TimeGrid(0.0, 1.0, n))
            vals[n] = (sol.outer.k[0].copy(), sol.riccati.P[0].copy())
        err_coarse = np.abs(vals[100][0] - vals[400][0]).max()
        err_fine = np.abs(vals[200][0] - vals[400][0]).max()
        assert err_fine <= err_coarse / 1.5 + 1e-12
        err_p_coarse = np.abs(vals[100][1] - vals[400][1]).max()
        err_p_fine = np.abs(vals[200][1] - vals[400][1]).max()
        assert err_p_fine <= err_p_coarse / 1.5 + 1e-12

    def test_risk_sourcing_integral(self):
        # with no switching at all, k(0) is the time integral of tr P
        model = two_regime_scalar()
        spec = OuterGameSpec(mu_bar=np.zeros((2, 2)), Lambda=np.zeros((2, 2, 2, 2)))
        grid = TimeGrid(0.0, 1.0, 400)
        sol = hierarchy.solve_hierarchy(model, spec, grid)
        traces = np.einsum("tijj->ti", sol.riccati.P)
        h = grid.step
        # the sweep integrates the node-linear interpolant of tr P exactly
        trapezoid = h * (traces.sum(axis=0) - 0.5 * (traces[0] + traces[-1]))
        np.testing.assert_allclose(sol.outer.k[0], trapezoid, atol=1e-12)
        # and agrees with higher-order quadrature to the scheme's O(h^2)
        simpson = (traces[0] + traces[-1] + 4.0 * traces[1:-1:2].sum(axis=0)
                   + 2.0 * traces[2:-1:2].sum(axis=0)) * h / 3.0
        np.testing.assert_allclose(sol.outer.k[0], simpson, atol=20.0 * h**2)


class TestBlowupGuard:
    def test_tan_flow_escape_same_in_both_solvers(self):
        # disturbance dominates: Sctrl = -1, so -p' = 1 + p^2 = tan flow,
        # which escapes at tau = pi/2
        one, zero = np.ones((1, 1, 1)), np.zeros((1, 1, 1))
        model = RegimeLQModel(A=zero, B=zero, D=one, Sigma=zero, Q=one,
                              R=one, S=one, Q_T=zero)
        spec = OuterGameSpec(mu_bar=np.zeros((1, 1)), Lambda=np.zeros((1, 1, 1, 1)))
        grid = TimeGrid(0.0, 2.0, 400)
        with pytest.raises(BlowupError) as standalone:
            mjls_inner.solve_coupled_riccati(model, np.zeros((1, 1)), grid)
        with pytest.raises(BlowupError) as joint:
            hierarchy.solve_hierarchy(model, spec, grid)
        assert joint.value.time == standalone.value.time
        assert joint.value.regime == standalone.value.regime == 0
        assert abs(2.0 - joint.value.time - np.pi / 2) < 0.1


class TestDiagnostics:
    def test_saddle_path_counts_cover_every_game(self):
        model = two_regime_scalar()
        spec = mixed_saddle_spec()
        grid = TimeGrid(0.0, 1.0, 150)
        sol = hierarchy.solve_hierarchy(model, spec, grid)
        paths = sol.diagnostics["saddle_paths"]
        assert set(paths) == set(game_core.SADDLE_PATHS)
        assert sum(paths.values()) == model.n_regimes * (grid.n_steps + 1)
        assert paths["2x2"] > 0  # the mixed local games take the closed form
        assert 0.0 <= sol.diagnostics["max_best_response_gap"] <= 1e-9

    def test_lambda2_trajectory_matches_per_node(self):
        model = two_regime_scalar()
        spec = mixed_saddle_spec()
        grid = TimeGrid(0.0, 1.0, 50)
        sol = hierarchy.solve_hierarchy(model, spec, grid)
        per_node = [outer_layer.laplacian_spectral_gap(m) for m in sol.outer.mu]
        np.testing.assert_array_equal(sol.diagnostics["lambda2_trajectory"], per_node)


def brute_force_hierarchy_sweep(model, spec, grid, resolution=200):
    """Joint sweep with simplex-grid minimax instead of the LP saddle."""
    N = model.n_regimes
    nodes, h = grid.nodes(), grid.step
    fgrid = np.linspace(0.0, 1.0, resolution + 1)
    F = np.stack([1.0 - fgrid, fgrid], axis=1)
    k = np.zeros(N)
    P = np.array([model.Q_T[i, 0, 0] for i in range(N)])
    sctrl = np.array([model.control_matrix(i)[0, 0] for i in range(N)])
    Q = np.array([model.Q[i, 0, 0] for i in range(N)])
    A = np.array([model.A[i, 0, 0] for i in range(N)])

    def riccati_rhs(p, off):
        coupling = off @ p - off.sum(axis=1) * p
        return Q + 2.0 * A * p - sctrl * p * p + coupling

    for idx in range(grid.n_steps, 0, -1):
        mu = np.zeros((N, N))
        for i in range(N):
            M = sum(spec.Lambda[i, j] * (k[j] - k[i]) for j in range(N) if j != i)
            payoff = F @ M @ F.T
            fi = int(np.argmax(payoff.min(axis=1)))
            gi = int(np.argmin(payoff.max(axis=0)))
            for j in range(N):
                if j != i:
                    mu[i, j] = spec.mu_bar[i, j] + F[fi] @ spec.Lambda[i, j] @ F[gi]
        off = mu

        # step P backward (RK4 in tau, frozen rates)
        k1 = riccati_rhs(P, off)
        k2 = riccati_rhs(P + h / 2 * k1, off)
        k3 = riccati_rhs(P + h / 2 * k2, off)
        k4 = riccati_rhs(P + h * k3, off)
        P_new = P + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

        phi_r, phi_l = P, P_new  # scalar case: tr P = P

        def k_rhs(tau_frac, kk):
            p = phi_r + (phi_l - phi_r) * tau_frac
            return p + off @ kk - off.sum(axis=1) * kk

        k1k = k_rhs(0.0, k)
        k2k = k_rhs(0.5, k + h / 2 * k1k)
        k3k = k_rhs(0.5, k + h / 2 * k2k)
        k4k = k_rhs(1.0, k + h * k3k)
        k = k + h / 6 * (k1k + 2 * k2k + 2 * k3k + k4k)
        P = P_new
    return k, P


class TestTurnpikeReport:
    def test_inner_rate_matches_reference(self, scalar_lq_model):
        spec = OuterGameSpec(mu_bar=np.zeros((1, 1)), Lambda=np.zeros((1, 1, 1, 1)))
        grid = TimeGrid(0.0, 12.0, 1200)
        sol = hierarchy.solve_hierarchy(scalar_lq_model, spec, grid)
        report = hierarchy.turnpike_report(sol)
        ref = report["inner_reference_rate"]
        assert not report["inner_degenerate"]
        assert abs(report["inner_fitted_rate"] - ref) <= 0.2 * ref

    def test_outer_rate_matches_reference(self):
        # regimes pinned at the coupled steady state; only k evolves
        mu = 0.5
        p = np.array([2.0, 1.0])
        q = p**2 - mu * (p[::-1] - p)
        model = two_regime_scalar(Q=tuple(q), Q_T=tuple(p), Sigma=(0.0, 0.0))
        spec = OuterGameSpec(mu_bar=mu * (np.ones((2, 2)) - np.eye(2)),
                             Lambda=np.zeros((2, 2, 1, 1)))
        grid = TimeGrid(0.0, 12.0, 1200)
        sol = hierarchy.solve_hierarchy(model, spec, grid)
        assert np.abs(sol.riccati.P - sol.riccati.P[-1]).max() <= 1e-10
        report = hierarchy.turnpike_report(sol)
        ref = report["outer_reference_rate"]
        assert not report["outer_degenerate"]
        assert abs(report["outer_fitted_rate"] - ref) <= 0.2 * ref
        assert report["inner_degenerate"]  # P is constant here

    def test_zero_model_degenerate(self):
        model = two_regime_scalar(Q=(0.0, 0.0), Sigma=(0.0, 0.0))
        spec = OuterGameSpec(mu_bar=np.zeros((2, 2)), Lambda=np.zeros((2, 2, 1, 1)))
        grid = TimeGrid(0.0, 2.0, 100)
        sol = hierarchy.solve_hierarchy(model, spec, grid)
        report = hierarchy.turnpike_report(sol)
        assert report["inner_degenerate"] and report["outer_degenerate"]

    def test_short_horizon_warns(self, scalar_lq_model):
        spec = OuterGameSpec(mu_bar=np.zeros((1, 1)), Lambda=np.zeros((1, 1, 1, 1)))
        grid = TimeGrid(0.0, 0.5, 50)
        sol = hierarchy.solve_hierarchy(scalar_lq_model, spec, grid)
        report = hierarchy.turnpike_report(sol)
        assert report["warnings"]
