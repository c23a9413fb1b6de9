import numpy as np
import pytest

import oracles
from rsgames import mjls_inner, numkit
from rsgames.mjls_inner import RegimeLQModel
from rsgames.numkit import BlowupError, TimeGrid


def scalar_model(A=0.0, B=1.0, D=0.0, Sigma=0.0, Q=1.0, R=1.0, S=1.0, Q_T=0.0):
    wrap = lambda *vals: np.array([[[v]] for v in vals])
    return RegimeLQModel(A=wrap(A), B=wrap(B), D=wrap(D), Sigma=wrap(Sigma),
                         Q=wrap(Q), R=wrap(R), S=wrap(S), Q_T=wrap(Q_T))


def two_regime_scalar(Q=(1.0, 4.0), Q_T=(0.0, 0.0), Sigma=(0.0, 0.0)):
    ones = np.ones((2, 1, 1))
    zeros = np.zeros((2, 1, 1))
    col = lambda vals: np.array([[[v]] for v in vals])
    return RegimeLQModel(A=zeros, B=ones, D=zeros, Sigma=col(Sigma),
                         Q=col(Q), R=ones, S=ones, Q_T=col(Q_T))


def backward_derivatives(model, P, r, rates):
    """(-dP/dt, -dr/dt) of every regime, from the right-hand side that
    riccati_step integrates."""
    P, r = np.asarray(P, dtype=float), np.asarray(r, dtype=float)
    dP, dr = np.empty_like(P), np.empty_like(r)
    mjls_inner._FlowWorkspace(model).derivative(P, r, numkit.generator(rates), dP, dr)
    return dP, dr


class TestRhs:
    def test_scalar_plugin(self):
        m = scalar_model()
        P = np.zeros((1, 1, 1))
        out, _ = backward_derivatives(m, P, np.zeros(1), np.zeros((1, 1)))
        assert out[0, 0, 0] == 1.0  # -P' = Q at P = 0

    def test_identical_regimes_coupling_vanishes(self):
        m = two_regime_scalar(Q=(1.0, 1.0))
        P = np.full((2, 1, 1), 0.3)
        rates = np.array([[0.0, 7.0], [5.0, 0.0]])
        coupled, _ = backward_derivatives(m, P, np.zeros(2), rates)
        uncoupled, _ = backward_derivatives(m, P, np.zeros(2), np.zeros((2, 2)))
        np.testing.assert_allclose(coupled[0], uncoupled[0], atol=1e-14)

    def test_coupling_sum_by_hand(self):
        m = two_regime_scalar(Q=(0.0, 0.0))
        # kill the quadratic term: B = D = 0 not allowed with R, S PD, so
        # evaluate at P1 = 0 where -P1 Sctrl P1 vanishes anyway
        P = np.array([[[0.0]], [[1.0]]])
        rates = np.array([[0.0, 30.0], [0.0, 0.0]])
        out, _ = backward_derivatives(m, P, np.zeros(2), rates)
        assert out[0, 0, 0] == pytest.approx(30.0)

    def test_offset_zero_cases(self):
        m = two_regime_scalar()
        P = np.ones((2, 1, 1))
        r = np.array([0.4, 0.4])
        rates = np.array([[0.0, 3.0], [3.0, 0.0]])
        _, out = backward_derivatives(m, P, r, rates)
        assert out[0] == pytest.approx(0.0)

    def test_offset_trace(self):
        m = scalar_model(Sigma=np.sqrt(2.0))
        P = np.array([[[3.0]]])
        _, out = backward_derivatives(m, P, np.zeros(1), np.zeros((1, 1)))
        assert out[0] == pytest.approx(6.0)

    def test_offset_with_coupling(self):
        m = two_regime_scalar(Sigma=(1.0, 1.0))
        P = np.ones((2, 1, 1))
        r = np.array([0.0, 2.0])
        rates = np.array([[0.0, 30.0], [0.0, 0.0]])
        _, out = backward_derivatives(m, P, r, rates)
        assert out[0] == pytest.approx(61.0)


class TestSolveCoupledRiccati:
    def test_zero_data(self):
        m = two_regime_scalar(Q=(0.0, 0.0), Q_T=(0.0, 0.0))
        grid = TimeGrid(0.0, 1.0, 50)
        sol = mjls_inner.solve_coupled_riccati(m, np.zeros((2, 2)), grid)
        assert np.abs(sol.P).max() == 0.0
        assert np.abs(sol.r).max() == 0.0

    def test_tanh_benchmark(self, scalar_lq_model):
        grid = TimeGrid(0.0, 1.0, 1000)
        sol = mjls_inner.solve_coupled_riccati(scalar_lq_model, np.zeros((1, 1)), grid)
        assert abs(sol.P[0, 0, 0, 0] - np.tanh(1.0)) <= 1e-8

    def test_identical_regimes_collapse(self):
        m = two_regime_scalar(Q=(1.0, 1.0), Q_T=(0.5, 0.5), Sigma=(0.2, 0.2))
        rates = np.array([[0.0, 12.0], [12.0, 0.0]])
        grid = TimeGrid(0.0, 1.0, 200)
        sol = mjls_inner.solve_coupled_riccati(m, rates, grid)
        assert np.abs(sol.P[:, 0] - sol.P[:, 1]).max() <= 1e-10
        single = mjls_inner.solve_coupled_riccati(
            scalar_model(Q=1.0, Q_T=0.5, Sigma=0.2), np.zeros((1, 1)), grid
        )
        assert np.abs(sol.P[:, 0] - single.P[:, 0]).max() <= 1e-9

    def test_terminal_conditions(self, scalar_lq_model):
        grid = TimeGrid(0.0, 1.0, 10)
        sol = mjls_inner.solve_coupled_riccati(scalar_lq_model, np.zeros((1, 1)), grid)
        assert sol.P[-1, 0, 0, 0] == 0.0
        assert sol.r[-1, 0] == 0.0

    def test_symmetry_preserved_along_flow(self):
        rng = np.random.default_rng(31)
        n = 3
        X = rng.normal(size=(n, n))
        m = RegimeLQModel(
            A=rng.normal(size=(1, n, n)),
            B=rng.normal(size=(1, n, 2)),
            D=0.1 * rng.normal(size=(1, n, 1)),
            Sigma=rng.normal(size=(1, n, 1)),
            Q=(X @ X.T)[None],
            R=np.eye(2)[None],
            S=np.ones((1, 1, 1)),
            Q_T=np.eye(n)[None],
        )
        grid = TimeGrid(0.0, 1.0, 300)
        sol = mjls_inner.solve_coupled_riccati(m, np.zeros((1, 1)), grid)
        asym = np.abs(sol.P - np.transpose(sol.P, (0, 1, 3, 2))).max()
        assert asym <= 1e-10

    def test_flow_stays_psd_on_wellposed_instance(self):
        rng = np.random.default_rng(32)
        n = 2
        X = rng.normal(size=(n, n))
        m = RegimeLQModel(
            A=rng.normal(size=(1, n, n)),
            B=rng.normal(size=(1, n, 2)),
            D=0.05 * rng.normal(size=(1, n, 1)),
            Sigma=0.2 * np.ones((1, n, 1)),
            Q=(X @ X.T)[None],
            R=np.eye(2)[None],
            S=np.ones((1, 1, 1)),
            Q_T=(0.5 * np.eye(n))[None],
        )
        grid = TimeGrid(0.0, 1.0, 200)
        sol = mjls_inner.solve_coupled_riccati(m, np.zeros((1, 1)), grid)
        eigs = np.linalg.eigvalsh(sol.P[:, 0])
        assert eigs.min() >= -1e-10

    def test_monotone_in_q(self):
        grid = TimeGrid(0.0, 1.0, 200)
        p1 = mjls_inner.solve_coupled_riccati(
            scalar_model(Q=1.0), np.zeros((1, 1)), grid
        ).P[:, 0, 0, 0]
        p2 = mjls_inner.solve_coupled_riccati(
            scalar_model(Q=2.0), np.zeros((1, 1)), grid
        ).P[:, 0, 0, 0]
        assert np.all(p2 >= p1 - 1e-12)

    def test_step_halving_order(self, scalar_lq_model):
        def p0(n):
            grid = TimeGrid(0.0, 1.0, n)
            return mjls_inner.solve_coupled_riccati(
                scalar_lq_model, np.zeros((1, 1)), grid
            ).P[0, 0, 0, 0]

        errs = [abs(p0(n) - np.tanh(1.0)) for n in (8, 16, 32)]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 3.7) and np.all(orders < 4.3)

    def test_blowup_reported_with_regime_and_time(self):
        # disturbance dominates: Sctrl = -1, so -p' = 1 + p^2 = tan flow,
        # which escapes at tau = pi/2
        m = scalar_model(B=0.0, D=1.0)
        grid = TimeGrid(0.0, 2.0, 400)
        with pytest.raises(BlowupError) as err:
            mjls_inner.solve_coupled_riccati(m, np.zeros((1, 1)), grid)
        assert err.value.regime == 0
        escape_tau = 2.0 - err.value.time
        assert abs(escape_tau - np.pi / 2) < 0.1

    @pytest.mark.parametrize("n_steps", [200, 2000])
    def test_a_step_too_long_for_the_rates_is_named(self, n_steps):
        # configs/solve_two_regime.yaml's LQ model under constant rates of
        # 1500/yr: at 200 steps RK4 grows the coupling 9012-fold per step and
        # P passes 1e8 at t = 1.4775; at 2000 steps it solves with max |P|
        # 1.554.  catches: reporting the long step as a finite escape
        model = two_regime_scalar(Sigma=(0.3, 0.3))
        rates = np.array([[0.0, 1500.0], [1500.0, 0.0]])
        grid = TimeGrid(0.0, 1.5, n_steps)
        if n_steps == 200:
            with pytest.raises(numkit.NumericalError) as err:
                mjls_inner.solve_coupled_riccati(model, rates, grid)
            assert not isinstance(err.value, BlowupError)
            assert str(err.value).endswith("9012 per step; raise grid.n_steps")
        else:
            P = mjls_inner.solve_coupled_riccati(model, rates, grid).P
            assert 1.5 < np.abs(P).max() < 1.6

    def test_turnpike_rate_matches_hamiltonian_gap(self, scalar_lq_model):
        grid = TimeGrid(0.0, 12.0, 1200)
        sol = mjls_inner.solve_coupled_riccati(scalar_lq_model, np.zeros((1, 1)), grid)
        p = sol.P[::-1, 0, 0, 0]  # ascending tau
        taus = grid.T - grid.nodes()[::-1]
        resid = np.abs(p - p[-1])
        mask = (taus >= 2.0) & (taus <= 8.0)
        slope = np.polyfit(taus[mask], np.log(resid[mask]), 1)[0]
        rho = mjls_inner.hamiltonian_spectral_gap(scalar_lq_model)
        assert abs(-slope - 2.0 * rho) <= 0.2 * 2.0 * rho


class TestFeedbackGains:
    def test_zero_value_matrix(self):
        m = scalar_model()
        K_u, K_w = oracles.feedback_gains(np.zeros((1, 1)), m, 0)
        assert K_u[0, 0] == 0.0 and K_w[0, 0] == 0.0

    def test_scalar_values(self):
        m = scalar_model(D=1.0)
        K_u, K_w = oracles.feedback_gains(np.array([[3.0]]), m, 0)
        assert K_u[0, 0] == pytest.approx(-3.0)
        assert K_w[0, 0] == pytest.approx(3.0)

    def test_zero_input_matrix(self):
        m = scalar_model(B=0.0)
        K_u, _ = oracles.feedback_gains(np.array([[7.0]]), m, 0)
        assert K_u[0, 0] == 0.0

    def test_closed_loop_cost_matches_value(self):
        # with Sigma = 0 the closed-loop cost of the saddle gains equals
        # x0' P(0) x0 exactly; this pins the gain normalization
        m = scalar_model(A=0.3, D=0.5, Q=2.0, R=1.5, S=4.0, Q_T=1.0)
        grid = TimeGrid(0.0, 1.0, 2000)
        sol = mjls_inner.solve_coupled_riccati(m, np.zeros((1, 1)), grid)
        x = 1.7
        cost = 0.0
        h = grid.step
        for idx in range(grid.n_steps):
            # RK4 on the closed-loop state with P interpolated at stage times
            def deriv(x_val, P_val):
                K_u, K_w = oracles.feedback_gains(P_val, m, 0)
                u = K_u[0, 0] * x_val
                w = K_w[0, 0] * x_val
                dx = m.A[0, 0, 0] * x_val + m.B[0, 0, 0] * u + m.D[0, 0, 0] * w
                dc = (m.Q[0, 0, 0] * x_val**2 + m.R[0, 0, 0] * u**2
                      - m.S[0, 0, 0] * w**2)
                return dx, dc

            P_l, P_r = sol.P[idx, 0], sol.P[idx + 1, 0]
            P_mid = 0.5 * (P_l + P_r)
            k1x, k1c = deriv(x, P_l)
            k2x, k2c = deriv(x + 0.5 * h * k1x, P_mid)
            k3x, k3c = deriv(x + 0.5 * h * k2x, P_mid)
            k4x, k4c = deriv(x + h * k3x, P_r)
            cost += (h / 6.0) * (k1c + 2 * k2c + 2 * k3c + k4c)
            x += (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        cost += m.Q_T[0, 0, 0] * x**2
        expected = sol.P[0, 0, 0, 0] * 1.7**2
        assert abs(cost - expected) <= 1e-6 * max(1.0, abs(expected))

    def test_singular_r_raises(self):
        ones = np.ones((1, 1, 1))
        with pytest.raises(ValueError):
            RegimeLQModel(A=0 * ones, B=ones, D=0 * ones, Sigma=0 * ones,
                          Q=ones, R=0 * ones, S=ones, Q_T=0 * ones)


class TestHamiltonian:
    def test_zero_blocks(self):
        m = scalar_model(Q=0.0, B=1.0, R=1.0, S=1.0, D=1.0)  # Sctrl = 0
        np.testing.assert_allclose(
            mjls_inner.hamiltonian_matrices(m)[0], np.zeros((2, 2)), atol=1e-14
        )

    def test_scalar_assembly(self):
        m = scalar_model(A=1.0, Q=2.0, B=np.sqrt(3.0))
        H = mjls_inner.hamiltonian_matrices(m)[0]
        np.testing.assert_allclose(H, [[1.0, -3.0], [-2.0, -1.0]], atol=1e-12)

    def test_scalar_spectrum(self):
        m = scalar_model(A=1.0, Q=2.0, B=np.sqrt(3.0))
        lam = np.linalg.eigvals(mjls_inner.hamiltonian_matrices(m)[0])
        np.testing.assert_allclose(
            sorted(lam.real), [-np.sqrt(7.0), np.sqrt(7.0)], atol=1e-10
        )
        assert mjls_inner.hamiltonian_spectral_gap(m) == pytest.approx(np.sqrt(7.0))

    def test_gap_is_minimum_over_regimes(self):
        # regime 0 has gap sqrt(7), regime 1 has gap 1 (A=0, Q=1, Sctrl=1)
        col = lambda vals: np.array([[[v]] for v in vals])
        m = RegimeLQModel(
            A=col([1.0, 0.0]), B=col([np.sqrt(3.0), 1.0]),
            D=np.zeros((2, 1, 1)), Sigma=np.zeros((2, 1, 1)),
            Q=col([2.0, 1.0]), R=np.ones((2, 1, 1)), S=np.ones((2, 1, 1)),
            Q_T=np.zeros((2, 1, 1)),
        )
        assert mjls_inner.hamiltonian_spectral_gap(m) == pytest.approx(1.0)

    def test_zero_gap(self):
        m = scalar_model(A=0.0, Q=0.0, D=1.0)  # Sctrl = 0, Q = 0
        assert mjls_inner.hamiltonian_spectral_gap(m) == 0.0
