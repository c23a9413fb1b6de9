import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from rsgames import mjls_inner, numkit, outer_layer
from rsgames.numkit import BlowupError, TimeGrid


def integrate_backward(phi, mu, terminal, grid):
    """-dk/dt = phi + sum_j mu_ij (k_j - k_i) with constant forcing phi, from
    k(T) = terminal back to t0, one outer_layer.k_step per grid interval; the
    trajectory at every node, index 0 = t0."""
    traj = np.empty((grid.n_steps + 1,) + np.shape(terminal))
    traj[-1] = terminal
    for k in range(grid.n_steps - 1, -1, -1):
        traj[k] = outer_layer.k_step(traj[k + 1], (phi,) * 3, mu, -grid.step)
    return traj


class TestGenerator:
    def test_rows_sum_to_zero_and_diagonal_is_ignored(self):
        rates = np.array([[7.0, 1.0, 2.0], [0.5, -4.0, 0.0], [3.0, 3.0, 0.0]])
        G = numkit.generator(rates)
        np.testing.assert_array_equal(G.sum(axis=1), 0.0)
        np.testing.assert_array_equal(G - np.diag(np.diag(G)),
                                      rates - np.diag(np.diag(rates)))
        assert rates[0, 0] == 7.0  # the input is not written

    def test_a_regime_without_exits_gets_plus_zero(self):
        G = numkit.generator(np.stack([np.diag([2.0, -1.0]), [[0.0, 1.0], [0.0, 0.0]]]))
        np.testing.assert_array_equal(G, [[[0.0, 0.0], [0.0, 0.0]],
                                          [[-1.0, 1.0], [0.0, 0.0]]])
        assert not np.signbit(G[G == 0.0]).any()  # no -0.0 on a diagonal


class TestIntegrateBackward:
    def test_zero_rhs(self):
        grid = TimeGrid(0.0, 1.0, 16)
        terminal = np.array([2.0, -3.0])
        traj = integrate_backward(np.zeros(2), np.zeros((2, 2)), terminal, grid)
        np.testing.assert_allclose(traj, np.tile(terminal, (17, 1)), atol=0.0)

    def test_linear_exact(self):
        # -y' = 1 with y(1) = 0 has y(t) = 1 - t
        grid = TimeGrid(0.0, 1.0, 10)
        traj = integrate_backward(np.ones(1), np.zeros((1, 1)), np.zeros(1), grid)
        np.testing.assert_allclose(traj[:, 0], 1.0 - grid.nodes(), atol=1e-12)

    def test_blowup_reports_time(self):
        # the program's backward flow: with B = 0 and D = S = 1 the scalar
        # Riccati flow is dp/dtau = p^2 from p = 1, which escapes at tau = 1
        one = np.ones((1, 1, 1))
        m = mjls_inner.RegimeLQModel(A=0 * one, B=0 * one, D=one, Sigma=0 * one,
                                     Q=0 * one, R=one, S=one, Q_T=one)
        grid = TimeGrid(0.0, 2.0, 64)
        with pytest.raises(BlowupError) as err, np.errstate(over="ignore"):
            mjls_inner.solve_coupled_riccati(m, np.zeros((1, 1)), grid)
        assert err.value.time is not None
        assert 0.0 <= err.value.time <= 2.0

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 1.0, 10)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 0)

    def test_rk4_evaluates_at_stage_times(self):
        # phi holds the forcing at the step's start, midpoint and end; the
        # four RK4 stages read them as start, midpoint, midpoint, end
        class Forcing:
            def __getitem__(self, stage):
                seen.append(stage)
                return np.zeros(1)

        for h in (-0.1, 1.0 / 3.0):
            seen = []
            outer_layer.k_step(np.ones(1), Forcing(), np.zeros((1, 1)), h)
            assert seen == [0, 1, 1, 2]


def assert_t_sf_close(t, nu, rel):
    want = oracles.student_t_sf_oracle(t, nu)
    got = numkit.student_t_sf(t, nu)
    assert abs(got - want) <= oracles.t_sf_error_bound(want, rel), (t, nu, got, want)


class TestStudentTSurvival:
    @settings(max_examples=300, deadline=None)
    @given(nu=st.integers(1, 10_000), t=st.floats(-40.0, 40.0))
    def test_within_1e_12_up_to_1e4_degrees(self, nu, t):
        assert_t_sf_close(t, nu, 1e-12)

    @settings(max_examples=300, deadline=None)
    @given(nu=st.floats(1.0, 1e6), t=st.floats(-40.0, 40.0))
    def test_within_1e_10_up_to_1e6_degrees(self, nu, t):
        assert_t_sf_close(t, nu, 1e-10)

    @pytest.mark.parametrize("t", [2.7386, 2.7387, -2.7387, 3.0, 38.8, 40.0, -40.0])
    @pytest.mark.parametrize("nu", [1, 2, 49, 999, 10_000, 844_637, 1e6])
    def test_series_and_fraction_edges(self, t, nu):
        # either side of SF_SERIES_T2, and the deep tail, which underflows
        # for large nu
        assert_t_sf_close(t, nu, 1e-12 if nu <= 10_000 else 1e-10)

    @pytest.mark.parametrize("nu", [1, 2, 7, 999, 1e6])
    def test_exact_at_zero_and_infinity(self, nu):
        assert numkit.student_t_sf(0.0, nu) == 0.5
        assert numkit.student_t_sf(-0.0, nu) == 0.5
        assert numkit.student_t_sf(math.inf, nu) == 0.0
        assert numkit.student_t_sf(-math.inf, nu) == 1.0

    def test_rejects_fewer_than_one_degree(self):
        with pytest.raises(ValueError, match="nu >= 1"):
            numkit.student_t_sf(1.0, 0.5)
