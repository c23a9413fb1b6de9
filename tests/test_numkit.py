import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from rsgames import as_game, mjls_inner, numkit, outer_layer
from rsgames.numkit import BlowupError, NumericalError, TimeGrid


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


def rel_err(got, want):
    """|got - want|_1 / |want|_1 over the last two axes, the worst slice."""
    return float((np.abs(got - want).sum(axis=-2).max(axis=-1)
                  / np.abs(want).sum(axis=-2).max(axis=-1)).max())


@st.composite
def augmented_generators(draw):
    """[[Q, s], [0, 0]] tau, as as_game._integrated_variances builds them."""
    N = draw(st.integers(2, 5))
    rates = draw(hnp.arrays(np.float64, (N, N), elements=st.floats(0.0, 50.0)))
    vols = draw(hnp.arrays(np.float64, N, elements=st.floats(0.05, 2.0)))
    aug = np.zeros((N + 1, N + 1))
    aug[:N, :N] = numkit.generator(rates)
    aug[:N, N] = vols**2
    return aug * draw(st.floats(0.0, 3.0))


@st.composite
def penalty_segments(draw):
    """-M dtau / n_sub, the sub-segment as_game._propagate exponentiates,
    with |.|_1 <= MAX_SEG_NORM; half of them on the cyclic 3-regime chain
    0 -> 1 -> 2 -> 0, which is not reversible."""
    if draw(st.booleans()):
        N, rates = 3, np.roll(np.eye(3), 1, axis=1) * draw(st.floats(0.1, 400.0))
    else:
        N = draw(st.integers(1, 3))
        rates = draw(hnp.arrays(np.float64, (N, N), elements=st.floats(0.0, 400.0)))
    positive = st.floats(0.05, 2.0)
    model = as_game.ASModel(
        gamma=draw(positive), xi=draw(st.floats(0.0, 5.0)), A=draw(st.floats(1.0, 200.0)),
        k=draw(st.floats(1.0, 50.0)), q_max=draw(st.integers(1, 8)), horizon=1.0,
        sigmas=draw(hnp.arrays(np.float64, N, elements=positive)), rates=rates)
    M = as_game.build_generator(model)
    dtau = draw(st.floats(1e-4, 1.0))
    n_sub = max(1, math.ceil(np.abs(M).sum(axis=0).max() * dtau / as_game.MAX_SEG_NORM))
    return -M * (dtau / n_sub)


class TestExpm:
    """numkit.expm against scipy.linalg.expm, which it replaced, on the two
    families of matrices the program exponentiates.  Each band is about 20
    times the worst gap measured over 3000 random draws: 4.9e-14 on the
    augmented column and 2.1e-14 on the sub-segments.  The sub-segment band
    is 1e-11 because scipy's own error reaches 1.0e-12 on the segment below,
    where numkit's is 2.5e-15 (against a 40-digit exponential).  Each of
    PADE13[5] off by 1e-6 relative and one squaring too few fails them."""

    @settings(max_examples=400, deadline=None)
    @given(augmented_generators())
    def test_augmented_generators_within_1e_12_of_scipy(self, aug):
        got, want = numkit.expm(aug), scipy.linalg.expm(aug)
        assert rel_err(got, want) <= 1e-12
        # the integrated variances, entry by entry (all positive for tau >
        # 0), above the subnormals, which hold fewer digits
        np.testing.assert_allclose(got[:-1, -1], want[:-1, -1], rtol=1e-12,
                                   atol=np.finfo(float).tiny)

    @settings(max_examples=200, deadline=None)
    @given(penalty_segments())
    @example(np.array([[-1 / 12, 125 / 12, 0.0], [125 / 12, 0.0, 125 / 12],
                       [0.0, 125 / 12, -1 / 12]]))
    def test_penalty_sub_segments_within_1e_11_of_scipy(self, segment):
        assert rel_err(numkit.expm(segment), scipy.linalg.expm(segment)) <= 1e-11

    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 4),
                                            st.just(3), st.just(3)),
                      elements=st.floats(-200.0, 200.0)))
    def test_a_stack_is_its_single_exponentials_bitwise(self, stack):
        # the slices' norms differ, so they take different squaring counts
        got = numkit.expm(stack)
        assert got.shape == stack.shape
        for index in np.ndindex(stack.shape[:-2]):
            np.testing.assert_array_equal(got[index], numkit.expm(stack[index]))

    def test_tau_zero_gives_exactly_the_identity(self):
        aug = np.zeros((4, 4))
        aug[:3, :3] = numkit.generator(np.full((3, 3), 40.0))
        aug[:3, 3] = 0.5
        got = numkit.expm(aug * np.array([0.0, 2.0, 0.0])[:, None, None])
        np.testing.assert_array_equal(got[[0, 2]], np.broadcast_to(np.eye(4), (2, 4, 4)))
        np.testing.assert_array_equal(numkit.expm(np.zeros((1, 1))), [[1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_matrix_gives_nan_alone(self, bad):
        stack = np.array([[[0.0, 1.0], [-1.0, 0.0]], [[0.0, 1.0], [bad, 0.0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = numkit.expm(stack)
        assert np.isnan(got[1]).all()
        np.testing.assert_array_equal(got[0], numkit.expm(stack[0]))

    def test_overflow_gives_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = numkit.expm(np.full((2, 2), 1e300))
        assert not np.isfinite(got).any()


@st.composite
def transition_steps(draw):
    """G dt for a generator G on 2..5 states with |G dt|_inf <= 4, so every
    eigenvalue has |Im| <= 2 < pi and log expm(G dt) = G dt."""
    N = draw(st.integers(2, 5))
    rate = st.one_of(st.just(0.0), st.floats(0.01, 50.0))
    G = numkit.generator(draw(hnp.arrays(np.float64, (N, N), elements=rate)))
    size = np.abs(G).sum(axis=1).max()
    if size == 0.0:
        return G
    return G * (draw(st.floats(1e-3, 4.0)) / size)


class TestLogm:
    """numkit.logm against the truth G dt and against scipy.linalg.logm,
    which it replaced.  Measured worst over 6000 draws: 5.4e-13 from the
    truth (scipy's own: 2.5e-12) and 2.7e-12 from scipy.  A Gauss-Legendre
    weight off by 1e-9 relative, or Denman-Beavers stopping once M is within
    1e-4 of I, fails them."""

    @settings(max_examples=300, deadline=None)
    @given(transition_steps())
    def test_round_trip_within_1e_11(self, step):
        P = numkit.expm(step)
        got = numkit.logm(P)
        scale = np.abs(step).sum(axis=0).max()
        assert np.abs(got - step).sum(axis=0).max() <= 1e-11 * scale
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = scipy.linalg.logm(P)
        assert np.abs(got - want).sum(axis=0).max() <= 1e-10 * scale

    def test_identity_gives_zero_and_stacks_slice_by_slice(self):
        np.testing.assert_array_equal(numkit.logm(np.eye(3)), np.zeros((3, 3)))
        steps = np.stack([numkit.generator(np.full((3, 3), r)) for r in (0.1, 1.0, 3.0)])
        P = numkit.expm(steps)
        got = numkit.logm(P)
        for b in range(3):
            np.testing.assert_array_equal(got[b], numkit.logm(P[b]))
        assert rel_err(got, steps) <= 1e-12

    @pytest.mark.parametrize("A", [np.diag([-1.0, 1.0]), np.diag([-2.0, 1.0]),
                                   np.zeros((2, 2)), [[1.0, np.nan], [0.0, 1.0]]])
    def test_no_real_logarithm_raises_numerical_error(self, A):
        with pytest.raises(NumericalError):
            numkit.logm(np.array(A))
