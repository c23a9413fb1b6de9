import dataclasses

import json
import os

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from rsgames import as_game, game_core, numkit, outer_layer
from rsgames.as_game import ASModel
from rsgames.numkit import NumericalError
from rsgames.outer_layer import OuterGameSpec


with open(os.path.join(os.path.dirname(__file__), "data",
                       "macro_reference.json")) as _handle:
    MACRO_REFERENCE = json.load(_handle)


def small_model(**overrides):
    kwargs = dict(gamma=0.5, xi=0.5, A=10.0, k=8.0, sigmas=[0.2253, 0.5305],
                  q_max=3, horizon=1.0, rates=[[0.0, 4.0], [4.0, 0.0]])
    kwargs.update(overrides)
    return ASModel(**kwargs)


def theta_ode_oracle(model, rates, tau, n_steps):
    """RK4 of the nonlinear penalty system, independent of the expm path."""
    N, nq = model.n_regimes, model.n_levels
    gamma, A, k = model.gamma, model.A, model.k
    C0 = (1.0 + gamma / k) ** (-k / gamma)
    qs = np.arange(-model.q_max, model.q_max + 1)
    risk = 0.5 * gamma * (model.sigmas[:, None] ** 2
                          + model.xi * gamma) * qs[None, :] ** 2

    def rhs(theta):
        out = risk.copy()
        d_ask = theta[:, :-1] - theta[:, 1:]
        out[:, 1:] -= (A / gamma) * C0 * np.exp(-gamma * d_ask)
        d_bid = theta[:, 1:] - theta[:, :-1]
        out[:, :-1] -= (A / gamma) * C0 * np.exp(-gamma * d_bid)
        for i in range(N):
            for j in range(N):
                if j != i:
                    out[i] += rates[i, j] / gamma * (
                        1.0 - np.exp(-gamma * (theta[j] - theta[i]))
                    )
        return out

    theta = np.zeros((N, nq))
    h = tau / n_steps
    for _ in range(n_steps):
        k1 = rhs(theta)
        k2 = rhs(theta + 0.5 * h * k1)
        k3 = rhs(theta + 0.5 * h * k2)
        k4 = rhs(theta + h * k3)
        theta = theta + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return theta


class TestPredatorDrift:
    def test_flat_at_zero(self, paper_as_model):
        assert oracles.predator_drift(0, paper_as_model) == 0.0

    def test_paper_values(self, paper_as_model):
        assert oracles.predator_drift(5, paper_as_model) == pytest.approx(-1.0)

    def test_odd_function(self, paper_as_model):
        for q in range(1, 11):
            assert oracles.predator_drift(-q, paper_as_model) == \
                -oracles.predator_drift(q, paper_as_model)

    def test_bound_checked(self, paper_as_model):
        with pytest.raises(ValueError):
            oracles.predator_drift(11, paper_as_model)


class TestBuildGenerator:
    def test_pure_fill_tridiagonal(self):
        m = small_model(sigmas=[1e-12], xi=0.0, q_max=1, rates=np.zeros((1, 1)))
        M = as_game.build_generator(m)
        fill = m.A * m.fill_constant
        expected = -fill * np.array(
            [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
        )
        np.testing.assert_allclose(M, expected, atol=1e-18)
        # row sums: boundary rows shed half the flow of the interior row
        np.testing.assert_allclose(M.sum(axis=1), [-fill, -2 * fill, -fill])

    def test_single_inventory_level_reduces_to_regime_block(self):
        m = small_model(sigmas=[0.3, 0.7], q_max=1, xi=0.0)
        m_q0 = dataclasses.replace(m)
        # keep only q = 0 by comparing against the analytic block pattern
        M = as_game.build_generator(m_q0)
        nq = 3
        center = [0 * nq + 1, 1 * nq + 1]
        block = M[np.ix_(center, center)]
        # q = 0 rows: no risk on the diagonal beyond switching outflow
        np.testing.assert_allclose(
            block, [[4.0, -4.0], [-4.0, 4.0]], atol=1e-12
        )

    def test_boundary_suppression_pattern(self, paper_as_model):
        M = as_game.build_generator(paper_as_model)
        nq = paper_as_model.n_levels
        fill = paper_as_model.A * paper_as_model.fill_constant
        # q = -q_max row has no ask entry (would leave the lattice)
        assert M[0, 0] != 0.0
        assert M[0, 1] == pytest.approx(-fill)
        # interior rows carry both sides
        assert M[5, 4] == pytest.approx(-fill)
        assert M[5, 6] == pytest.approx(-fill)
        # q = +q_max row has no bid entry
        assert M[nq - 1, nq - 2] == pytest.approx(-fill)

    def test_zero_generator_gives_zero_theta(self):
        (v, log_scale), = as_game._propagate(np.zeros((4, 4)), 3.0, 1, np.ones(4))
        np.testing.assert_allclose(np.log(v) + log_scale, 0.0, atol=1e-15)


class TestSolveThetaExact:
    def test_terminal_condition(self, paper_as_model):
        theta = as_game.solve_theta_exact(paper_as_model, None, 0.0)
        assert np.abs(theta).max() == 0.0

    def test_table_terminal_row(self, lively_as_model):
        table = as_game.build_theta_table(lively_as_model, 64)
        assert np.abs(table.theta[0]).max() == 0.0
        assert table.taus[0] == 0.0

    def test_matches_nonlinear_ode_small(self):
        m = small_model()
        tau = 0.7
        exact = as_game.solve_theta_exact(m, None, tau)
        oracle = theta_ode_oracle(m, m.rates, tau, 4000)
        rel = np.abs(exact - oracle) / (np.abs(oracle) + 1e-12)
        assert rel.max() <= 1e-8

    def test_piecewise_composition(self):
        m = small_model()
        single = as_game.solve_theta_exact(m, None, 0.9)
        composed = oracles.solve_theta_piecewise(
            m, [(0.4, m.rates), (0.5, m.rates)]
        )
        np.testing.assert_allclose(composed, single, atol=1e-10)

    def test_piecewise_vs_oracle(self):
        m = small_model()
        fast = np.array([[0.0, 9.0], [9.0, 0.0]])
        # segment nearest the horizon uses the base rates
        composed = oracles.solve_theta_piecewise(m, [(0.3, m.rates), (0.4, fast)])

        # oracle: integrate the nonlinear system through both segments
        theta = theta_ode_oracle(m, m.rates, 0.3, 3000)
        qs = np.arange(-m.q_max, m.q_max + 1)
        N, nq = m.n_regimes, m.n_levels
        gamma, A, k = m.gamma, m.A, m.k
        C0 = m.fill_constant
        risk = 0.5 * gamma * (m.sigmas[:, None] ** 2 + m.xi * gamma) * qs[None, :] ** 2

        def rhs(th, rates):
            out = risk.copy()
            out[:, 1:] -= (A / gamma) * C0 * np.exp(-gamma * (th[:, :-1] - th[:, 1:]))
            out[:, :-1] -= (A / gamma) * C0 * np.exp(-gamma * (th[:, 1:] - th[:, :-1]))
            for i in range(N):
                for j in range(N):
                    if j != i:
                        out[i] += rates[i, j] / gamma * (
                            1.0 - np.exp(-gamma * (th[j] - th[i])))
            return out

        h = 0.4 / 3000
        for _ in range(3000):
            k1 = rhs(theta, fast)
            k2 = rhs(theta + 0.5 * h * k1, fast)
            k3 = rhs(theta + 0.5 * h * k2, fast)
            k4 = rhs(theta + h * k3, fast)
            theta = theta + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        rel = np.abs(composed - theta) / (np.abs(theta) + 1e-12)
        assert rel.max() <= 1e-7

    def test_positivity_and_symmetry(self):
        m = small_model()
        table = as_game.build_theta_table(m, 128)
        assert np.all(np.isfinite(table.theta))
        # symmetric dynamics: theta even in q, reflecting book symmetry
        flipped = table.theta[:, :, ::-1]
        np.testing.assert_allclose(table.theta, flipped, atol=1e-10)

    def test_rejects_negative_tau(self, paper_as_model):
        with pytest.raises(ValueError):
            as_game.solve_theta_exact(paper_as_model, None, -1.0)


rate_matrices = st.integers(1, 3).flatmap(
    lambda N: hnp.arrays(float, (N, N), elements=st.floats(0.0, 20.0)))


class TestPropagator:
    @settings(max_examples=40, deadline=None)
    @given(rates=rate_matrices, q_max=st.integers(1, 6),
           gamma=st.floats(0.05, 1.0), xi=st.floats(0.0, 1.0),
           A=st.floats(1.0, 50.0), horizon=st.floats(0.1, 2.0),
           n_steps=st.integers(1, 8), split=st.floats(0.1, 0.9), data=st.data())
    def test_table_rows_and_segments_match_exact(self, rates, q_max, gamma, xi, A,
                                                 horizon, n_steps, split, data):
        N = rates.shape[0]
        sigmas = data.draw(hnp.arrays(float, N, elements=st.floats(0.1, 1.0)))
        m = ASModel(gamma=gamma, xi=xi, A=A, k=5.0, sigmas=sigmas, q_max=q_max,
                    horizon=horizon, rates=rates)
        table = as_game.build_theta_table(m, n_steps)
        for tau, row in zip(table.taus[1:], table.theta[1:]):
            exact = as_game.solve_theta_exact(m, None, tau)
            assert np.abs(row - exact).max() <= 1e-10 * np.abs(exact).max()
        exact = as_game.solve_theta_exact(m, None, horizon)
        two = oracles.solve_theta_piecewise(
            m, [(split * horizon, None), ((1.0 - split) * horizon, None)])
        assert np.abs(two - exact).max() <= 1e-10 * np.abs(exact).max()

    def test_lost_positivity_raises(self):
        # expm(-M) of this M has a negative entry, so v = (1, 2) turns negative
        M = np.array([[0.0, 5.0], [5.0, 0.0]])
        with pytest.raises(as_game.AccuracyError):
            list(as_game._propagate(M, 1.0, 3, np.array([1.0, 2.0])))

    def test_sub_segment_limit(self, monkeypatch):
        # |M| = 2, so dtau 60 takes 4 sub-segments of norm 30; a dtau past
        # it, and an |M| dtau that overflows, are refused before any step
        monkeypatch.setattr(as_game, "MAX_SUB_SEGMENTS", 4)
        M, v = np.diag([1.0, 2.0]), np.ones(2)
        (w, log_scale), = as_game._propagate(M, 60.0, 1, v)
        np.testing.assert_allclose(np.log(w) + log_scale, [-60.0, -120.0], rtol=1e-12)
        for big, dtau in ((M, 60.000001), (1e300 * M, 1e10)):
            with pytest.raises(NumericalError, match="sub-segments per interval"):
                next(as_game._propagate(big, dtau, 1, v))


class TestThetaTable:
    def test_slice_at_matches_theta_at(self):
        m = small_model()
        table = as_game.build_theta_table(m, 16)
        taus = table.taus
        probes = [*taus, *(0.5 * (taus[1:] + taus[:-1])),
                  taus[3] + 0.1 * (taus[4] - taus[3]), -0.5, 2.0 * taus[-1]]
        scale = np.abs(table.theta).max()
        for tau in probes:
            want = [[oracles.theta_at(table, i, q, tau) for q in m.q_levels()]
                    for i in range(m.n_regimes)]
            # the same formula as np.interp; a fused multiply-add there may
            # move the last bit
            np.testing.assert_allclose(oracles.slice_at(table, tau), want, rtol=0,
                                       atol=4e-16 * scale)

    def test_optimal_quotes_rejects_time_outside_horizon(self):
        m = small_model()
        table = as_game.build_theta_table(m, 16)
        for t in (-0.1, m.horizon + 0.1, np.nan):
            with pytest.raises(ValueError):
                oracles.optimal_quotes(table, m, 0, 0, t)


class TestIntegratedVariance:
    def test_single_regime(self):
        m = small_model(sigmas=[0.4], rates=np.zeros((1, 1)))
        w = oracles.integrated_variance(m, None, 0, 2.5)
        assert w == pytest.approx(0.4**2 * 2.5, rel=1e-12)

    def test_equal_volatilities(self):
        m = small_model(sigmas=[0.4, 0.4])
        w = oracles.integrated_variance(m, None, 0, 1.3)
        assert w == pytest.approx(0.4**2 * 1.3, rel=1e-12)

    def test_against_quadrature(self):
        m = small_model()
        Q = m.rates
        s = m.sigmas**2
        for i in (0, 1):
            w = oracles.integrated_variance(m, None, i, 0.8)
            ref, err = scipy.integrate.quad(
                lambda u: (scipy.linalg.expm(Q * u) @ s)[i], 0.0, 0.8,
                epsabs=1e-13, epsrel=1e-13,
            )
            assert abs(w - ref) <= 1e-10

    def test_richardson_expansion_order(self):
        m = small_model()
        prev = None
        for tau in (0.2, 0.1, 0.05, 0.025):
            exact = oracles.integrated_variance(m, None, 0, tau)
            approx = oracles.integrated_variance_expansion(m, None, 0, tau)
            ratio = abs(exact - approx) / tau**3
            if prev is not None:
                assert ratio <= prev * 1.5  # stays bounded as tau halves
            prev = ratio


import scipy.linalg  # noqa: E402  (used by the quadrature oracle above)


def single_integrated_variance(model, i, tau, expm=numkit.expm):
    """w_i(tau) from one (N+1, N+1) exponential, as before batching."""
    N = model.n_regimes
    aug = np.zeros((N + 1, N + 1))
    aug[:N, :N] = model.rates
    aug[:N, N] = model.sigmas**2
    return float(expm(aug * tau)[i, N])


@st.composite
def risk_cases(draw):
    N = draw(st.integers(2, 5))
    rates = draw(hnp.arrays(np.float64, (N, N), elements=st.floats(0.0, 50.0)))
    sigmas = draw(hnp.arrays(np.float64, N, elements=st.floats(0.05, 2.0)))
    taus = draw(st.lists(st.floats(0.0, 3.0), min_size=0, max_size=6))
    taus = [0.0] + taus + [0.0]
    xi = draw(st.floats(0.0, 20.0))
    gamma = draw(st.floats(0.01, 2.0))
    return (small_model(sigmas=sigmas, rates=rates, xi=xi, gamma=gamma),
            np.array(taus))


class TestRiskFactors:
    @settings(max_examples=150, deadline=None)
    @given(risk_cases())
    def test_stack_equals_single_exponentials(self, case):
        m, taus = case
        got = as_game.risk_factors(m, None, taus)
        assert got.shape == (len(taus), m.n_regimes)
        for n, tau in enumerate(taus):
            for i in range(m.n_regimes):
                w = single_integrated_variance(m, i, tau)
                assert got[n, i] == m.gamma * w + m.gamma**2 * m.xi * tau
                assert oracles.integrated_variance(m, None, i, tau) == w
                assert as_game.risk_factor(m, None, i, tau) == got[n, i]
                # scipy's expm, which numkit.expm replaced: the band of
                # test_numkit's augmented generators, above the subnormals
                want = single_integrated_variance(m, i, tau, scipy.linalg.expm)
                assert w == pytest.approx(want, rel=1e-12, abs=np.finfo(float).tiny)

    def test_theta_expansions_match_scalar_form(self):
        m = small_model()
        taus = np.array([0.0, 0.01, 0.3])
        grid = as_game.theta_expansions(m, None, taus)
        rent = (m.A / m.gamma) * m.fill_constant
        for n, tau in enumerate(taus):
            for i in range(m.n_regimes):
                factor = as_game.risk_factor(m, None, i, tau)
                for qi, q in enumerate(m.q_levels()):
                    c_q = 1.0 if abs(q) == m.q_max else 2.0
                    assert grid[n, i, qi] == 0.5 * q * q * factor - c_q * rent * tau
                    assert grid[n, i, qi] == oracles.theta_expansion(m, None, i, q, tau)

    def test_generator_stack_equals_one_at_a_time(self):
        # the macro sweep costs every regime's adopted generator in one call
        rng = np.random.default_rng(31)
        m = small_model(sigmas=[0.3, 0.8, 0.5], rates=np.ones((3, 3)))
        rates = rng.uniform(0.0, 6.0, (5, 3, 3))
        taus = np.array([0.0, 0.02, 0.5, 1.0])
        stacked = as_game.theta_expansions(m, rates, taus, [-2, 3])
        assert stacked.shape == (5, 4, 3, 2)
        for b in range(5):
            np.testing.assert_array_equal(
                stacked[b], as_game.theta_expansions(m, rates[b], taus, [-2, 3]))
        with pytest.raises(ValueError):
            as_game.risk_factors(m, -rates, taus)

    def test_rejects_negative_tau(self):
        m = small_model()
        with pytest.raises(ValueError):
            as_game.risk_factors(m, None, [0.0, 0.1, -1e-12])
        with pytest.raises(ValueError):
            oracles.integrated_variance(m, None, 0, -0.5)
        with pytest.raises(ValueError):
            as_game.theta_expansions(m, None, [0.1], [m.q_max + 1])


class TestThetaExpansion:
    def test_zero_horizon(self, paper_as_model):
        assert oracles.theta_expansion(paper_as_model, None, 0, 3, 0.0) == 0.0

    def test_fill_constant_value(self, paper_as_model):
        assert paper_as_model.fill_constant == pytest.approx(0.36824, abs=1e-5)

    def test_boundary_coefficient_halves(self):
        m = small_model()
        tau = 1e-6
        interior = as_game.solve_theta_exact(m, None, tau)[0, m.q_max]  # q = 0
        boundary = as_game.solve_theta_exact(m, None, tau)[0, -1]       # q = +q_max
        rent = (m.A / m.gamma) * m.fill_constant * tau
        risk_b = 0.5 * m.q_max**2 * as_game.risk_factor(m, None, 0, tau)
        assert interior == pytest.approx(-2.0 * rent, rel=1e-4)
        assert boundary == pytest.approx(risk_b - rent, rel=1e-4)

    def test_expansion_order_cubic(self):
        # regime-mixing benchmark: negligible executed flow isolates the
        # cubic remainder of the printed short-horizon formula
        m = small_model(A=1e-9, gamma=1.0, q_max=5)
        taus = [2.0 ** (-e) for e in range(4, 11)]
        errs = []
        for tau in taus:
            exact = as_game.solve_theta_exact(m, None, tau)
            worst = 0.0
            for i in (0, 1):
                for q in (2, 3, 5):
                    approx = oracles.theta_expansion(m, None, i, q, tau)
                    worst = max(worst, abs(exact[i, q + 5] - approx))
            errs.append(worst)
        slope = np.polyfit(np.log(taus), np.log(errs), 1)[0]
        assert 2.7 <= slope <= 3.3

    def test_fill_risk_cross_term_caps_order(self):
        # with material executed flow the remainder is quadratic, driven by
        # the q-independent cross term 0.5*gamma*(sigma^2+xi*gamma)*A*C0*tau^2
        m = small_model(A=10.0, gamma=1.0, q_max=5)
        coeff = 0.5 * m.gamma * (m.sigmas[0] ** 2 + m.xi * m.gamma) \
            * m.A * m.fill_constant
        for tau in (2.0**-8, 2.0**-9, 2.0**-10):
            exact = as_game.solve_theta_exact(m, None, tau)[0, 5 + 2]
            approx = oracles.theta_expansion(m, None, 0, 2, tau)
            assert abs(exact - approx) == pytest.approx(coeff * tau**2, rel=0.25)


class TestQuotes:
    def test_base_offset_at_flat_table(self, paper_as_model):
        table = as_game.build_theta_table(paper_as_model, 8)
        quote = oracles.optimal_quotes(table, paper_as_model, 0, 0,
                                       paper_as_model.horizon)
        base = np.log(1.002) / 0.02
        assert quote.ask == pytest.approx(base, abs=1e-12)
        assert quote.bid == pytest.approx(base, abs=1e-12)
        assert base == pytest.approx(0.09990, abs=5e-6)

    def test_symmetric_book_at_zero_inventory(self):
        m = small_model()
        table = as_game.build_theta_table(m, 64)
        quote = oracles.optimal_quotes(table, m, 1, 0, 0.25)
        assert quote.ask == pytest.approx(quote.bid, abs=1e-12)

    def test_volatile_regime_quotes_wider(self, paper_as_model):
        table = as_game.build_theta_table(paper_as_model, 256)
        for q in (-3, 0, 4):
            calm = oracles.optimal_quotes(table, paper_as_model, 0, q, 0.0)
            wild = oracles.optimal_quotes(table, paper_as_model, 1, q, 0.0)
            assert wild.ask + wild.bid > calm.ask + calm.bid

    def test_sides_suppressed_at_bounds(self):
        m = small_model()
        table = as_game.build_theta_table(m, 32)
        at_short = oracles.optimal_quotes(table, m, 0, -m.q_max, 0.5)
        assert not at_short.ask_active and at_short.bid_active
        at_long = oracles.optimal_quotes(table, m, 0, m.q_max, 0.5)
        assert at_long.ask_active and not at_long.bid_active

    def test_quotes_clamped_nonnegative(self):
        m = small_model(xi=0.0, sigmas=[2.5, 2.5], gamma=2.0, q_max=4)
        table = as_game.build_theta_table(m, 64)
        ask, bid = as_game.quote_surfaces(table, m)
        # every side that quotes is at least 0; the ask does not quote at
        # q = -q_max, nor the bid at q = +q_max, and is NaN there
        assert ask[..., 1:].min() >= 0.0 and bid[..., :-1].min() >= 0.0
        assert np.isnan(ask[..., 0]).all() and np.isnan(bid[..., -1]).all()

    def test_monotone_widening(self):
        base = dict(gamma=0.5, A=5.0, k=8.0, q_max=4, horizon=0.5,
                    rates=np.zeros((1, 1)))
        tau = 0.3

        def total_spread(xi, sigma, q):
            m = ASModel(sigmas=[sigma], xi=xi, **base)
            table = as_game.build_theta_table(m, 128)
            quote = oracles.optimal_quotes(table, m, 0, q, m.horizon - tau)
            return quote.ask + quote.bid

        # widening in xi
        spreads = [total_spread(xi, 0.4, 0) for xi in (0.0, 0.2, 0.5, 1.0)]
        assert np.all(np.diff(spreads) > 0.0)
        # widening in sigma^2
        spreads = [total_spread(0.2, s, 0) for s in (0.2, 0.4, 0.8)]
        assert np.all(np.diff(spreads) > 0.0)
        # nondecreasing in |q| away from the bounds
        spreads = [total_spread(0.2, 0.4, q) for q in (0, 1, 2)]
        assert np.all(np.diff(spreads) >= -1e-12)


def effective_variance(m, i):
    """sigma_i^2 + xi*gamma as the generator charges it: the q = 1 diagonal
    entry of regime i without switching, over gamma^2 / 2."""
    M = as_game.build_generator(m, np.zeros((m.n_regimes, m.n_regimes)))
    row = i * m.n_levels + m.q_max + 1
    return M[row, row] / (0.5 * m.gamma**2)


class TestEffectiveVolatility:
    def test_no_predator(self):
        m = small_model(xi=0.0, sigmas=[0.3, 0.5])
        assert effective_variance(m, 0) == pytest.approx(0.09)
        w = oracles.integrated_variance(m, None, 0, 0.4)
        assert as_game.risk_factor(m, None, 0, 0.4) == pytest.approx(m.gamma * w)

    def test_paper_arithmetic(self):
        m = small_model(gamma=0.02, xi=10.0, sigmas=[np.sqrt(0.05), 0.5])
        assert effective_variance(m, 0) == pytest.approx(0.25)

    def test_risk_isomorphism_identity(self, paper_as_model):
        m = paper_as_model
        iso_sigmas = np.sqrt(m.sigmas**2 + m.gamma * m.xi)
        m_iso = dataclasses.replace(m, sigmas=iso_sigmas, xi=0.0)
        t1 = as_game.build_theta_table(m, 128)
        t2 = as_game.build_theta_table(m_iso, 128)
        scale = np.abs(t1.theta).max()
        assert np.abs(t1.theta - t2.theta).max() <= 1e-12 * scale


class TestMacroLayer:
    def affine_spec(self, att=2.0, stab=1.5, mu0=4.0, **kw):
        off = np.ones((2, 2)) - np.eye(2)
        return OuterGameSpec.from_affine(mu0 * off, att * off, stab * off, **kw)

    def test_macro_cost_is_expansion(self):
        # with no switching the regimes decouple and each RK4 step of
        # U_i' = -phi_i is Simpson's rule on the penalty expansion
        m = small_model()
        spec = self.affine_spec(att=0.0, stab=0.0, mu0=0.0)
        n_steps = 20
        h = m.horizon / n_steps
        no_switching = np.zeros((2, 2))
        for q in (-3, 0, 2):
            sol = as_game.solve_macro_as(m, spec, q, n_steps)
            for i in range(2):
                phi = [oracles.theta_expansion(m, no_switching, i, q, tau)
                       for tau in np.linspace(0.0, m.horizon, 2 * n_steps + 1)]
                simpson = np.concatenate([[0.0], np.cumsum(
                    [(h / 6.0) * (phi[2 * k] + 4.0 * phi[2 * k + 1] + phi[2 * k + 2])
                     for k in range(n_steps)])])
                assert np.allclose(sol.k[::-1, i], simpson, rtol=1e-12, atol=1e-14)

    def test_indifferent_when_symmetric(self):
        m = small_model(sigmas=[0.4, 0.4], xi=0.0)
        spec = self.affine_spec()
        sol = as_game.solve_macro_as(m, spec, 2, 50)
        assert np.abs(sol.k[:, 0] - sol.k[:, 1]).max() <= 1e-10

    def test_attacker_raises_value(self):
        m = small_model()
        base = as_game.solve_macro_as(m, self.affine_spec(att=0.0, stab=0.0), 3, 80)
        attacked = as_game.solve_macro_as(m, self.affine_spec(att=2.0, stab=0.0), 3, 80)
        assert np.all(attacked.k >= base.k - 1e-9)
        assert attacked.k[0].max() > base.k[0].max()

    def test_stabilizer_lowers_value(self):
        m = small_model()
        base = as_game.solve_macro_as(m, self.affine_spec(att=0.0, stab=0.0), 3, 80)
        stabilized = as_game.solve_macro_as(m, self.affine_spec(att=0.0, stab=1.5), 3, 80)
        assert np.all(stabilized.k <= base.k + 1e-9)

    def test_meta_holds_plain_values(self):
        # cli writes meta as macro_report.json as it is
        m = small_model()
        sol = as_game.solve_macro_as(m, self.affine_spec(), np.int64(-2), 20)
        assert sol.meta == {"mode": "affine", "inventory": -2,
                            "nonbilinear_nodes": sol.meta["nonbilinear_nodes"]}
        assert type(sol.meta["inventory"]) is int
        assert type(sol.meta["nonbilinear_nodes"]) is int

    def test_quadratic_mode_runs_and_orders(self):
        m = small_model()
        spec = self.affine_spec(rho_f=0.5, rho_g=0.5)
        sol = as_game.solve_macro_as(m, spec, 3, 60, mode="quadratic")
        assert sol.meta["mode"] == "quadratic"
        # efforts stay in [0, 1] when clamped (default)
        assert sol.f[:, :, 1].min() >= 0.0 and sol.f[:, :, 1].max() <= 1.0
        # generator rows stay valid
        assert np.abs(sol.mu.sum(axis=2)).max() <= 1e-10

    POLICIES = {
        "quadratic": lambda gaps, s: outer_layer.proportional_policy(
            gaps, s.lam_att, s.lam_stab, s.rho_f, s.rho_g),
        "quadratic_unclamped": lambda gaps, s: outer_layer.proportional_policy(
            gaps, s.lam_att, s.lam_stab, s.rho_f, s.rho_g, clamp=False),
        "bang_bang": lambda gaps, s: outer_layer.bang_bang_policy(
            gaps, s.lam_att, s.lam_stab),
        "bang_bang_flipped": lambda gaps, s: outer_layer.bang_bang_policy(
            gaps, s.lam_att, s.lam_stab, flip=True),
    }

    @pytest.mark.parametrize("mode", sorted(POLICIES))
    def test_a_policy_mode_plays_its_policy(self, mode):
        # every node's efforts are the mode's policy on that node's gaps;
        # catches: a mode that drops its clamp or its flip
        m = small_model()
        spec = self.affine_spec(rho_f=1e-3, rho_g=1e-3)
        sol = as_game.solve_macro_as(m, spec, 3, 60, mode=mode)
        assert sol.meta["mode"] == mode
        for U, f, g in zip(sol.k, sol.f[:, :, 1], sol.g[:, :, 1]):
            want_f, want_g = self.POLICIES[mode](outer_layer.stability_gaps(U), spec)
            np.testing.assert_array_equal(f, want_f)
            np.testing.assert_array_equal(g, want_g)

    def test_each_modifier_changes_its_mode(self):
        m = small_model()
        spec = self.affine_spec(rho_f=1e-3, rho_g=1e-3)
        f = {mode: as_game.solve_macro_as(m, spec, 3, 60, mode=mode).f[:, :, 1]
             for mode in self.POLICIES}
        # uncut efforts pass 1 where the cut ones stop at it
        assert f["quadratic"].max() == 1.0 and f["quadratic_unclamped"].max() > 1.0
        # the two orientations commit to different efforts somewhere
        assert np.abs(f["bang_bang"] - f["bang_bang_flipped"]).max() == 1.0

    @pytest.fixture
    def scipy_expm(self, monkeypatch):
        # the reference values were recorded with scipy.linalg.expm; with it
        # in place of numkit.expm the sweep must reproduce them bit for bit
        monkeypatch.setattr(numkit, "expm", scipy.linalg.expm)

    @pytest.mark.parametrize("case", MACRO_REFERENCE["cases"],
                             ids=lambda c: f"{c['mode']}-q{c['q']}")
    def test_matches_reference_values(self, case, scipy_expm):
        # values recorded from the per-call implementation before the
        # running costs were precomputed; the sweep must reproduce them bit
        # for bit
        m = small_model()
        spec = self.affine_spec(rho_f=0.5, rho_g=0.5)
        sol = as_game.solve_macro_as(m, spec, case["q"], MACRO_REFERENCE["n_steps"],
                                     mode=case["mode"])
        for name, got in (("U", sol.k), ("f", sol.f), ("g", sol.g), ("mu", sol.mu)):
            np.testing.assert_array_equal(got, np.array(case[name]), err_msg=name)
        assert sol.meta["nonbilinear_nodes"] == case["nonbilinear_nodes"]

    @pytest.mark.parametrize("case", MACRO_REFERENCE["three_regime_cases"],
                             ids=lambda c: f"{c['mode']}-q{c['q']}")
    def test_matches_three_regime_reference(self, case, scipy_expm):
        # values recorded from the per-regime loop over node games; in
        # affine mode these reach mixed 2x2 saddles and flagged nodes
        sol = self.three_regime_solution(case)
        for name, got in (("U", sol.k), ("f", sol.f), ("g", sol.g), ("mu", sol.mu)):
            np.testing.assert_array_equal(got, np.array(case[name]), err_msg=name)
        assert sol.meta["nonbilinear_nodes"] == case["nonbilinear_nodes"]
        if case["mode"] == "affine":
            mixed = (sol.f[:, :, 1] > 0.0) & (sol.f[:, :, 1] < 1.0)
            assert mixed.any() and case["nonbilinear_nodes"] > 0

    def three_regime_solution(self, case):
        m = small_model(sigmas=case["sigmas"], rates=case["rates"])
        spec = OuterGameSpec.from_affine(np.array(case["mu0"]), np.array(case["lam_att"]),
                                         np.array(case["lam_stab"]), rho_f=0.5, rho_g=0.5)
        return as_game.solve_macro_as(m, spec, case["q"], MACRO_REFERENCE["n_steps"],
                                      mode=case["mode"])

    def test_numkit_expm_stays_near_every_reference(self):
        # the live kernel against the scipy-recorded values, relative to
        # each array's largest entry; measured: U 2.1e-16, f 1.4e-13, g
        # 3.7e-13, mu 9.3e-14, with every flagged count equal
        bands = {"U": 1e-14, "f": 1e-11, "g": 1e-11, "mu": 1e-11}
        spec = self.affine_spec(rho_f=0.5, rho_g=0.5)
        solutions = [(as_game.solve_macro_as(small_model(), spec, case["q"],
                                             MACRO_REFERENCE["n_steps"], mode=case["mode"]),
                      case) for case in MACRO_REFERENCE["cases"]]
        solutions += [(self.three_regime_solution(case), case)
                      for case in MACRO_REFERENCE["three_regime_cases"]]
        for sol, case in solutions:
            for name, got in (("U", sol.k), ("f", sol.f), ("g", sol.g), ("mu", sol.mu)):
                want = np.array(case[name])
                assert np.abs(got - want).max() <= bands[name] * np.abs(want).max(), name
            assert sol.meta["nonbilinear_nodes"] == case["nonbilinear_nodes"]

    @pytest.mark.parametrize("mode", as_game.MACRO_MODES)
    def test_one_game_batch_and_one_exponential_per_node(self, monkeypatch, mode):
        case = MACRO_REFERENCE["three_regime_cases"][0]
        m = small_model(sigmas=case["sigmas"], rates=case["rates"])
        spec = OuterGameSpec.from_affine(np.array(case["mu0"]), np.array(case["lam_att"]),
                                         np.array(case["lam_stab"]))
        calls = {"games": [], "expm": 0}
        solve_games, expm = game_core.solve_games, numkit.expm

        def counting_games(M, *args):
            calls["games"].append(M.shape)
            return solve_games(M, *args)

        def counting_expm(A):
            calls["expm"] += 1
            return expm(A)

        monkeypatch.setattr(game_core, "solve_games", counting_games)
        monkeypatch.setattr(numkit, "expm", counting_expm)
        as_game.solve_macro_as(m, spec, 1, 9, mode=mode)
        n_nodes = 9 + 1
        if mode == "affine":  # plus the vertex generators over all nodes
            assert calls == {"games": [(3, 2, 2)] * n_nodes, "expm": n_nodes + 1}
        else:
            assert calls == {"games": [], "expm": n_nodes}

    def test_requires_affine_profiles(self):
        m = small_model()
        spec = OuterGameSpec(mu_bar=np.zeros((2, 2)),
                             Lambda=np.zeros((2, 2, 2, 2)))
        with pytest.raises(ValueError):
            as_game.solve_macro_as(m, spec, 0, 10)
