import dataclasses
import json

import numpy as np
import pytest

from rsgames import as_game, sim
from rsgames.as_game import ASModel
from rsgames.sim import SimConfig


@pytest.fixture
def lively_config(lively_as_model):
    return SimConfig(model=lively_as_model, n_paths=400, n_steps=400, seed=7)


class TestDeterminism:
    def test_reports_bit_identical(self, lively_as_model):
        config = SimConfig(model=lively_as_model, n_paths=40, n_steps=400, seed=99)
        r1 = sim.run_monte_carlo(config).to_dict()
        r2 = sim.run_monte_carlo(config).to_dict()
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_single_path_matches_batch(self, lively_as_model):
        config = SimConfig(model=lively_as_model, n_paths=5, n_steps=400, seed=31)
        policy = sim.make_policy(lively_as_model, "equilibrium", 400)
        uniforms, normals = sim.generate_streams(31, 5, 400)
        batch = sim.run_paths(config, policy, uniforms, normals, True)
        for p in (0, 3):
            rec = sim.simulate_path(config, policy, path_index=p)
            assert rec.pnl == pytest.approx(batch["pnl"][p], abs=1e-12)

    def test_seed_changes_output(self, lively_as_model):
        base = SimConfig(model=lively_as_model, n_paths=20, n_steps=400, seed=1)
        other = SimConfig(model=lively_as_model, n_paths=20, n_steps=400, seed=2)
        r1 = sim.run_monte_carlo(base)
        r2 = sim.run_monte_carlo(other)
        assert r1.strategies["vanilla"]["mean_pnl"] != \
            r2.strategies["vanilla"]["mean_pnl"]


class TestPathMechanics:
    def test_degenerate_market_is_flat(self):
        model = ASModel(gamma=0.5, xi=0.0, A=1e-12, k=8.0, sigmas=[1e-12],
                        q_max=3, horizon=0.01, rates=np.zeros((1, 1)),
                        s0=50.0, dt=0.01 / 100)
        config = SimConfig(model=model, n_paths=10, n_steps=100, seed=3)
        report = sim.run_monte_carlo(config)
        for stats in report.strategies.values():
            assert abs(stats["mean_pnl"]) <= 1e-6
            assert stats["mean_fills_ask"] == 0.0
            assert stats["mean_fills_bid"] == 0.0

    def test_inventory_bound_never_violated(self, lively_config):
        policy = sim.make_policy(lively_config.model, "equilibrium", 400)
        uniforms, normals = sim.generate_streams(7, 100, 400)
        out = sim.run_paths(lively_config, policy, uniforms, normals, True)
        assert np.abs(out["terminal_inventory"]).max() <= lively_config.model.q_max
        rec = sim.simulate_path(lively_config, policy)
        assert np.abs(rec.inventory).max() <= lively_config.model.q_max

    def test_accounting_identity(self, lively_config):
        rec = sim.simulate_path(lively_config)
        assert rec.pnl == pytest.approx(
            rec.cash[-1] + rec.inventory[-1] * rec.price[-1], abs=1e-9
        )
        # cash is exactly the sum of signed fill proceeds
        cash = 0.0
        for s in range(len(rec.time)):
            if rec.ask_fill[s]:
                cash += rec.price[s] + rec.ask[s]
            if rec.bid_fill[s]:
                cash -= rec.price[s] - rec.bid[s]
        assert cash == pytest.approx(rec.cash[-1], abs=1e-9)

    def test_double_fill_cash_arithmetic(self):
        # giant order flow, negligible noise: both sides fill every step and
        # each round trip pays the full quoted spread
        model = ASModel(gamma=0.5, xi=0.0, A=1e9, k=8.0, sigmas=[1e-9],
                        q_max=3, horizon=0.001, rates=np.zeros((1, 1)),
                        s0=10.0, dt=0.001 / 50)
        config = SimConfig(model=model, n_paths=1, n_steps=50, seed=11)
        rec = sim.simulate_path(config)
        assert rec.ask_fill.all() and rec.bid_fill.all()
        np.testing.assert_array_equal(rec.inventory, 0)
        expected = np.sum(rec.ask + rec.bid)
        assert rec.pnl == pytest.approx(expected, abs=1e-9)

    def test_martingale_sanity(self, lively_as_model):
        model = dataclasses.replace(lively_as_model, xi=0.0)
        config = SimConfig(model=model, n_paths=400, n_steps=400, seed=5)
        policy = sim.make_policy(model, "vanilla", 400)
        uniforms, normals = sim.generate_streams(5, 400, 400)
        out = sim.run_paths(config, policy, uniforms, normals, True)
        sigma_bar = np.sqrt((model.sigmas**2).mean())
        se = sigma_bar * np.sqrt(model.dt) / np.sqrt(400 * 400)
        assert abs(out["mean_price_increment"]) <= 3.0 * se


class TestRegimeDraw:
    def test_draw_past_cumsum_end_stays_in_range(self, monkeypatch):
        # equal exit rates, and each row's target cumsum ends one ulp below 1.0
        a, b = 0.1, 0.3
        model = ASModel(gamma=0.5, xi=2.0, A=2000.0, k=8.0,
                        sigmas=[0.3, 0.5, 0.8], q_max=3, horizon=0.02,
                        rates=[[0.0, a, b], [a, 0.0, b], [a, b, 0.0]],
                        dt=0.02 / 40)
        exit_rate = -model.rates[0, 0]
        np.testing.assert_array_equal(np.diag(model.rates), -exit_rate)
        cum_end = a / exit_rate + b / exit_rate
        assert cum_end < 1.0
        # every path leaves at every step, with the draw at the top of [0, 1)
        p_leave = 1.0 - np.exp(-exit_rate * model.dt)
        u_reg = np.nextafter(p_leave, 0.0)
        assert u_reg / p_leave >= cum_end

        real_streams = sim.generate_streams

        def streams(seed, n_paths, n_steps):
            uniforms, normals = real_streams(seed, n_paths, n_steps)
            uniforms[:, :, 0] = u_reg
            return uniforms, normals

        monkeypatch.setattr(sim, "generate_streams", streams)
        config = SimConfig(model=model, n_paths=4, n_steps=40, seed=5)
        report = sim.run_monte_carlo(config)
        assert np.isfinite(report.strategies["vanilla"]["mean_pnl"])

        policy = sim.make_policy(model, "vanilla", 40)
        uniforms, normals = streams(5, 4, 40)
        rec = sim.run_paths(config, policy, uniforms, normals, True,
                            record=True)["record"]
        # the draw takes the last regime with a positive rate: 0 -> 2 -> 1 -> 2
        np.testing.assert_array_equal(rec.regime, [2, 1] * 20)


class TestPolicies:
    def test_vanilla_is_xi_blind(self, lively_as_model):
        m_lo = dataclasses.replace(lively_as_model, xi=1.0)
        m_hi = dataclasses.replace(lively_as_model, xi=5.0)
        p_lo = sim.make_policy(m_lo, "vanilla", 64)
        p_hi = sim.make_policy(m_hi, "vanilla", 64)
        np.testing.assert_array_equal(p_lo.ask, p_hi.ask)
        np.testing.assert_array_equal(p_lo.bid, p_hi.bid)

    def test_equilibrium_equals_vanilla_without_predator(self, lively_as_model):
        m0 = dataclasses.replace(lively_as_model, xi=0.0)
        p_v = sim.make_policy(m0, "vanilla", 64)
        p_e = sim.make_policy(m0, "equilibrium", 64)
        np.testing.assert_array_equal(p_v.ask, p_e.ask)
        np.testing.assert_array_equal(p_v.bid, p_e.bid)

    def test_isomorphism_route_gives_identical_quotes(self, lively_as_model):
        m = lively_as_model
        iso = dataclasses.replace(
            m, sigmas=np.sqrt(m.sigmas**2 + m.gamma * m.xi), xi=0.0
        )
        p_direct = sim.make_policy(m, "equilibrium", 64)
        p_iso = sim.make_policy(iso, "vanilla", 64)
        assert np.abs(p_direct.ask - p_iso.ask).max() <= 1e-12
        assert np.abs(p_direct.bid - p_iso.bid).max() <= 1e-12

    def test_equilibrium_wider_than_vanilla(self, lively_as_model):
        p_v = sim.make_policy(lively_as_model, "vanilla", 64)
        p_e = sim.make_policy(lively_as_model, "equilibrium", 64)
        # total spread widens wherever both sides quote (interior q)
        total_v = p_v.ask[1:, :, 1:-1] + p_v.bid[1:, :, 1:-1]
        total_e = p_e.ask[1:, :, 1:-1] + p_e.bid[1:, :, 1:-1]
        assert np.all(total_e >= total_v - 1e-12)
        assert total_e.mean() > total_v.mean()

    def test_spread_gap_grows_with_xi(self, lively_as_model):
        gaps = []
        for xi in (0.0, 0.5, 1.0, 2.0):
            m = dataclasses.replace(lively_as_model, xi=xi)
            p_v = sim.make_policy(m, "vanilla", 64)
            p_e = sim.make_policy(m, "equilibrium", 64)
            mid = m.q_max
            gaps.append(
                (p_e.ask[-1, :, mid] + p_e.bid[-1, :, mid]).mean()
                - (p_v.ask[-1, :, mid] + p_v.bid[-1, :, mid]).mean()
            )
        assert gaps[0] == 0.0
        assert np.all(np.diff(gaps) > 0.0)

    def test_quote_policy_functions(self, lively_as_model):
        m = lively_as_model
        q_v = sim.quote_policy_vanilla(m, 0, 0, 0.0, n_steps=64)
        q_e = sim.quote_policy_equilibrium(m, 0, 0, 0.0, n_steps=64)
        assert q_e.ask > q_v.ask
        m0 = dataclasses.replace(m, xi=0.0)
        q_v0 = sim.quote_policy_vanilla(m0, 0, 0, 0.0, n_steps=64)
        q_e0 = sim.quote_policy_equilibrium(m0, 0, 0, 0.0, n_steps=64)
        assert q_v0 == q_e0


class TestPredatorEffects:
    def test_predator_harms_vanilla(self, lively_config):
        policy = sim.make_policy(lively_config.model, "vanilla",
                                 lively_config.n_steps)
        uniforms, normals = sim.generate_streams(
            lively_config.seed, lively_config.n_paths, lively_config.n_steps
        )
        with_pred = sim.run_paths(lively_config, policy, uniforms, normals, True)
        without = sim.run_paths(lively_config, policy, uniforms, normals, False)
        t, p = sim.paired_one_sided(without["pnl"] - with_pred["pnl"])
        assert p < 0.05
        assert without["pnl"].mean() > with_pred["pnl"].mean()

    def test_drift_magnitude_tracks_inventory(self, lively_config):
        policy = sim.make_policy(lively_config.model, "vanilla",
                                 lively_config.n_steps)
        uniforms, normals = sim.generate_streams(7, 100, 400)
        out = sim.run_paths(lively_config, policy, uniforms, normals, True)
        m = lively_config.model
        expected = m.xi * m.gamma * out["mean_abs_inventory"]
        assert out["mean_abs_drift"] == pytest.approx(expected, rel=0.05)


class TestReport:
    def test_report_fields(self, lively_as_model):
        config = SimConfig(model=lively_as_model, n_paths=30, n_steps=400, seed=13)
        report = sim.run_monte_carlo(config).to_dict()
        for key in ("schema_version", "strategies", "ratios", "paired", "seed"):
            assert key in report
        for strat in ("vanilla", "equilibrium"):
            stats = report["strategies"][strat]
            for key in ("mean_pnl", "std_pnl", "sharpe", "mean_total_spread",
                        "mean_abs_drift", "mean_fills_ask",
                        "mean_terminal_abs_inventory"):
                assert key in stats

    def test_single_path_report(self, lively_as_model):
        config = SimConfig(model=lively_as_model, n_paths=1, n_steps=400, seed=17)
        report = sim.run_monte_carlo(config)
        rec = sim.simulate_path(
            config, sim.make_policy(lively_as_model, "vanilla", 400), 0
        )
        assert report.strategies["vanilla"]["mean_pnl"] == \
            pytest.approx(rec.pnl, abs=1e-12)

    def test_predator_off_note(self, lively_as_model):
        config = SimConfig(model=lively_as_model, n_paths=5, n_steps=400,
                           seed=1, predator=False)
        report = sim.run_monte_carlo(config)
        assert any("predator disabled" in note for note in report.notes)

    def test_config_validation(self, lively_as_model):
        with pytest.raises(ValueError):
            SimConfig(model=lively_as_model, n_paths=0, n_steps=400, seed=1)
        with pytest.raises(ValueError):
            SimConfig(model=lively_as_model, n_paths=1, n_steps=399, seed=1)
        with pytest.raises(ValueError):
            SimConfig(model=lively_as_model, n_paths=1, n_steps=400, seed=1,
                      strategy="martingale")
