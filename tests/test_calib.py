import json
import math

import numpy as np
import pytest
import scipy.linalg

from rsgames import calib, cli, numkit
from rsgames.calib import OhlcvSeries, estimate_generator, kmeans_1d, rolling_volatility


def make_series(closes, bar_seconds=1800.0, t0=1.7e9):
    closes = np.asarray(closes, dtype=float)
    n = closes.size
    ts = t0 + bar_seconds * np.arange(n)
    return OhlcvSeries(timestamps=ts, open=closes, high=closes * 1.001,
                       low=closes * 0.999, close=closes, volume=np.ones(n))


def simulate_ctmc_labels(rates_per_day, bar_days, n_bars, seed):
    """Exact two-state chain sampled at bar boundaries."""
    rng = np.random.default_rng(seed)
    labels = np.empty(n_bars, dtype=int)
    state = 0
    t_next = rng.exponential(1.0 / rates_per_day[state])
    t = 0.0
    for b in range(n_bars):
        labels[b] = state
        t_end = (b + 1) * bar_days
        while t_next <= t_end:
            state = 1 - state
            t = t_next
            t_next = t + rng.exponential(1.0 / rates_per_day[state])
        t = t_end
    return labels


class TestRollingVolatility:
    def test_constant_prices(self):
        series = make_series(np.full(40, 250.0))
        vol = rolling_volatility(series, window=5, annualization=17520.0)
        assert np.isnan(vol[:5]).all()
        np.testing.assert_allclose(vol[5:], 0.0, atol=1e-15)

    def test_alternating_returns_closed_form(self):
        r = 0.01
        logret = r * np.array([(-1.0) ** t for t in range(60)])
        closes = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(logret)]))
        series = make_series(closes)
        w = 8
        ann = 17520.0
        vol = rolling_volatility(series, window=w, annualization=ann)
        expected = math.sqrt(ann) * r * math.sqrt(w / (w - 1))
        np.testing.assert_allclose(vol[w:], expected, rtol=1e-12)

    def test_full_sample_window(self):
        rng = np.random.default_rng(51)
        closes = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, size=30)))
        series = make_series(closes)
        w = 29  # one return short of the series
        vol = rolling_volatility(series, window=w, annualization=1.0)
        defined = vol[~np.isnan(vol)]
        assert defined.size == 1
        returns = np.diff(np.log(closes))
        assert defined[0] == pytest.approx(returns.std(ddof=1))

    def test_window_validation(self):
        series = make_series(np.full(10, 1.0))
        with pytest.raises(ValueError):
            rolling_volatility(series, window=1, annualization=1.0)
        with pytest.raises(ValueError):
            rolling_volatility(series, window=10, annualization=1.0)


class TestKmeans1d:
    def test_perfectly_separated(self):
        centers, labels = kmeans_1d([0.0, 0.0, 10.0, 10.0], 2)
        np.testing.assert_allclose(centers, [0.0, 10.0])
        np.testing.assert_array_equal(labels, [0, 0, 1, 1])

    def test_single_cluster_is_mean(self):
        centers, labels = kmeans_1d([1.0, 2.0, 6.0], 1)
        assert centers[0] == pytest.approx(3.0)
        assert set(labels) == {0}

    def test_against_threshold_enumeration(self):
        values = np.array([1.0, 2.0, 8.0, 9.0, 10.0])
        centers, labels = kmeans_1d(values, 2)
        np.testing.assert_allclose(centers, [1.5, 9.0])

        # oracle: 1-D 2-means admits a threshold optimum; enumerate them
        order = np.sort(values)
        best = (np.inf, None)
        for cut in range(1, values.size):
            left, right = order[:cut], order[cut:]
            sse = ((left - left.mean()) ** 2).sum() + \
                ((right - right.mean()) ** 2).sum()
            if sse < best[0]:
                best = (sse, (left.mean(), right.mean()))
        np.testing.assert_allclose(sorted(centers), sorted(best[1]))

    def test_centers_sorted_ascending(self):
        rng = np.random.default_rng(52)
        values = np.concatenate([rng.normal(5, 0.1, 50), rng.normal(1, 0.1, 50)])
        centers, labels = kmeans_1d(values, 2)
        assert centers[0] < centers[1]
        # low values map to label 0 after sorting
        assert labels[values < 3.0].max() == 0

    def test_needs_distinct_values(self):
        with pytest.raises(ValueError):
            kmeans_1d([1.0, 1.0, 1.0], 2)


class TestEstimateGenerator:
    def test_constant_labels(self):
        gen = estimate_generator(np.zeros(100, dtype=int), 1.0 / 48.0)
        np.testing.assert_allclose(gen, 0.0)

    def test_alternating_labels(self):
        labels = np.arange(200) % 2
        gen = estimate_generator(labels, bar_interval_days=0.5 / 24.0)
        # half-hour holding times: 48 switches per day each way
        assert gen[0, 1] == pytest.approx(48.0)
        assert gen[1, 0] == pytest.approx(48.0)

    def test_cycle_with_complex_eigenvalues_falls_back_to_counting(self):
        # P_hat is the 3-cycle (eigenvalues 1 and -1/2 +- i sqrt(3)/2): its
        # real logarithm has negative off-diagonal rates, so counting wins;
        # catches the check on those rates dropped
        labels = np.arange(300) % 3
        gen = estimate_generator(labels, bar_interval_days=0.5 / 24.0)
        cycle = np.roll(np.eye(3), 1, axis=1) - np.eye(3)
        np.testing.assert_allclose(gen, 48.0 * cycle, rtol=1e-12)

    @pytest.mark.parametrize("rates", [
        [[0.0, 3.0], [0.5, 0.0]],
        # not reversible: G has the eigenvalues -1.025 +- 0.171i
        [[0.0, 0.5, 0.2], [0.1, 0.0, 0.3], [0.9, 0.05, 0.0]],
    ], ids=["two_asymmetric", "three_complex"])
    def test_logm_recovers_the_generator_from_exact_counts(self, rates):
        # counts occupancy * expm(G dt) are what an infinite sample gives;
        # catches a rejected complex eigenvalue, a lost 1/dt and transposed
        # counts
        G = numkit.generator(rates)
        bar_days = 0.5 / 24.0
        occupancy = np.linspace(900.0, 1100.0, G.shape[0])
        counts = occupancy[:, None] * scipy.linalg.expm(G * bar_days)
        got = calib._generator_from_logm(counts, occupancy, bar_days)
        assert got is not None
        np.testing.assert_allclose(got, G, rtol=0.0, atol=1e-10)

    def test_holding_time_rate_conversion(self):
        # 48-minute mean holding <-> 30 transitions per day, exactly
        assert 24.0 * 60.0 / 48.0 == 30.0

    def test_generator_validity(self):
        rng = np.random.default_rng(53)
        labels = rng.integers(0, 3, size=500)
        gen = estimate_generator(labels, 1.0 / 48.0)
        np.testing.assert_allclose(gen.sum(axis=1), 0.0, atol=1e-12)
        off = gen[~np.eye(3, dtype=bool)]
        assert off.min() >= 0.0

    def test_never_visited_state_warns(self):
        labels = np.zeros(50, dtype=int)
        with pytest.warns(UserWarning, match="never visited"):
            gen = estimate_generator(labels, 1.0, n_states=2)
        np.testing.assert_allclose(gen[1], 0.0)

    def test_roundtrip_recovers_rates(self):
        # fast chain at coarse bars: the matrix-log estimator undoes the
        # aliasing that plain counting suffers from
        bar_days = 0.5 / 24.0
        labels = simulate_ctmc_labels((30.0, 30.0), bar_days, 10_000, seed=4)
        gen = estimate_generator(labels, bar_days)
        assert abs(gen[0, 1] - 30.0) <= 0.15 * 30.0
        assert abs(gen[1, 0] - 30.0) <= 0.15 * 30.0

    def test_counting_method_small_rates(self):
        # slow chain: counting is consistent and matches the log route
        bar_days = 0.5 / 24.0
        labels = simulate_ctmc_labels((2.0, 2.0), bar_days, 20_000, seed=9)
        counts = np.zeros((2, 2))
        np.add.at(counts, (labels[:-1], labels[1:]), 1.0)
        direct = counts / (counts.sum(axis=1, keepdims=True) * bar_days)
        logm = estimate_generator(labels, bar_days)
        assert direct[0, 1] == pytest.approx(logm[0, 1], rel=0.05)


class TestLoadCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "bars.csv"
        path.write_text(text)
        return path

    def test_epoch_seconds(self, tmp_path):
        path = self.write(
            tmp_path,
            "timestamp,open,high,low,close,volume\n"
            "1700000000,1,2,0.5,1.5,10\n"
            "1700001800,1.5,2,1,1.6,11\n"
            "1700003600,1.6,2,1,1.4,12\n",
        )
        series = calib.load_ohlcv_csv(path)
        assert series.bar_seconds == 1800.0
        np.testing.assert_allclose(series.close, [1.5, 1.6, 1.4])

    def test_rfc3339(self, tmp_path):
        path = self.write(
            tmp_path,
            "timestamp,open,high,low,close,volume\n"
            "2025-12-07T00:00:00Z,1,2,0.5,1.5,10\n"
            "2025-12-07T00:30:00Z,1.5,2,1,1.6,11\n",
        )
        series = calib.load_ohlcv_csv(path)
        assert series.bar_seconds == 1800.0

    def test_missing_column_named(self, tmp_path):
        path = self.write(tmp_path, "timestamp,open,high,low,volume\n1,1,1,1,1\n")
        with pytest.raises(ValueError, match="close"):
            calib.load_ohlcv_csv(path)

    def test_bad_price_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            "timestamp,open,high,low,close,volume\n"
            "1,1,2,0.5,-1.5,10\n"
            "1801,1,2,1,1.6,11\n",
        )
        with pytest.raises(ValueError, match="close"):
            calib.load_ohlcv_csv(path)

    def test_non_increasing_timestamps(self, tmp_path):
        path = self.write(
            tmp_path,
            "timestamp,open,high,low,close,volume\n"
            "1800,1,2,0.5,1.5,10\n"
            "1800,1,2,1,1.6,11\n",
        )
        with pytest.raises(ValueError, match="increasing"):
            calib.load_ohlcv_csv(path)


class TestCalibratePipeline:
    def synthetic_series(self, seed=60, n=3000):
        """Two clearly separated volatility regimes with known switching."""
        rng = np.random.default_rng(seed)
        bar_days = 0.5 / 24.0
        labels = simulate_ctmc_labels((20.0, 20.0), bar_days, n, seed=seed)
        sigma = np.where(labels == 0, 0.0005, 0.005)
        closes = 30000.0 * np.exp(np.cumsum(sigma * rng.standard_normal(n)))
        return make_series(closes), labels

    def test_recovers_two_regimes(self):
        series, _ = self.synthetic_series()
        result = calib.calibrate(series, window=12, annualization=17520.0)
        assert result["sigmas"][0] < result["sigmas"][1]
        generator = np.array(result["generator_per_day"])
        off = generator[~np.eye(2, dtype=bool)]
        assert off.min() >= 0.0
        np.testing.assert_allclose(generator.sum(axis=1), 0.0, atol=1e-12)

    def test_deterministic(self):
        # run_lengths is the label sequence, run-length encoded
        series, _ = self.synthetic_series()
        a = calib.calibrate(series, window=12, annualization=17520.0)
        b = calib.calibrate(series, window=12, annualization=17520.0)
        assert a["run_lengths"] == b["run_lengths"]
        assert a["sigmas"] == b["sigmas"]

    def test_run_lengths_cover_series(self):
        # every bar after the warm-up window has a label
        series, _ = self.synthetic_series(n=1500)
        result = calib.calibrate(series, window=12, annualization=17520.0)
        assert sum(length for _, length in result["run_lengths"]) == 1500 - 12

    def test_result_is_json_round_trip(self, tmp_path):
        series, _ = self.synthetic_series(n=1200)
        result = calib.calibrate(series, window=12, annualization=17520.0)
        cli.write_json(tmp_path / "calibration.json", result)
        payload = json.loads((tmp_path / "calibration.json").read_text())
        assert payload.pop("schema_version") == 1
        assert payload == json.loads(json.dumps(result))
        assert len(payload["sigmas"]) == 2
