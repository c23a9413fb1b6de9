import json

import numpy as np
import pytest
import yaml

from rsgames import cli


def run(argv):
    return cli.main(argv)


def write_yaml(path, tree):
    path.write_text(yaml.safe_dump(tree))
    return str(path)


@pytest.fixture
def small_sim_config(tmp_path):
    tree = {
        "as_model": {
            "gamma": 0.5, "xi": 2.0, "A": 2000.0, "k": 8.0,
            "sigmas": [0.3, 0.8], "q_max": 5,
            "horizon_hours": 4.0, "dt_seconds": 120.0,
            "mu_per_day": [[0.0, 3.0], [3.0, 0.0]], "s0": 100.0,
        },
        "sim": {"n_paths": 20, "seed": 42, "predator": True},
    }
    return write_yaml(tmp_path / "sim.yaml", tree)


@pytest.fixture
def solve_config(tmp_path):
    eye = [[1.0]]
    zero = [[0.0]]
    tree = {
        "grid": {"t0": 0.0, "T": 1.0, "n_steps": 400},
        "lq": {
            "A": [zero], "B": [eye], "D": [zero], "Sigma": [zero],
            "Q": [eye], "R": [eye], "S": [eye], "Q_T": [zero],
        },
        "outer": {
            "mu_bar": [[0.0]],
            "Lambda": [[[[0.0]]]],
        },
    }
    return write_yaml(tmp_path / "solve.yaml", tree)


def synthetic_ohlcv(path, n=800, seed=5):
    rng = np.random.default_rng(seed)
    regime = np.zeros(n, dtype=int)
    state = 0
    for b in range(n):
        if rng.random() < 0.02:
            state = 1 - state
        regime[b] = state
    sigma = np.where(regime == 0, 0.0005, 0.006)
    closes = 30000.0 * np.exp(np.cumsum(sigma * rng.standard_normal(n)))
    lines = ["timestamp,open,high,low,close,volume"]
    for b in range(n):
        ts = 1700000000 + 1800 * b
        c = closes[b]
        lines.append(f"{ts},{c:.2f},{c * 1.001:.2f},{c * 0.999:.2f},{c:.2f},10")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestCalibrateCommand:
    def test_two_regime_csv(self, tmp_path):
        csv = synthetic_ohlcv(tmp_path / "bars.csv")
        cfg = write_yaml(tmp_path / "cal.yaml",
                         {"calibrate": {"window": 12}})
        out = tmp_path / "out"
        code = run(["calibrate", csv, "--config", cfg, "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "calibration.json").read_text())
        assert len(payload["sigmas"]) == 2
        assert payload["sigmas"][0] < payload["sigmas"][1]
        gen = np.array(payload["generator_per_day"])
        np.testing.assert_allclose(gen.sum(axis=1), 0.0, atol=1e-12)

    def test_constant_prices_degenerate(self, tmp_path):
        csv = tmp_path / "flat.csv"
        lines = ["timestamp,open,high,low,close,volume"]
        for b in range(100):
            lines.append(f"{1700000000 + 1800 * b},5,5,5,5,1")
        csv.write_text("\n".join(lines) + "\n")
        code = run(["calibrate", str(csv), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG

    def test_missing_column(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_text("timestamp,open,high,low,volume\n1,1,1,1,1\n")
        code = run(["calibrate", str(csv), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        assert "close" in capsys.readouterr().err


class TestSolveCommand:
    def test_scalar_benchmark(self, tmp_path, solve_config):
        out = tmp_path / "out"
        code = run(["solve", "--config", solve_config, "--out", str(out)])
        assert code == 0
        rows = (out / "riccati_p.csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        assert header[0] == "schema_version"
        first = rows[1].split(",")
        # first data row is t = 0, regime 0, entry (0, 0)
        assert float(first[1]) == 0.0
        assert abs(float(first[5]) - np.tanh(1.0)) <= 1e-8
        report = json.loads((out / "turnpike.json").read_text())
        assert "rho_H" in report

    def test_identical_regimes_uniform_outputs(self, tmp_path):
        eye = [[1.0]]
        zero = [[0.0]]
        tree = {
            "grid": {"T": 1.0, "n_steps": 100},
            "lq": {
                "A": [zero, zero], "B": [eye, eye], "D": [zero, zero],
                "Sigma": [zero, zero], "Q": [eye, eye], "R": [eye, eye],
                "S": [eye, eye], "Q_T": [zero, zero],
            },
            "outer": {
                "affine": {
                    "mu0": [[0.0, 1.0], [1.0, 0.0]],
                    "lam_att": [[0.0, 0.5], [0.5, 0.0]],
                    "lam_stab": [[0.0, 0.5], [0.5, 0.0]],
                },
            },
        }
        cfg = write_yaml(tmp_path / "s.yaml", tree)
        out = tmp_path / "out"
        assert run(["solve", "--config", cfg, "--out", str(out)]) == 0
        k_rows = (out / "outer_k.csv").read_text().strip().splitlines()[1:]
        by_time = {}
        for row in k_rows:
            _, t, regime, value = row.split(",")
            by_time.setdefault(t, []).append(float(value))
        for values in by_time.values():
            assert abs(values[0] - values[1]) <= 1e-10

    def test_blowup_exit_code(self, tmp_path):
        eye = [[1.0]]
        zero = [[0.0]]
        tree = {
            "grid": {"T": 2.0, "n_steps": 400},
            "lq": {
                # disturbance dominates: finite escape inside the horizon
                "A": [zero], "B": [zero], "D": [eye], "Sigma": [zero],
                "Q": [eye], "R": [eye], "S": [eye], "Q_T": [zero],
            },
            "outer": {"mu_bar": [[0.0]], "Lambda": [[[[0.0]]]]},
        }
        cfg = write_yaml(tmp_path / "b.yaml", tree)
        code = run(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_NUMERICAL

    def test_linalg_error_exit_code(self, tmp_path, solve_config, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(cli.hierarchy, "solve_hierarchy", singular)
        code = run(["solve", "--config", solve_config, "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_NUMERICAL

    def test_unknown_key_rejected(self, tmp_path, solve_config):
        tree = yaml.safe_load(open(solve_config))
        tree["lq"]["unexpected"] = 1
        cfg = write_yaml(tmp_path / "bad.yaml", tree)
        assert run(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) \
            == cli.EXIT_CONFIG

    def test_unknown_section_rejected(self, tmp_path, solve_config):
        tree = yaml.safe_load(open(solve_config))
        tree["simulate_stuff"] = {}
        cfg = write_yaml(tmp_path / "bad2.yaml", tree)
        assert run(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) \
            == cli.EXIT_CONFIG


class TestMmCommand:
    def mm_config(self, tmp_path, **mm_extra):
        tree = {
            "as_model": {
                "gamma": 0.5, "xi": 1.0, "A": 100.0, "k": 8.0,
                "sigmas": [0.3, 0.8], "q_max": 3,
                "horizon_hours": 24.0, "dt_seconds": 900.0,
                "mu_per_day": [[0.0, 3.0], [3.0, 0.0]], "s0": 100.0,
            },
            "mm": {"n_steps": 48, **mm_extra},
        }
        return write_yaml(tmp_path / "mm.yaml", tree)

    def test_tables_written(self, tmp_path):
        cfg = self.mm_config(tmp_path)
        out = tmp_path / "out"
        assert run(["mm", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "theta_quotes.csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        assert header == ["schema_version", "t", "regime", "q", "theta",
                          "u_a", "u_b"]
        # terminal rows (t = horizon, tau = 0) carry zero theta
        terminal = [r for r in rows[1:]
                    if abs(float(r.split(",")[1]) - 24.0 / 8760.0) < 1e-12]
        assert terminal
        for row in terminal:
            assert abs(float(row.split(",")[4])) < 1e-12
        assert (out / "expansion_report.json").exists()

    def test_xi_sweep_monotone(self, tmp_path):
        cfg = self.mm_config(tmp_path, xi_sweep=[0.0, 0.5, 1.0, 2.0])
        out = tmp_path / "out"
        assert run(["mm", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "xi_sweep.csv").read_text().strip().splitlines()[1:]
        spreads = [float(r.split(",")[2]) for r in rows]
        assert np.all(np.diff(spreads) > 0.0)

    def test_macro_values(self, tmp_path):
        cfg = self.mm_config(
            tmp_path,
            macro={
                "enabled": True, "inventory": 2, "n_steps": 40,
                "mode": "affine",
                "affine": {
                    "mu0": [[0.0, 3.0], [3.0, 0.0]],
                    "lam_att": [[0.0, 1.0], [1.0, 0.0]],
                    "lam_stab": [[0.0, 1.0], [1.0, 0.0]],
                },
            },
        )
        out = tmp_path / "out"
        assert run(["mm", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "macro_values.csv").exists()


class TestSimulateCommand:
    def test_deterministic_report(self, tmp_path, small_sim_config):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(["simulate", "--config", small_sim_config,
                    "--out", str(out1)]) == 0
        assert run(["simulate", "--config", small_sim_config,
                    "--out", str(out2)]) == 0
        assert (out1 / "sim_report.json").read_bytes() == \
            (out2 / "sim_report.json").read_bytes()

    def test_report_contents(self, tmp_path, small_sim_config):
        out = tmp_path / "out"
        assert run(["simulate", "--config", small_sim_config,
                    "--out", str(out)]) == 0
        payload = json.loads((out / "sim_report.json").read_text())
        assert payload["schema_version"] == 1
        assert set(payload["strategies"]) == {"vanilla", "equilibrium"}
        assert "pnl_ratio" in payload["ratios"]

    def test_predator_off_note(self, tmp_path, capsys):
        tree = {
            "as_model": {
                "gamma": 0.5, "xi": 2.0, "A": 2000.0, "k": 8.0,
                "sigmas": [0.3, 0.8], "q_max": 5,
                "horizon_hours": 4.0, "dt_seconds": 120.0,
                "mu_per_day": [[0.0, 3.0], [3.0, 0.0]], "s0": 100.0,
            },
            "sim": {"n_paths": 5, "seed": 1, "predator": False},
        }
        cfg = write_yaml(tmp_path / "nopred.yaml", tree)
        out = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert "predator disabled" in capsys.readouterr().out

    def test_path_export(self, tmp_path):
        tree = {
            "as_model": {
                "gamma": 0.5, "xi": 2.0, "A": 2000.0, "k": 8.0,
                "sigmas": [0.3, 0.8], "q_max": 5,
                "horizon_hours": 4.0, "dt_seconds": 120.0,
                "mu_per_day": [[0.0, 3.0], [3.0, 0.0]], "s0": 100.0,
            },
            "sim": {"n_paths": 3, "seed": 1, "export_paths": True,
                    "n_export_paths": 2},
        }
        cfg = write_yaml(tmp_path / "exp.yaml", tree)
        out = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "path_0000.csv").exists()
        assert (out / "path_0001.csv").exists()
        rows = (out / "path_0000.csv").read_text().strip().splitlines()
        assert rows[0].split(",")[0] == "schema_version"
        assert len(rows) == 1 + 120  # header + one row per step

    def test_seed_and_paths_overrides(self, tmp_path, small_sim_config):
        out = tmp_path / "out"
        assert run(["simulate", "--config", small_sim_config, "--out", str(out),
                    "--seed", "7", "--paths", "4"]) == 0
        payload = json.loads((out / "sim_report.json").read_text())
        assert payload["seed"] == 7
        assert payload["n_paths"] == 4


class TestConfigHandling:
    def test_round_trip(self, tmp_path, small_sim_config):
        loaded = cli.load_config(small_sim_config, "simulate")
        dumped = write_yaml(tmp_path / "round.yaml", loaded)
        reloaded = cli.load_config(dumped, "simulate")
        assert loaded == reloaded

    def test_missing_file(self):
        with pytest.raises(cli.ConfigError):
            cli.load_config("/nonexistent/config.yaml", "simulate")

    def test_defaults_are_paper_values(self):
        cfg = cli.load_config(None, "simulate")
        model = cli.build_as_model(cfg["as_model"])
        assert model.gamma == 0.02
        assert model.xi == 10.0
        assert model.A == 250000.0
        assert model.q_max == 10
        assert model.s0 == 90863.90
        assert round(model.horizon / model.dt) == 2880
        assert cfg["sim"]["n_paths"] == 1000
