import contextlib
import json
import os
import signal
import subprocess
import sys
import warnings

import numpy as np
import pytest
import yaml

from rsgames import as_game, calib, cli, hierarchy, numkit, sim


CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


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


def written_report(path):
    """A JSON output's fields besides its schema_version."""
    payload = json.loads(path.read_text())
    assert payload.pop("schema_version") == cli.SCHEMA_VERSION
    return payload


def json_round_trip(report):
    return json.loads(json.dumps(report))


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
        # the cluster centers are the sigmas, written once
        assert sorted(payload) == ["annualization", "generator_per_day", "run_lengths",
                                   "schema_version", "sigmas", "window"]
        assert len(payload["sigmas"]) == 2
        assert payload["sigmas"][0] < payload["sigmas"][1]
        gen = np.array(payload["generator_per_day"])
        np.testing.assert_allclose(gen.sum(axis=1), 0.0, atol=1e-12)

    def test_file_is_calibrate_and_stdout_its_table(self, tmp_path, capsys):
        # calibration.json is what calib.calibrate returns, and the printed
        # table shows the file's sigmas and generator
        csv = synthetic_ohlcv(tmp_path / "bars.csv")
        cfg = write_yaml(tmp_path / "cal.yaml", {"calibrate": {"window": 12}})
        out = tmp_path / "out"
        assert run(["calibrate", csv, "--config", cfg, "--out", str(out)]) == 0
        payload = written_report(out / "calibration.json")
        result = calib.calibrate(calib.load_ohlcv_csv(csv),
                                 **cli.load_config(cfg, "calibrate")["calibrate"])
        assert payload == json_round_trip(result)

        lines = capsys.readouterr().out.splitlines()
        n = len(payload["sigmas"])
        assert lines[:2] == [f"wrote {out / 'calibration.json'}",
                             "regime  sigma(annualized)"]
        assert [line.split() for line in lines[2:2 + n]] == \
            [[str(i), f"{s:.4f}"] for i, s in enumerate(payload["sigmas"])]
        assert lines[2 + n] == "generator (per day):"
        table = [[float(x) for x in line.split()] for line in lines[3 + n:]]
        np.testing.assert_allclose(table, payload["generator_per_day"], rtol=0,
                                   atol=5e-5)

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

    def test_turnpike_carries_saddle_health(self, tmp_path):
        config = os.path.join(CONFIGS, "solve_two_regime.yaml")
        out = tmp_path / "out"
        assert run(["solve", "--config", config, "--out", str(out)]) == 0
        report = json.loads((out / "turnpike.json").read_text())
        tree = yaml.safe_load(open(config))
        n_regimes = len(tree["lq"]["A"])
        assert sum(report["saddle_paths"].values()) == \
            n_regimes * (tree["grid"]["n_steps"] + 1)
        # an outer.affine game is a row term plus a column term, so each of
        # the 2 x 301 node games has a pure saddle, as the config says
        assert report["saddle_paths"] == {"pure": 602, "equalizer": 0, "lp": 0}
        assert 0.0 <= report["max_best_response_gap"] <= 1e-9

    def test_turnpike_json_is_turnpike_report(self, tmp_path):
        # every field of turnpike.json comes from hierarchy.turnpike_report
        config = os.path.join(CONFIGS, "solve_two_regime.yaml")
        out = tmp_path / "out"
        assert run(["solve", "--config", config, "--out", str(out)]) == 0
        cfg = cli.load_config(config, "solve")
        model = cli.build_lq_model(cfg["lq"])
        sol = hierarchy.solve_hierarchy(
            model, cli.build_outer_spec(cfg["outer"], model.n_regimes),
            cli.build_grid(cfg["grid"]))
        assert written_report(out / "turnpike.json") == \
            json_round_trip(hierarchy.turnpike_report(sol))

    TURNPIKE_KEYS = {"schema_version", "rho_H", "lambda2_mean", "inner_fitted_rate",
                     "inner_reference_rate", "inner_degenerate", "outer_fitted_rate",
                     "outer_reference_rate", "outer_degenerate", "warnings",
                     "saddle_paths", "max_best_response_gap"}

    @pytest.mark.parametrize("coupled", [True, False], ids=["coupled", "zero_rates"])
    def test_turnpike_json_schema(self, tmp_path, coupled):
        # the file is turnpike_report's eleven fields, the saddle counters
        # among them, and the schema version, and nothing else; with every
        # rate zero the generator's diagonal is +0.0, never -0.0
        tree = yaml.safe_load(open(os.path.join(CONFIGS, "solve_two_regime.yaml")))
        if not coupled:
            for key in tree["outer"]["affine"]:
                tree["outer"]["affine"][key] = [[0.0, 0.0], [0.0, 0.0]]
        out = tmp_path / "out"
        config = write_yaml(tmp_path / "solve.yaml", tree)
        assert run(["solve", "--config", config, "--out", str(out)]) == 0
        report = json.loads((out / "turnpike.json").read_text())
        assert set(report) == self.TURNPIKE_KEYS
        assert report["schema_version"] == cli.SCHEMA_VERSION
        assert all(type(count) is int for count in report["saddle_paths"].values())
        rows = (out / "rates.csv").read_text().splitlines()[1:]
        rates = {row.rsplit(",", 1)[1] for row in rows}
        assert "-0.0" not in rates
        if not coupled:
            assert rates == {"0.0"}

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

    @pytest.mark.parametrize("n_steps", [200, 2000])
    def test_a_step_too_long_for_the_rates_is_named(self, tmp_path, capsys, n_steps):
        # configs/solve_two_regime.yaml with every outer.affine matrix x1000:
        # at 200 steps RK4 grows the switching flow 2233-fold per step and P
        # passes 1e8 at t = 1.4775; at 2000 steps the same model solves with
        # max |P| = 1.63.  catches: reporting the long step as a finite escape
        tree = yaml.safe_load(open(os.path.join(CONFIGS, "solve_two_regime.yaml")))
        affine = tree["outer"]["affine"]
        for key in affine:
            affine[key] = (1000.0 * np.array(affine[key])).tolist()
        tree["grid"]["n_steps"] = n_steps
        cfg = write_yaml(tmp_path / "stiff.yaml", tree)
        out = tmp_path / "out"
        code = run(["solve", "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        if n_steps == 200:
            assert code == cli.EXIT_NUMERICAL
            assert err.endswith("RK4 amplifies the switching flow by 2233 per step; "
                                "raise grid.n_steps\n"), err
            assert not out.exists() or not any(out.iterdir())
        else:
            assert code == cli.EXIT_OK, err
            P = np.loadtxt(out / "riccati_p.csv", delimiter=",", skiprows=1, usecols=5)
            assert 1.0 < np.abs(P).max() < 2.0

    @pytest.mark.parametrize("n_steps", [200, 2000])
    def test_a_step_too_long_is_named_before_any_escape(self, tmp_path, capsys, n_steps):
        # configs/solve_two_regime.yaml with every outer.affine matrix x173:
        # at 200 steps RK4 grows the switching flow 1.007-fold per step while
        # max |P| stays 2.06, far from an escape, and P(0) reads
        # [2.0633, 0.2432] against [1.6291, 1.6370] at 2000 steps.
        # catches: judging the step only when P escapes
        tree = yaml.safe_load(open(os.path.join(CONFIGS, "solve_two_regime.yaml")))
        affine = tree["outer"]["affine"]
        for key in affine:
            affine[key] = (173.0 * np.array(affine[key])).tolist()
        tree["grid"]["n_steps"] = n_steps
        cfg = write_yaml(tmp_path / "x173.yaml", tree)
        out = tmp_path / "out"
        code = run(["solve", "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        if n_steps == 200:
            assert code == cli.EXIT_NUMERICAL
            assert err.endswith("RK4 amplifies the switching flow by 1.007 per step; "
                                "raise grid.n_steps\n"), err
            assert not out.exists() or not any(out.iterdir())
        else:
            assert code == cli.EXIT_OK, err
            P = np.loadtxt(out / "riccati_p.csv", delimiter=",", skiprows=1, usecols=5)
            assert 1.6 < np.abs(P).max() < 1.7

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
        report = json.loads((out / "macro_report.json").read_text())
        assert set(report) == {"schema_version", "mode", "inventory",
                               "nonbilinear_nodes"}
        assert report["schema_version"] == cli.SCHEMA_VERSION
        assert report["mode"] == "affine"
        assert report["inventory"] == 2
        assert isinstance(report["inventory"], int)
        assert isinstance(report["nonbilinear_nodes"], int)
        assert report["nonbilinear_nodes"] >= 0

    @pytest.mark.parametrize("mode", as_game.MACRO_MODES)
    def test_macro_report_names_the_mode(self, tmp_path, mode):
        # each policy runs from the config alone, and the report records
        # which one ran
        cfg = self.mm_config(tmp_path, macro={
            "enabled": True, "inventory": 2, "n_steps": 10, "mode": mode,
            "affine": self.GOOD_AFFINE})
        out = tmp_path / "out"
        assert run(["mm", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "macro_report.json").read_text())["mode"] == mode
        assert (out / "macro_values.csv").exists()

    GOOD_AFFINE = {"mu0": [[0.0, 3.0], [3.0, 0.0]],
                   "lam_att": [[0.0, 1.0], [1.0, 0.0]],
                   "lam_stab": [[0.0, 1.0], [1.0, 0.0]]}
    BAD_MACRO = [
        ({"mode": "affin"}, "mm.macro.mode must be one of affine, quadratic, "
                            "quadratic_unclamped, bang_bang, bang_bang_flipped"),
        ({"affine": {"lam_att": GOOD_AFFINE["lam_att"],
                     "lam_stab": GOOD_AFFINE["lam_stab"]}},
         "mm.macro.affine: missing 'mu0'"),
        ({"affine": {**GOOD_AFFINE, "lam_att": [[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]]}},
         "mm.macro.affine.lam_att must be (2, 2), got (2, 3)"),
        ({"affine": {**GOOD_AFFINE, "lam_stab": [[0.0, float("nan")], [1.0, 0.0]]}},
         "mm.macro.affine.lam_stab must be finite"),
        ({"affine": {**GOOD_AFFINE, "mu0": [[0.0, "fast"], [3.0, 0.0]]}},
         "mm.macro.affine.mu0 is not a numeric matrix"),
    ]

    @pytest.mark.parametrize("bad,message", BAD_MACRO,
                             ids=["mode", "missing", "shape", "nan", "text"])
    def test_bad_macro_is_a_config_error_before_any_write(self, tmp_path, capsys,
                                                          bad, message):
        # catches: checking mm.macro after theta_quotes.csv and
        # expansion_report.json are written, which left both behind
        macro = {"enabled": True, "inventory": 1, "n_steps": 20,
                 "mode": "affine", "affine": self.GOOD_AFFINE, **bad}
        out = tmp_path / "out"
        cfg = self.mm_config(tmp_path, macro=macro)
        assert run(["mm", "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    STIFF_AFFINE = {"mu0": [[0.0, 30.0], [30.0, 0.0]],
                    "lam_att": [[0.0, 2000.0], [2000.0, 0.0]],
                    "lam_stab": [[0.0, 20.0], [20.0, 0.0]]}

    @pytest.mark.parametrize("mode", ["affine", "bang_bang", "bang_bang_flipped"])
    def test_an_unstable_macro_sweep_is_a_numerical_failure(self, tmp_path, capsys,
                                                            mode):
        # at lam_att 2000/day the default 200 macro steps leave RK4 an
        # amplification of 14.98 per step; catches: writing U = -8.8e221
        # to macro_values.csv and exiting 0, and writing theta_quotes.csv
        # and expansion_report.json before the sweep fails
        cfg = write_yaml(tmp_path / "stiff.yaml", {"mm": {"macro": {
            "enabled": True, "inventory": 5, "mode": mode,
            "affine": self.STIFF_AFFINE}}})
        out = tmp_path / "out"
        code = run(["mm", "--steps", "8", "--config", cfg, "--out", str(out)])
        assert code == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "RK4 amplifies the switching flow by 14.98 per step" in err
        assert "mm.macro.n_steps" in err
        assert not out.exists() or not any(out.iterdir())

    def test_an_overflowing_unclamped_sweep_names_its_step(self, tmp_path, capsys):
        # at 8 macro steps the unclamped efforts drive the rates to inf;
        # catches: scipy's overflow warnings and "Array must not contain infs
        # or NaNs" from the check after the sweep, in place of the step count
        cfg = write_yaml(tmp_path / "stiff.yaml", {"mm": {"macro": {
            "enabled": True, "inventory": 10, "n_steps": 8,
            "mode": "quadratic_unclamped", "affine": self.STIFF_AFFINE}}})
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["mm", "--steps", "8", "--config", cfg, "--out", str(out)])
        assert code == cli.EXIT_NUMERICAL
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: step too long for the switching "
                              "rates") and err.endswith("raise mm.macro.n_steps\n"), err
        assert not out.exists() or not any(out.iterdir())

    def test_more_macro_steps_settle_the_stiff_sweep(self, tmp_path):
        cfg = write_yaml(tmp_path / "stiff.yaml", {"mm": {"macro": {
            "enabled": True, "inventory": 5, "n_steps": 1000, "mode": "affine",
            "affine": self.STIFF_AFFINE}}})
        out = tmp_path / "out"
        assert run(["mm", "--steps", "8", "--config", cfg, "--out", str(out)]) == 0
        U = np.loadtxt(out / "macro_values.csv", delimiter=",", skiprows=1, usecols=3)
        assert np.abs(U).max() < 100.0

    def test_no_macro_report_without_macro(self, tmp_path):
        out = tmp_path / "out"
        assert run(["mm", "--config", self.mm_config(tmp_path), "--out", str(out)]) == 0
        assert not (out / "macro_report.json").exists()

    def test_nan_theta_exits_numerical(self, tmp_path, monkeypatch, capsys):
        build = cli.as_game.build_theta_table

        def poisoned(*args, **kwargs):
            table = build(*args, **kwargs)
            table.theta[5, 1, 2] = np.nan
            return table

        monkeypatch.setattr(cli.as_game, "build_theta_table", poisoned)
        out = tmp_path / "out"
        code = run(["mm", "--config", self.mm_config(tmp_path), "--out", str(out)])
        assert code == cli.EXIT_NUMERICAL
        # the expansion report is computed before any file is written, and
        # it meets the NaN first
        assert ("expansion report: the penalty table or its expansion is not "
                "finite") in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_expansion_report_rejects_nan(self, tmp_path):
        model = cli.build_as_model(
            cli.load_config(self.mm_config(tmp_path), "mm")["as_model"])
        table = cli.as_game.build_theta_table(model, 8)
        report = cli.expansion_report(model, table)
        assert report["n_points"] == 8 * model.n_regimes * model.n_levels
        assert np.isfinite(report["max_abs_error"])
        table.theta[3, 0, 1] = np.nan
        with pytest.raises(cli.NumericalError):
            cli.expansion_report(model, table)


class TimeLimit(Exception):
    """Raised in the main thread when a time_limit block runs too long."""


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeLimit, which cli.main does not catch, if the block takes
    longer than `seconds`, so a command that spins fails its test."""
    def expire(signum, frame):
        raise TimeLimit(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class TestStiffPenaltySystem:
    @pytest.mark.parametrize("as_model", [
        {"A": 1e300}, {"mu_per_day": [[0.0, 1e300], [1e300, 0.0]]}], ids=["A", "rates"])
    @pytest.mark.parametrize("command", [["mm", "--steps", "4"],
                                         ["simulate", "--paths", "3", "--steps", "10"]])
    def test_a_system_too_stiff_to_propagate_is_refused(self, tmp_path, capsys,
                                                        as_model, command):
        # both markets fall back to the propagator, which asked for 1.3e295
        # (A) or 8.3e297 (rates) sub-segments per interval and never returned
        cfg = write_yaml(tmp_path / "stiff.yaml", {"as_model": as_model})
        out = tmp_path / "out"
        with time_limit(2.0):
            code = run([*command, "--config", cfg, "--out", str(out)])
        assert code == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "|M| dtau = " in err and "sub-segments per interval" in err, err
        assert not out.exists() or not any(out.iterdir())


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

    def test_file_is_run_monte_carlo(self, tmp_path, small_sim_config):
        out = tmp_path / "out"
        assert run(["simulate", "--config", small_sim_config, "--out", str(out)]) == 0
        cfg = cli.load_config(small_sim_config, "simulate")
        model = cli.build_as_model(cfg["as_model"])
        sim_cfg = cfg["sim"]
        config = sim.SimConfig(
            model=model, n_paths=sim_cfg["n_paths"],
            n_steps=round(cfg["as_model"]["horizon_hours"] * 3600
                          / cfg["as_model"]["dt_seconds"]),
            seed=sim_cfg["seed"], predator=sim_cfg["predator"],
            initial_regime=sim_cfg["initial_regime"])
        assert written_report(out / "sim_report.json") == \
            json_round_trip(sim.run_monte_carlo(config))

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

    @pytest.mark.parametrize("export", [False, True], ids=["tables", "with_record"])
    def test_steps_beyond_the_budget_are_a_config_error(self, tmp_path, capsys,
                                                         monkeypatch, small_sim_config,
                                                         export):
        # a budget that holds the quote tables of 119 steps (120 nodes), and
        # the record of 119 steps when a path is exported; the config's
        # dt_seconds gives 120.  catches: a limit that counts the record
        # when nothing is exported, or not when it is, or the tables of one
        # policy only
        model = cli.build_as_model(yaml.safe_load(open(small_sim_config))["as_model"])
        per_node = len(sim.POLICY_KINDS) * 4 * 8 * model.n_regimes * model.n_levels
        record = sim.RECORD_BYTES_PER_STEP if export else 0
        monkeypatch.setattr(sim, "STEP_BUDGET_BYTES", per_node * 120 + record * 119)
        assert sim.max_steps(model, 2, int(export)) == (119, int(export))
        tree = yaml.safe_load(open(small_sim_config))
        tree["sim"].update(n_paths=2, export_paths=export)
        cfg = write_yaml(tmp_path / "sim.yaml", tree)
        for flags, key in (([], "as_model.dt_seconds"), (["--steps", "120"], "--steps")):
            out = tmp_path / key
            assert run(["simulate", "--config", cfg, "--out", str(out)] + flags) == \
                cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert f"config error: {key} gives 120 steps per path" in err
            # the tables alone would fit: the record pushes it over
            assert ("the records of 1 exported path (sim.n_export_paths) fit in"
                    in err) == export
            assert not out.exists()
        out = tmp_path / "fits"
        assert run(["simulate", "--config", cfg, "--out", str(out),
                    "--steps", "119"]) == 0
        assert (out / "path_0000.csv").exists() == export

    def test_records_are_counted_for_the_paths_the_run_has(self, tmp_path, capsys,
                                                            monkeypatch, small_sim_config):
        # one path and n_export_paths 1000: one path's record is counted, so
        # max_steps(model, 1, 1000) steps run and write path_0000.csv alone,
        # and a step more is still refused.  catches: counting every path
        # that sim.n_export_paths names, which refuses the 119 steps
        model = cli.build_as_model(yaml.safe_load(open(small_sim_config))["as_model"])
        per_node = len(sim.POLICY_KINDS) * 4 * 8 * model.n_regimes * model.n_levels
        monkeypatch.setattr(sim, "STEP_BUDGET_BYTES",
                            per_node * 120 + sim.RECORD_BYTES_PER_STEP * 119)
        limit, held = sim.max_steps(model, 1, 1000)
        assert held == 1
        tree = yaml.safe_load(open(small_sim_config))
        tree["sim"].update(export_paths=True, n_export_paths=1000)
        cfg = write_yaml(tmp_path / "sim.yaml", tree)
        out = tmp_path / "fits"
        assert run(["simulate", "--config", cfg, "--out", str(out), "--paths", "1",
                    "--steps", str(limit)]) == 0, capsys.readouterr().err
        assert sorted(p.name for p in out.glob("path_*.csv")) == ["path_0000.csv"]
        out = tmp_path / "over"
        assert run(["simulate", "--config", cfg, "--out", str(out), "--paths", "1",
                    "--steps", str(limit + 1)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: --steps gives {limit + 1} steps per path" in err
        # the message counts the one path's record, and names the key
        assert ("; the quote tables and the records of 1 exported path "
                f"(sim.n_export_paths) fit in {sim.STEP_BUDGET_BYTES} bytes up to "
                f"{limit} steps") in err
        assert not out.exists()

    def test_the_message_counts_one_chunk_of_records(self, tmp_path, capsys,
                                                     monkeypatch, small_sim_config):
        # records are held one chunk at a time: with chunks of 2 paths and 3
        # of 5 paths exported, 2 paths' records are counted, and named so
        monkeypatch.setattr(sim, "CHUNK_PATHS", 2)
        tree = yaml.safe_load(open(small_sim_config))
        tree["sim"].update(export_paths=True, n_export_paths=3)
        cfg = write_yaml(tmp_path / "sim.yaml", tree)
        limit, held = sim.max_steps(cli.build_as_model(tree["as_model"]), 5, 3)
        assert held == 2
        out = tmp_path / "over"
        assert run(["simulate", "--config", cfg, "--out", str(out), "--paths", "5",
                    "--steps", str(limit + 1)]) == cli.EXIT_CONFIG
        assert ("the quote tables and the records of 2 exported paths "
                f"(sim.n_export_paths) fit in {sim.STEP_BUDGET_BYTES} bytes up to "
                f"{limit} steps") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dt_seconds", [1.0e-300, 1.0e-320],
                             ids=["overflow", "underflow"])
    def test_a_tiny_dt_seconds_is_a_config_error(self, tmp_path, capsys,
                                                 small_sim_config, dt_seconds):
        # catches: the 1e304 steps of 1e-300 s reaching numpy, whose
        # "Maximum allowed size exceeded" names no key, and the step of
        # 1e-320 s, which underflows to 0 years, reaching a division
        tree = yaml.safe_load(open(small_sim_config))
        tree["as_model"]["dt_seconds"] = dt_seconds
        cfg = write_yaml(tmp_path / "tiny.yaml", tree)
        out = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
        assert "config error: as_model.dt_seconds gives" in capsys.readouterr().err
        assert not out.exists()

    def test_one_path_gives_no_paired_test(self, tmp_path):
        # one PnL difference has no variance: both paired fields are null.
        # catches: the one difference read as zero variance, p = 0.0
        out = tmp_path / "out"
        assert run(["simulate", "--out", str(out), "--paths", "1",
                    "--steps", "50"]) == 0
        payload = json.loads((out / "sim_report.json").read_text())
        assert payload["paired"] == {"pnl_t_stat": None, "pnl_p_one_sided": None}

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
        dt = cfg["as_model"]["dt_seconds"] / as_game.SECONDS_PER_YEAR
        assert round(model.horizon / dt) == 2880
        assert cfg["sim"]["n_paths"] == 1000

    # config key, value, the error: the ASModel field's, or the config's
    # for dt_seconds, which is no ASModel field
    NON_FINITE = [
        ("gamma", float("nan"), "gamma must be finite"),
        ("xi", float("nan"), "xi must be finite"),
        ("A", float("nan"), "A must be finite"),
        ("A", float("inf"), "A must be finite"),
        ("k", float("nan"), "k must be finite"),
        ("sigmas", [0.3, float("nan")], "sigmas must be finite"),
        ("mu_per_day", [[0.0, float("nan")], [3.0, 0.0]], "rates must be finite"),
        ("horizon_hours", float("nan"), "horizon must be finite"),
        ("dt_seconds", float("inf"),
         "as_model.dt_seconds must be a finite number above 0"),
        ("s0", float("nan"), "s0 must be finite"),
    ]

    @pytest.mark.parametrize("command,output", [("mm", "theta_quotes.csv"),
                                                ("simulate", "sim_report.json")])
    @pytest.mark.parametrize("key,value,message", NON_FINITE,
                             ids=[f"{k}={v}" for k, v, _ in NON_FINITE])
    def test_non_finite_parameter_is_a_config_error(self, tmp_path, capsys, command,
                                                    output, key, value, message):
        tree = cli.load_config(None, command)
        tree["as_model"].update({"q_max": 3, key: value})
        cfg = write_yaml(tmp_path / "bad.yaml", tree)
        out = tmp_path / "out"
        assert run([command, "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (out / output).exists()


    INTEGER_FIELDS = [("mm", "as_model", "q_max"), ("simulate", "as_model", "q_max"),
                      ("mm", "mm", "n_steps"), ("simulate", "sim", "n_paths"),
                      ("simulate", "sim", "seed"),
                      ("simulate", "sim", "initial_regime"),
                      ("calibrate", "calibrate", "window"),
                      ("calibrate", "calibrate", "n_regimes"),
                      ("mm", "mm.macro", "inventory"), ("mm", "mm.macro", "n_steps"),
                      ("solve", "grid", "n_steps")]
    OUTPUT = {"mm": "theta_quotes.csv", "simulate": "sim_report.json",
              "calibrate": "calibration.json", "solve": "turnpike.json"}
    MACRO = {"enabled": True, "inventory": 1, "n_steps": 20,
             "affine": {"mu0": [[0.0, 3.0], [3.0, 0.0]],
                        "lam_att": [[0.0, 1.0], [1.0, 0.0]],
                        "lam_stab": [[0.0, 1.0], [1.0, 0.0]]}}

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 2.7, "two"])
    @pytest.mark.parametrize("command,section,key", INTEGER_FIELDS,
                             ids=[f"{c}-{s}.{k}" for c, s, k in INTEGER_FIELDS])
    def test_non_integer_field_is_a_config_error(self, tmp_path, capsys, command,
                                                 section, key, value):
        # catches: int() on the field, which truncates 2.7 and fails on NaN
        # with "cannot convert float NaN to integer"; the macro fields are
        # read before the theta table is written
        if command == "solve":
            with open(os.path.join(CONFIGS, "solve_two_regime.yaml")) as handle:
                tree = yaml.safe_load(handle)
        else:
            tree = cli.load_config(None, command)
        if "as_model" in tree:
            tree["as_model"]["q_max"] = 3
        if section == "mm.macro":
            tree["mm"]["macro"] = dict(self.MACRO)
        *parents, leaf = f"{section}.{key}".split(".")
        node = tree
        for name in parents:
            node = node[name]
        node[leaf] = value
        cfg = write_yaml(tmp_path / "bad.yaml", tree)
        out = tmp_path / "out"
        argv = [command, "--config", cfg, "--out", str(out)]
        if command == "calibrate":
            argv.insert(1, synthetic_ohlcv(tmp_path / "bars.csv"))
        assert run(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: {section}.{key} must be an integer" in err
        assert not (out / self.OUTPUT[command]).exists()

    def test_missing_integer_field_is_a_config_error(self, tmp_path, capsys):
        with open(os.path.join(CONFIGS, "solve_two_regime.yaml")) as handle:
            tree = yaml.safe_load(handle)
        del tree["grid"]["n_steps"]
        cfg = write_yaml(tmp_path / "bad.yaml", tree)
        assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_CONFIG
        assert "config error: grid: missing 'n_steps'" in capsys.readouterr().err

    @pytest.mark.parametrize("command,output", [("mm", "theta_quotes.csv"),
                                                ("simulate", "sim_report.json")])
    def test_stacked_rates_are_a_config_error(self, tmp_path, capsys, command, output):
        tree = cli.load_config(None, command)
        tree["as_model"].update({"q_max": 3, "sigmas": [0.3, 0.8],
                                 "mu_per_day": [[[0.0, 30.0], [30.0, 0.0]]]})
        cfg = write_yaml(tmp_path / "bad.yaml", tree)
        out = tmp_path / "out"
        assert run([command, "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
        assert "rates must be (2, 2), got (1, 2, 2)" in capsys.readouterr().err
        assert not (out / output).exists()

    def test_square_rates_of_another_size_are_a_config_error(self, tmp_path, capsys):
        tree = cli.load_config(None, "mm")
        tree["as_model"]["mu_per_day"] = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
        cfg = write_yaml(tmp_path / "bad.yaml", tree)
        out = tmp_path / "out"
        assert run(["mm", "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
        assert "as_model: rates must be (2, 2), got (3, 3)" in capsys.readouterr().err
        assert not (out / "theta_quotes.csv").exists()

    def test_integer_valued_float_is_accepted(self):
        value = cli._checked({"q_max": 4.0}, "as_model", "q_max", "int")
        assert value == 4 and type(value) is int


class TestFlags:
    VALUES = {"--config": ["c.yaml"], "--out": ["o"], "--seed": ["3"],
              "--paths": ["4"], "--steps": ["5"],
              "--flip-bangbang-orientation": [], "--clamp-efforts": [],
              "--no-clamp-efforts": []}
    # the macro game's policy is mm.macro.mode, never a flag: every
    # command rejects the three macro flags
    READS = {
        "calibrate": {"--config", "--out"},
        "solve": {"--config", "--out"},
        "mm": {"--config", "--out", "--steps"},
        "simulate": {"--config", "--out", "--seed", "--paths", "--steps"},
    }

    @pytest.mark.parametrize("command", sorted(READS))
    def test_only_the_flags_a_command_reads(self, command, capsys):
        positional = ["bars.csv"] if command == "calibrate" else []
        parser = cli.build_parser()
        for flag, value in self.VALUES.items():
            argv = [command, *positional, flag, *value]
            if flag in self.READS[command]:
                parser.parse_args(argv)
            else:
                with pytest.raises(SystemExit) as exc:
                    cli.main(argv)
                assert exc.value.code == 2, flag


# Runs in one fresh interpreter: import rsgames.cli, then each stage's
# command in turn; prints, as its last line, the exit codes and the scipy
# modules loaded after each stage.
COLD_START = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
from rsgames import cli
stages = {"import": [0, scipy_modules()]}
for name, argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    stages[name] = [code, scipy_modules()]
print(json.dumps(stages))
"""

# a cyclic three-regime chain breaks detailed balance, so its penalty table
# is stepped by numkit.expm
CYCLIC_MODEL = {"sigmas": [0.2, 0.4, 0.6],
                "mu_per_day": [[0.0, 2.0, 0.5], [0.5, 0.0, 2.0], [2.0, 0.5, 0.0]]}


@pytest.fixture(scope="module")
def cold_start(tmp_path_factory):
    work = tmp_path_factory.mktemp("cold")
    macro = write_yaml(work / "macro.yaml", {"mm": {"macro": {
        "enabled": True, "inventory": 3, "mode": "affine", "affine": {
            "mu0": [[0.0, 30.0], [30.0, 0.0]], "lam_att": [[0.0, 400.0], [400.0, 0.0]],
            "lam_stab": [[0.0, 20.0], [20.0, 0.0]]}}}})
    cyclic = write_yaml(work / "cyclic.yaml", {"as_model": CYCLIC_MODEL})
    bars = synthetic_ohlcv(work / "bars.csv")
    stages = [
        ("solve", ["solve", "--config", os.path.join(CONFIGS, "solve_two_regime.yaml")]),
        ("simulate", ["simulate", "--config", os.path.join(CONFIGS, "simulate_reference.yaml"),
                      "--paths", "20", "--steps", "400"]),
        ("mm_macro", ["mm", "--config", macro]),
        ("calibrate", ["calibrate", bars]),
        ("simulate_cyclic", ["simulate", "--config", cyclic, "--paths", "4", "--steps", "40"]),
        ("mm_cyclic", ["mm", "--config", cyclic, "--steps", "8"]),
    ]
    stages = [(name, argv + ["--out", str(work / name)]) for name, argv in stages]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    out = subprocess.run([sys.executable, "-c", COLD_START, json.dumps(stages)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


class TestColdStart:
    """Import and every command, on a reversible and a cyclic chain and on
    the logm path of calibrate, load no scipy."""

    @pytest.mark.parametrize("stage", ["import", "solve", "simulate", "mm_macro",
                                       "calibrate", "simulate_cyclic", "mm_cyclic"])
    def test_no_scipy_module_is_loaded(self, cold_start, stage):
        assert cold_start[stage] == [cli.EXIT_OK, []]

    def test_non_reversible_chain_runs_through_expm(self, tmp_path, monkeypatch):
        # simulate and mm step the cyclic chain's penalty table
        calls = []
        expm = numkit.expm
        monkeypatch.setattr(numkit, "expm", lambda A: calls.append(A.shape) or expm(A))
        config = write_yaml(tmp_path / "cyclic.yaml", {"as_model": CYCLIC_MODEL})
        sim_out, mm_out = tmp_path / "sim", tmp_path / "mm"
        assert run(["simulate", "--config", config, "--paths", "4", "--steps", "40",
                    "--out", str(sim_out)]) == cli.EXIT_OK
        assert calls
        calls.clear()
        assert run(["mm", "--config", config, "--steps", "8",
                    "--out", str(mm_out)]) == cli.EXIT_OK
        assert calls
        assert (sim_out / "sim_report.json").exists()
        assert (mm_out / "theta_quotes.csv").exists()

    def test_calibrate_runs_through_logm(self, tmp_path, monkeypatch):
        # the cold start's bars take the matrix logarithm, not the fallback
        calls = []
        logm = numkit.logm
        monkeypatch.setattr(numkit, "logm", lambda A: calls.append(A.shape) or logm(A))
        bars = synthetic_ohlcv(tmp_path / "bars.csv")
        assert run(["calibrate", bars, "--out", str(tmp_path / "out")]) == cli.EXIT_OK
        assert calls == [(2, 2)]
