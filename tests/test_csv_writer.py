"""Differential tests of the columnar cli.write_csv against the row writer
it replaced, which lives on here as the oracle together with the row
assembly of each command."""

import dataclasses
import os
import stat
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from oracles import run_paths_oracle
from rsgames import as_game, cli, hierarchy, outer_layer, sim
from rsgames.numkit import NumericalError

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def oracle_fmt(x):
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def oracle_write_csv(path, header, rows):
    lines = [",".join(["schema_version"] + list(header))]
    for row in rows:
        lines.append(",".join([str(cli.SCHEMA_VERSION)] + [oracle_fmt(x) for x in row]))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def same_bytes(path_a, path_b):
    with open(path_a, "rb") as a, open(path_b, "rb") as b:
        return a.read() == b.read()


def write_yaml(path, tree):
    path.write_text(yaml.safe_dump(tree))
    return str(path)


# ---------------------------------------------------------------- writer ---

finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def column_sets(draw):
    n = draw(st.integers(0, 40))
    floats = draw(hnp.arrays(np.float64, n, elements=finite_floats))
    # special values: both signed zeros, subnormals, a large integer
    repeated = draw(hnp.arrays(np.float64, n, elements=st.sampled_from(
        [0.0, -0.0, 1.0, 1e-300, 5e-324, 1e16, 0.1])))
    ints = draw(hnp.arrays(np.int64, n, elements=st.integers(-10**12, 10**12)))
    flags = draw(hnp.arrays(np.bool_, n))
    words = draw(st.lists(st.sampled_from(["row", "col", ""]), min_size=n, max_size=n))
    mask = draw(hnp.arrays(np.bool_, n))
    chunk = draw(st.integers(1, 50))
    return floats, repeated, ints, flags, words, mask, chunk


@st.composite
def shared_column_sets(draw):
    """Columns whose values recur across the columns of one dtype: a
    mirrored pair with mirrored masks, like u_a and u_b, the pair's
    negation (0.0 where the pair holds -0.0), a masked column that hides
    NaN, inf and the pair's values, the pair as float32, and an int column
    beside a bool column, both of 0s and 1s."""
    n = draw(st.integers(1, 60))
    # float32 values, so that the float32 column stays finite
    pool = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32),
                         min_size=1, max_size=4)) + [0.0, -0.0, 1.0]
    ask = draw(hnp.arrays(np.float64, n, elements=st.sampled_from(pool)))
    gaps = draw(hnp.arrays(np.bool_, n))
    hidden = draw(hnp.arrays(np.float64, n, elements=st.sampled_from(
        pool + [np.nan, np.inf, -np.inf])))
    mask = draw(hnp.arrays(np.bool_, n)) | ~np.isfinite(hidden)
    ints = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    flags = draw(hnp.arrays(np.bool_, n))
    chunk = draw(st.integers(1, 50))
    header = ["u_a", "u_b", "neg", "hidden", "f32", "i", "b"]
    columns = [np.ma.array(ask, mask=gaps), np.ma.array(ask[::-1], mask=gaps[::-1]),
               -ask, np.ma.array(hidden, mask=mask), ask.astype(np.float32),
               ints, flags]
    return header, columns, chunk


class TestWriter:
    @settings(max_examples=200, deadline=None)
    @given(column_sets())
    def test_matches_row_oracle(self, tmp_path_factory, case):
        floats, repeated, ints, flags, words, mask, chunk = case
        tmp = tmp_path_factory.mktemp("csv")
        header = ["f", "r", "i", "b", "w", "m", "s"]
        masked = np.ma.array(floats[::-1].copy(), mask=mask)
        with mock.patch.object(cli, "CSV_CHUNK_ROWS", chunk):
            cli.write_csv(str(tmp / "new.csv"), header,
                          [floats, repeated, ints, flags, words, masked,
                           np.array(words, dtype=str)])
        rows = [(floats[r], repeated[r], ints[r], flags[r], words[r],
                 "" if mask[r] else masked.data[r], words[r])
                for r in range(len(words))]
        oracle_write_csv(str(tmp / "old.csv"), header, rows)
        assert same_bytes(tmp / "new.csv", tmp / "old.csv")

    @settings(max_examples=200, deadline=None)
    @given(shared_column_sets())
    def test_values_shared_across_columns_match_row_oracle(self, tmp_path_factory,
                                                           case):
        # write_csv formats each distinct value of a dtype once per chunk;
        # catches: keying floats on their value instead of their bits (one
        # text for 0.0 and -0.0), one pool across dtypes (1 written as 1.0
        # or True), and a group's mask applied to another column of it
        header, columns, chunk = case
        tmp = tmp_path_factory.mktemp("csv")
        with mock.patch.object(cli, "CSV_CHUNK_ROWS", chunk):
            cli.write_csv(str(tmp / "new.csv"), header, columns)
        rows = [tuple("" if np.ma.is_masked(col[r]) else col[r] for col in columns)
                for r in range(len(columns[0]))]
        oracle_write_csv(str(tmp / "old.csv"), header, rows)
        assert same_bytes(tmp / "new.csv", tmp / "old.csv")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_raises(self, tmp_path, bad):
        path = tmp_path / "x.csv"
        path.write_text("before\n")
        with pytest.raises(NumericalError):
            cli.write_csv(str(path), ["a", "b"],
                          [np.arange(3), np.array([1.0, bad, 2.0])])
        with pytest.raises(NumericalError):
            cli.write_csv(str(path), ["a"], [[1.0, bad]])
        assert path.read_text() == "before\n"
        assert os.listdir(tmp_path) == ["x.csv"]

    def test_a_write_that_fails_midway_leaves_nothing_behind(self, tmp_path,
                                                             monkeypatch):
        # the second chunk fails after the first is written to the
        # temporary file; catches: dropping the os.unlink of that file,
        # which left a *.tmp next to the target
        calls = []
        real_format = cli._format_cells

        def failing_format(parts):
            calls.append([len(part) for part in parts])
            if len(calls) > 1:
                raise RuntimeError("formatting failed")
            return real_format(parts)

        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 2)
        monkeypatch.setattr(cli, "_format_cells", failing_format)
        old, new = tmp_path / "old.csv", tmp_path / "new.csv"
        old.write_text("before\n")
        for path in (old, new):
            calls.clear()
            with pytest.raises(RuntimeError, match="formatting failed"):
                cli.write_csv(str(path), ["a"], [np.arange(5.0)])
            assert calls == [[2], [2]]
        assert old.read_text() == "before\n"
        assert os.listdir(tmp_path) == ["old.csv"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)],
                             ids=["umask022", "umask027"])
    def test_a_written_file_takes_its_mode_from_the_umask(self, tmp_path, umask, mode):
        # catches: the temporary file's 0600 from mkstemp surviving the
        # rename, which left every output owner-only
        old = os.umask(umask)
        try:
            cli.write_csv(str(tmp_path / "x.csv"), ["a"], [np.arange(3)])
            cli.write_json(str(tmp_path / "x.json"), {"a": 1})
        finally:
            os.umask(old)
        for name in ("x.csv", "x.json"):
            assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == mode

    def test_masked_non_finite_is_not_written(self, tmp_path):
        path = tmp_path / "x.csv"
        cli.write_csv(str(path), ["a"],
                      [np.ma.array([1.0, np.nan], mask=[False, True])])
        assert path.read_text() == "schema_version,a\n1,1.0\n1,\n"

    def test_column_lengths_must_agree(self, tmp_path):
        with pytest.raises(ValueError):
            cli.write_csv(str(tmp_path / "x.csv"), ["a", "b"],
                          [np.arange(3), np.arange(2)])


# ------------------------------------------------------ command outputs ---

class TestCommandsMatchRowOracle:
    def test_solve(self, tmp_path):
        config = os.path.join(CONFIGS, "solve_two_regime.yaml")
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", config, "--out", str(out)]) == 0
        cfg = cli.load_config(config, "solve")
        model = cli.build_lq_model(cfg["lq"])
        grid = cli.build_grid(cfg["grid"])
        sol = hierarchy.solve_hierarchy(
            model, cli.build_outer_spec(cfg["outer"], model.n_regimes), grid)
        nodes = grid.nodes()
        N, n = model.n_regimes, model.n_states
        steps = range(len(nodes))
        expected = {
            "riccati_p.csv": (["t", "regime", "row", "col", "value"], [
                (nodes[idx], i, a, b, sol.riccati.P[idx, i, a, b])
                for idx in steps for i in range(N)
                for a in range(n) for b in range(n)]),
            "riccati_r.csv": (["t", "regime", "value"], [
                (nodes[idx], i, sol.riccati.r[idx, i])
                for idx in steps for i in range(N)]),
            "outer_k.csv": (["t", "regime", "value"], [
                (nodes[idx], i, sol.outer.k[idx, i])
                for idx in steps for i in range(N)]),
            "rates.csv": (["t", "from", "to", "rate"], [
                (nodes[idx], i, j, sol.outer.mu[idx, i, j])
                for idx in steps for i in range(N) for j in range(N)]),
            "policies.csv": (["t", "regime", "player", "action", "weight"], [
                (nodes[idx], i, player, a, vec[idx, i, a])
                for idx in steps for i in range(N)
                for player, vec in (("row", sol.outer.f), ("col", sol.outer.g))
                for a in range(vec.shape[2])]),
        }
        for name, (header, rows) in expected.items():
            oracle_write_csv(str(tmp_path / name), header, rows)
            assert same_bytes(out / name, tmp_path / name), name

    def test_mm(self, tmp_path):
        affine = {"mu0": [[0.0, 3.0], [3.0, 0.0]],
                  "lam_att": [[0.0, 1.0], [1.0, 0.0]],
                  "lam_stab": [[0.0, 1.0], [1.0, 0.0]]}
        config = write_yaml(tmp_path / "mm.yaml", {
            "as_model": {
                "gamma": 0.5, "xi": 1.0, "A": 100.0, "k": 8.0,
                "sigmas": [0.3, 0.8], "q_max": 3,
                "horizon_hours": 24.0, "dt_seconds": 900.0,
                "mu_per_day": [[0.0, 3.0], [3.0, 0.0]], "s0": 100.0,
            },
            "mm": {"n_steps": 48, "expansion_report": True,
                   "xi_sweep": [0.0, 0.5, 2.0],
                   "macro": {"enabled": True, "inventory": 2, "n_steps": 40,
                             "mode": "affine", "affine": affine}},
        })
        out = tmp_path / "out"
        assert cli.main(["mm", "--config", config, "--out", str(out)]) == 0
        model = cli.build_as_model(cli.load_config(config, "mm")["as_model"])

        table = as_game.build_theta_table(model, 48)
        ask, bid = as_game.quote_surfaces(table, model)
        rows = []
        for idx, tau in enumerate(table.taus):
            for i in range(model.n_regimes):
                for qi, q in enumerate(model.q_levels()):
                    rows.append((model.horizon - tau, i, q, table.theta[idx, i, qi],
                                 ask[idx, i, qi] if q > -model.q_max else "",
                                 bid[idx, i, qi] if q < model.q_max else ""))
        oracle_write_csv(str(tmp_path / "theta_quotes.csv"),
                         ["t", "regime", "q", "theta", "u_a", "u_b"], rows)

        rows = []
        for xi in (0.0, 0.5, 2.0):
            m_xi = dataclasses.replace(model, xi=xi)
            a_xi, b_xi = as_game.quote_surfaces(
                as_game.build_theta_table(m_xi, 48), m_xi)
            rows.append((xi, float(a_xi[-1, :, 3].mean() + b_xi[-1, :, 3].mean())))
        oracle_write_csv(str(tmp_path / "xi_sweep.csv"),
                         ["xi", "total_spread_q0_full_horizon"], rows)

        spec = outer_layer.OuterGameSpec.from_affine(
            *(np.asarray(affine[key]) * 365.0 for key in ("mu0", "lam_att", "lam_stab")))
        macro = as_game.solve_macro_as(model, spec, 2, 40)
        nodes = np.linspace(0.0, model.horizon, 41)
        rows = [(nodes[idx], i, macro.k[idx, i], macro.f[idx, i, 1],
                 macro.g[idx, i, 1])
                for idx in range(41) for i in range(model.n_regimes)]
        oracle_write_csv(str(tmp_path / "macro_values.csv"),
                         ["t", "regime", "U", "f_act", "g_act"], rows)

        for name in ("theta_quotes.csv", "xi_sweep.csv", "macro_values.csv"):
            assert same_bytes(out / name, tmp_path / name), name

    def test_simulate_path_export(self, tmp_path):
        tree = yaml.safe_load(open(os.path.join(CONFIGS, "simulate_lively.yaml")))
        tree["sim"].update(n_paths=3, export_paths=True, n_export_paths=2)
        config = write_yaml(tmp_path / "sim.yaml", tree)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 0
        sim_config = simulate_config(config, 3)
        policy = sim.make_policy(sim_config.model, "equilibrium", sim_config.n_steps)
        for p in range(2):
            name = f"path_{p:04d}.csv"
            oracle_path_csv(tmp_path / name, sim_config, policy, p)
            assert same_bytes(out / name, tmp_path / name), name
        # the columns after step and time are the record's, in its order
        header = (out / "path_0000.csv").read_text().split("\n", 1)[0]
        assert header.split(",") == ["schema_version", "step", "time",
                                     *sim.RECORD_DTYPES]


def simulate_config(config, n_paths, n_steps=None):
    """The SimConfig that `simulate --config config` replays."""
    cfg = cli.load_config(config, "simulate")
    model = cli.build_as_model(cfg["as_model"])
    if n_steps is None:
        dt = cfg["as_model"]["dt_seconds"] / as_game.SECONDS_PER_YEAR
        n_steps = int(round(model.horizon / dt))
    return sim.SimConfig(model=model, n_paths=n_paths, n_steps=n_steps,
                         seed=int(cfg["sim"]["seed"]),
                         predator=bool(cfg["sim"]["predator"]),
                         initial_regime=int(cfg["sim"]["initial_regime"]))


def oracle_path_csv(path, config, policy, p):
    """path_NNNN.csv of path p from the single-policy oracle replaying p's
    stream alone, written by the row writer."""
    uniforms, normals = sim.generate_streams(
        sim.PathStreams(config.seed, 1, config.n_steps, p))
    rec = run_paths_oracle(config, policy, uniforms, normals, config.predator,
                           record=True)["record"]
    # a side that does not quote is NaN in the record and empty in the file
    quote = {side: ["" if np.isnan(u) else u for u in rec[side]]
             for side in ("u_a", "u_b")}
    oracle_write_csv(
        str(path),
        ["step", "time", "price", "regime", "inventory", "cash",
         "u_a", "u_b", "drift", "ask_fill", "bid_fill"],
        [(s, (s + 1) * config.dt, rec["price"][s], rec["regime"][s],
          rec["inventory"][s], rec["cash"][s], quote["u_a"][s], quote["u_b"][s],
          rec["drift"][s], rec["ask_fill"][s], rec["bid_fill"][s])
         for s in range(config.n_steps)],
    )


@pytest.mark.parametrize("stream_block", [64, 192, 200])
@pytest.mark.parametrize("paths_per_chunk", [1, 2, 7])
@pytest.mark.parametrize("market", ["simulate_lively", "simulate_reference"])
def test_exported_paths_come_from_their_chunk(tmp_path, monkeypatch, market,
                                              paths_per_chunk, stream_block):
    # catches: recording chunk-local row p for global path first + p, a
    # block's rows at the chunk's first steps, and exporting from the wrong
    # policy or past n_export_paths
    n_paths, n_steps, n_export = 7, 200, 5
    # a chunk holds paths_per_chunk paths; its streams are drawn
    # stream_block steps at a time, 200 not a multiple of 64 or 192
    monkeypatch.setattr(sim, "CHUNK_PATHS", paths_per_chunk)
    monkeypatch.setattr(sim, "STREAM_BLOCK", stream_block)
    tree = yaml.safe_load(open(os.path.join(CONFIGS, f"{market}.yaml")))
    tree["sim"].update(export_paths=True, n_export_paths=n_export)
    config = write_yaml(tmp_path / "sim.yaml", tree)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", config, "--out", str(out),
                     "--paths", str(n_paths), "--steps", str(n_steps)]) == 0
    assert sorted(f.name for f in out.glob("path_*.csv")) == \
        [f"path_{p:04d}.csv" for p in range(n_export)]
    sim_config = simulate_config(config, n_paths, n_steps)
    policy = sim.make_policy(sim_config.model, "equilibrium", n_steps)
    for p in range(n_export):
        name = f"path_{p:04d}.csv"
        oracle_path_csv(tmp_path / name, sim_config, policy, p)
        assert same_bytes(out / name, tmp_path / name), name


def test_path_export_leaves_inactive_quotes_empty(tmp_path):
    # q_max = 1 with fills on most steps: the path sits at a bound often,
    # where the record marks the side that cannot quote with NaN
    config = write_yaml(tmp_path / "sim.yaml", {
        "as_model": {
            "gamma": 0.5, "xi": 2.0, "A": 2.0e7, "k": 8.0,
            "sigmas": [0.3, 0.8], "q_max": 1,
            "horizon_hours": 4.0, "dt_seconds": 120.0,
            "mu_per_day": [[0.0, 3.0], [3.0, 0.0]], "s0": 100.0,
        },
        "sim": {"n_paths": 1, "seed": 1, "export_paths": True},
    })
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 0
    lines = (out / "path_0000.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    quotes = [row[header.index(side)] for row in rows for side in ("u_a", "u_b")]
    assert "nan" not in quotes
    assert "" in quotes
    for row in rows:  # at most one side is inactive at a time
        assert row[header.index("u_a")] or row[header.index("u_b")]
