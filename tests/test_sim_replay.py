"""The stacked, chunked Monte-Carlo replay against the single-policy oracle,
its invariants, chunk-size independence, bounded memory, the step budget,
the lookups each policy carries, and the checks on the policies it is
given."""

import csv
import dataclasses
import json
import os
import sys
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from oracles import (fill_probability_oracle, generate_streams_oracle, replay_whole,
                     run_paths_oracle)
from rsgames import as_game, cli, sim
from rsgames.as_game import ASModel
from rsgames.numkit import NumericalError
from rsgames.sim import SimConfig

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")

MEAN_FIELDS = ("mean_total_spread", "mean_abs_drift", "mean_abs_inventory",
               "mean_terminal_abs_inventory", "mean_price_increment")


def assert_same_record(got, want):
    """Two path records hold the columns of sim.RECORD_DTYPES, in order,
    with equal dtypes and values (NaN equal to NaN)."""
    assert list(got) == list(want) == list(sim.RECORD_DTYPES)
    for name, dtype in sim.RECORD_DTYPES.items():
        assert got[name].dtype == want[name].dtype == dtype, name
        np.testing.assert_array_equal(got[name], want[name])


def record_pnl(record):
    """A recorded path's terminal PnL, m_T + q_T S_T, from its last row."""
    return record["cash"][-1] + record["inventory"][-1] * record["price"][-1]


@st.composite
def sim_cases(draw):
    """A small market with 1-3 regimes, its replay config and streams."""
    n = draw(st.integers(1, 3))
    positive = st.floats(0.1, 1.0)
    rates = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                rates[i, j] = draw(st.sampled_from([0.0, 50.0, 200.0, 800.0]))
    n_steps = draw(st.integers(4, 40))
    model = ASModel(
        gamma=draw(positive), xi=draw(st.floats(0.0, 4.0)),
        A=draw(st.floats(500.0, 20000.0)), k=draw(st.floats(2.0, 10.0)),
        sigmas=[draw(positive) for _ in range(n)], q_max=draw(st.integers(1, 6)),
        horizon=0.02, rates=rates, s0=100.0,
    )
    config = SimConfig(model=model, n_paths=draw(st.integers(1, 40)),
                       n_steps=n_steps, seed=draw(st.integers(0, 2**32 - 1)),
                       predator=draw(st.booleans()),
                       initial_regime=draw(st.integers(0, n - 1)))
    uniforms, normals = sim.generate_streams(
        sim.PathStreams(config.seed, config.n_paths, n_steps))
    return config, uniforms, normals


def _policies(config):
    return [sim.make_policy(config.model, kind, config.n_steps)
            for kind in ("vanilla", "equilibrium")]


class TestAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(sim_cases())
    def test_stacked_replay_equals_single_policy_loop(self, case):
        config, uniforms, normals = case
        policies = _policies(config)
        refs = {policy.name: run_paths_oracle(config, policy, uniforms, normals,
                                              config.predator, record=True)
                for policy in policies}
        # run_paths records the last policy of the stack, so each order
        # records one of the two
        for stack in (policies, policies[::-1]):
            outs = replay_whole(config, stack, uniforms, normals, record=1)
            for policy, out in zip(stack, outs):
                ref = refs[policy.name]
                for key in ("pnl", "fills_ask", "fills_bid", "terminal_inventory"):
                    assert out[key].dtype == ref[key].dtype
                    np.testing.assert_array_equal(out[key], ref[key])
                stats = sim._strategy_stats(out, config.n_steps)
                for key in MEAN_FIELDS:
                    assert stats[key] == pytest.approx(ref[key], rel=1e-12, abs=1e-300)
            assert_same_record(outs[-1]["records"][0], refs[stack[-1].name]["record"])

    @settings(max_examples=25, deadline=None)
    @given(sim_cases())
    def test_every_path_keeps_its_bound_and_cash_identity(self, case):
        # each path replayed alone keeps the bound and the cash identity,
        # and equals its row of the batch, record included (catches:
        # recording one fixed row for every path)
        config, uniforms, normals = case
        policies = _policies(config)
        q_max = config.model.q_max
        # run_paths records the last policy of the stack, so each order
        # records one of the two
        for stack in (policies, policies[::-1]):
            batch = replay_whole(config, stack, uniforms, normals,
                                 record=config.n_paths)
            for p in range(config.n_paths):
                alone = replay_whole(config, stack, uniforms[p:p + 1],
                                     normals[p:p + 1], record=1)
                out, full = alone[-1], batch[-1]
                rec = out["records"][0]
                assert np.abs(rec["inventory"]).max() <= q_max
                assert out["pnl"][0] == record_pnl(rec) == full["pnl"][p]
                assert rec["inventory"][-1] == full["terminal_inventory"][p]
                assert_same_record(full["records"][p], rec)


@st.composite
def block_cases(draw):
    """A market whose regime path crosses several replay blocks: 1 to 3
    regimes with distinct sigmas, rates from none to stiff (at 2e5 a path
    leaves at almost every step), its replay config, streams and the number
    of paths to record."""
    n = draw(st.integers(1, 3))
    rates = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                rates[i, j] = draw(st.sampled_from([0.0, 50.0, 5e3, 2e5]))
    if n > 1 and draw(st.booleans()):
        rates[draw(st.integers(0, n - 1))] = 0.0  # a regime without exits
    n_steps = draw(st.integers(15, 45))
    model = ASModel(
        gamma=draw(st.floats(0.1, 1.0)), xi=draw(st.floats(0.0, 4.0)),
        A=draw(st.floats(500.0, 20000.0)), k=draw(st.floats(2.0, 10.0)),
        sigmas=[0.2 + 0.3 * i for i in range(n)], q_max=draw(st.integers(1, 4)),
        horizon=0.02, rates=rates, s0=100.0,
    )
    config = SimConfig(model=model, n_paths=draw(st.integers(1, 6)),
                       n_steps=n_steps, seed=draw(st.integers(0, 2**32 - 1)),
                       predator=draw(st.booleans()),
                       initial_regime=draw(st.integers(0, n - 1)))
    uniforms, normals = sim.generate_streams(
        sim.PathStreams(config.seed, config.n_paths, n_steps))
    return config, uniforms, normals, draw(st.integers(1, config.n_paths))


class TestBlocks:
    @settings(max_examples=40, deadline=None)
    @given(block_cases())
    def test_replay_across_blocks_equals_single_policy_loop(self, case):
        # blocks of 1, 3 and 7 steps, so every case crosses several; catches
        # the regime carried into the next block from one step early, and
        # noise scaled by the regime held before the step's transition
        config, uniforms, normals, record = case
        policies = _policies(config)
        refs = [[run_paths_oracle(config, policy, uniforms[p:p + 1],
                                  normals[p:p + 1], config.predator, record=True)
                 for p in range(config.n_paths)] for policy in policies]
        for block in (1, 3, 7):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(sim, "REPLAY_BLOCK", block)
                outs = replay_whole(config, policies, uniforms, normals,
                                    record=record)
            for out, ref in zip(outs, refs):
                for key in ("pnl", "fills_ask", "fills_bid", "terminal_inventory"):
                    np.testing.assert_array_equal(
                        out[key], np.concatenate([path[key] for path in ref]))
            for rec, path in zip(outs[-1]["records"], refs[-1]):
                assert_same_record(rec, path["record"])

    @settings(max_examples=10, deadline=None)
    @given(block_cases())
    def test_replay_leaves_its_streams_as_they_were(self, case):
        # the stacked replay and the export reuse one chunk's streams, so
        # run_paths must only read them; a second replay gives the same
        config, uniforms, normals, record = case
        policies = _policies(config)
        before = uniforms.tobytes(), normals.tobytes()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "REPLAY_BLOCK", 7)
            first, second = (replay_whole(config, policies, uniforms, normals,
                                          record=record) for _ in range(2))
        assert (uniforms.tobytes(), normals.tobytes()) == before
        for one, two in zip(first, second):
            for key in sim.PER_PATH:
                np.testing.assert_array_equal(one[key], two[key])
        assert len(first[-1]["records"]) == record
        for one, two in zip(first[-1]["records"], second[-1]["records"]):
            assert_same_record(one, two)


class TestStreams:
    def test_stream_depends_only_on_seed_and_path(self):
        seed, n_steps = 41, 30
        uniforms, normals = sim.generate_streams(sim.PathStreams(seed, 9, n_steps))
        for p, child in enumerate(np.random.SeedSequence(seed).spawn(9)):
            gen = np.random.Generator(np.random.Philox(child))
            np.testing.assert_array_equal(uniforms[p], gen.random((n_steps, 3)))
            np.testing.assert_array_equal(normals[p], gen.standard_normal(n_steps))
        part_u, part_n = sim.generate_streams(sim.PathStreams(seed, 4, n_steps, 5))
        np.testing.assert_array_equal(part_u, uniforms[5:])
        np.testing.assert_array_equal(part_n, normals[5:])

    # 3 n_steps % 4 is 0, 3, 2 and 1: the normals start at each of the four
    # draws of a Philox counter
    @pytest.mark.parametrize("n_steps", [200, 201, 202, 203])
    @pytest.mark.parametrize("block", [1, 7, 64, 203])
    def test_stream_drawn_in_blocks_is_the_whole_path_stream(self, n_steps, block):
        # catches: the normal generator opened one counter late, at
        # 3 n_steps // 4 + 1 (a draw at counter c computes counter c + 1),
        # or one early, or without discarding the 3 n_steps % 4 uniforms
        # of the counter that the two sections share
        seed, n_paths = 23, 3
        streams = sim.PathStreams(seed, n_paths, n_steps)
        blocks = [sim.generate_streams(streams, min(block, n_steps - s0))
                  for s0 in range(0, n_steps, block)]
        uniforms = np.concatenate([u for u, _ in blocks], axis=1)
        normals = np.concatenate([z for _, z in blocks], axis=1)
        for p, child in enumerate(np.random.SeedSequence(seed).spawn(n_paths)):
            gen = np.random.Generator(np.random.Philox(child))
            np.testing.assert_array_equal(uniforms[p], gen.random((n_steps, 3)))
            np.testing.assert_array_equal(normals[p], gen.standard_normal(n_steps))
        with pytest.raises(ValueError, match="0 left"):
            sim.generate_streams(streams, 1)

    @settings(max_examples=60, deadline=None)
    @given(n_paths=st.integers(1, 9), first=st.integers(0, 40),
           n_steps=st.integers(1, 50), data=st.data(),
           seed=st.integers(0, 2**32 - 1))
    def test_two_thread_draw_equals_one_thread_loop(self, n_paths, first, n_steps,
                                                    data, seed):
        # the helper thread draws rows [n_paths // 2, n_paths); catches its
        # rows starting one late (row n_paths // 2 is left unfilled and its
        # generators undrawn) or ending one early, and a generator drawn by
        # the wrong half; a short switch interval interleaves the threads
        block = data.draw(st.integers(1, n_steps), label="block")
        got, want = (sim.PathStreams(seed, n_paths, n_steps, first) for _ in range(2))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            blocks = [(sim.generate_streams(got, min(block, n_steps - s0)),
                       generate_streams_oracle(want, min(block, n_steps - s0)))
                      for s0 in range(0, n_steps, block)]
        finally:
            sys.setswitchinterval(interval)
        for (got_u, got_n), (want_u, want_n) in blocks:
            assert got_u.tobytes() == want_u.tobytes()
            assert got_n.tobytes() == want_n.tobytes()
        assert got.drawn == want.drawn
        for got_gens, want_gens in zip(got.generators, want.generators, strict=True):
            for one, two in zip(got_gens, want_gens):
                np.testing.assert_equal(one.bit_generator.state,
                                        two.bit_generator.state)

    class _FailingDraw:
        def __init__(self, row):
            self.row = row

        def random(self, out):
            raise RuntimeError(f"draw failed at row {self.row}")

    # five paths: the caller draws rows 0 and 1, the helper rows 2 to 4
    @pytest.mark.parametrize("rows", [(0,), (4,), (1, 2)], ids=str)
    def test_failed_draw_is_raised_in_the_caller(self, rows):
        # catches the helper's exception lost in its thread (the call then
        # returns a block with unfilled rows) and a helper left running
        streams = sim.PathStreams(3, 5, 40)
        sim.generate_streams(streams, 10)
        for row in rows:
            streams.generators[row] = (self._FailingDraw(row),
                                       streams.generators[row][1])
        threads = threading.active_count()
        pattern = "|".join(f"row {row}$" for row in rows)
        with pytest.raises(RuntimeError, match=pattern):
            sim.generate_streams(streams, 10)
        assert threading.active_count() == threads
        assert streams.drawn == 10

    def test_exported_path_is_its_batch_row(self, lively_as_model):
        config = SimConfig(model=lively_as_model, n_paths=8, n_steps=400, seed=12)
        policy = sim.make_policy(lively_as_model, "equilibrium", 400)
        uniforms, normals = sim.generate_streams(sim.PathStreams(12, 8, 400))
        batch = replay_whole(config, [policy], uniforms, normals)[0]
        for p in (0, 5, 7):
            alone_u, alone_n = sim.generate_streams(sim.PathStreams(12, 1, 400, p))
            rec = replay_whole(config, [policy], alone_u, alone_n,
                               record=1)[0]["records"][0]
            assert record_pnl(rec) == batch["pnl"][p]


def _peak_memory(config, *args):
    """tracemalloc's peak over one run_monte_carlo(config, *args)."""
    tracemalloc.start()
    try:
        sim.run_monte_carlo(config, *args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _report_at_chunk(monkeypatch, tmp_path, config_path, paths_per_chunk, n_steps,
                     stream_block):
    monkeypatch.setattr(sim, "CHUNK_PATHS", paths_per_chunk)
    monkeypatch.setattr(sim, "STREAM_BLOCK", stream_block)
    out = tmp_path / f"chunk{paths_per_chunk}-block{stream_block}"
    assert cli.main(["simulate", "--config", str(config_path), "--out", str(out),
                     "--steps", str(n_steps)]) == 0
    return (out / "sim_report.json").read_bytes()


class TestChunks:
    @pytest.mark.parametrize("regimes", [2, 3])
    def test_report_does_not_depend_on_chunk_size(self, monkeypatch, tmp_path,
                                                  capsys, regimes):
        # streams drawn a replay block, three and all n_steps at a time,
        # n_steps not a multiple of the first two
        n_paths, n_steps = 23, 200
        as_model = {"gamma": 0.5, "xi": 2.0, "A": 2000.0, "k": 8.0,
                    "sigmas": [0.3, 0.8], "q_max": 4, "horizon_hours": 175.2,
                    "dt_seconds": 1576.8, "mu_per_day": [[0.0, 0.5], [0.5, 0.0]],
                    "s0": 100.0}
        if regimes == 3:
            as_model.update(sigmas=[0.3, 0.5, 0.8],
                            mu_per_day=[[0.0, 0.5, 0.2], [0.4, 0.0, 0.3],
                                        [0.1, 0.6, 0.0]])
        config_path = tmp_path / "sim.yaml"
        config_path.write_text(yaml.safe_dump(
            {"as_model": as_model, "sim": {"n_paths": n_paths, "seed": 8}}))
        reports = {(size, block): _report_at_chunk(monkeypatch, tmp_path, config_path,
                                                   size, n_steps, block)
                   for size in (1, 7, n_paths)
                   for block in (sim.REPLAY_BLOCK, 3 * sim.REPLAY_BLOCK, n_steps)}
        for key, report in reports.items():
            assert report == reports[n_paths, n_steps], key
        assert json.loads(reports[1, n_steps])["n_paths"] == n_paths

    def test_reference_run_is_one_chunk(self):
        assert sim.CHUNK_PATHS >= 1000

    def test_peak_memory_is_bounded_by_the_chunk(self, monkeypatch, lively_as_model):
        paths_per_chunk, n_steps = 100, 400
        monkeypatch.setattr(sim, "CHUNK_PATHS", paths_per_chunk)

        def peak(n_paths):
            return _peak_memory(SimConfig(model=lively_as_model, n_paths=n_paths,
                                          n_steps=n_steps, seed=4))

        one_chunk = peak(paths_per_chunk)
        four_chunks = peak(4 * paths_per_chunk)
        assert four_chunks < 1.5 * one_chunk, (one_chunk, four_chunks)

    def test_peak_memory_does_not_grow_with_the_streams(self, lively_as_model):
        # streams are drawn a block of 576 steps at a time, so four times
        # the steps add the quote tables' growth (1.7 MB here) but not the
        # streams' 32 bytes per path-step (11 MB).  catches: drawing a
        # chunk's whole streams before its replay, as a one-chunk run did
        # (13.5 MB more)
        n_paths, n_steps = 200, 576

        def peak(steps):
            return _peak_memory(SimConfig(model=lively_as_model, n_paths=n_paths,
                                          n_steps=steps, seed=4))

        growth = peak(4 * n_steps) - peak(n_steps)
        # three uniforms and one normal per path-step, 8 bytes each
        streams_growth = 32 * n_paths * 3 * n_steps
        assert growth < 0.25 * streams_growth, (growth, streams_growth)


class TestStepBudget:
    def test_peak_memory_at_max_steps_is_within_the_budget(self, monkeypatch,
                                                            lively_as_model):
        # a 4 MiB budget, one exported path: max_steps gives 2860 steps.
        # Building the second quote table peaks at about 1.55 times the
        # tables held, and the stream block and record add little, so the
        # peak stays under twice the budget.  catches: the tables of one
        # policy counted (5721 steps, about 3 times the budget)
        budget = 2**22
        monkeypatch.setattr(sim, "STEP_BUDGET_BYTES", budget)
        n_steps, _ = sim.max_steps(lively_as_model, 20, 1)
        config = SimConfig(model=lively_as_model, n_paths=20, n_steps=n_steps, seed=4)
        exported = []
        peak = _peak_memory(config, 1, lambda p, rec: exported.append(p))
        assert exported == [0]
        assert peak < 2 * budget, (n_steps, peak, budget)

    @settings(max_examples=60, deadline=None)
    @given(paths_per_chunk=st.integers(1, 5), n_paths=st.integers(1, 12),
           n_export=st.integers(0, 15))
    def test_max_steps_charges_the_records_a_chunk_holds(self, paths_per_chunk,
                                                         n_paths, n_export):
        # the records max_steps counts are the most that any chunk's
        # ReplayState holds in run_monte_carlo.  catches: counting exported
        # paths the run does not have, or more than a chunk's, and a replay
        # that holds a record max_steps did not count
        model = ASModel(gamma=0.5, xi=2.0, A=2000.0, k=8.0, sigmas=[0.3, 0.8],
                        q_max=1, horizon=0.02, rates=[[0.0, 50.0], [50.0, 0.0]])
        held, exported = [], []

        class CountingState(sim.ReplayState):
            def __init__(self, *args):
                super().__init__(*args)
                held.append(self.rec["price"].shape[1])

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "CHUNK_PATHS", paths_per_chunk)
            patch.setattr(sim, "ReplayState", CountingState)
            config = SimConfig(model=model, n_paths=n_paths, n_steps=3, seed=2)
            sim.run_monte_carlo(config, n_export, lambda p, rec: exported.append(p))
            charged = sim.max_steps(model, n_paths, n_export)[1]
        assert len(held) == -(-n_paths // paths_per_chunk)
        assert charged == max(held)
        assert exported == list(range(min(n_export, n_paths)))


class TestExport:
    def test_simulate_replays_each_path_once(self, monkeypatch, tmp_path, capsys):
        # catches: replaying the exported paths again after the report
        calls = {"make_policy": 0, "build_theta_table": 0}
        replayed = []

        def count(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        count(sim, "make_policy")
        count(as_game, "build_theta_table")
        real_run_paths = sim.run_paths

        def run_paths(config, policies, uniforms, *args, **kwargs):
            replayed.append(uniforms.shape[0] * uniforms.shape[1])
            return real_run_paths(config, policies, uniforms, *args, **kwargs)
        monkeypatch.setattr(sim, "run_paths", run_paths)
        # chunks of 4 paths, streams drawn in blocks of 64 steps
        n_paths, n_steps = 10, 150
        monkeypatch.setattr(sim, "CHUNK_PATHS", 4)
        monkeypatch.setattr(sim, "STREAM_BLOCK", sim.REPLAY_BLOCK)
        config = tmp_path / "sim.yaml"
        config.write_text("sim:\n  export_paths: true\n  n_export_paths: 3\n")
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out),
                         "--paths", str(n_paths), "--steps", str(n_steps)]) == 0
        assert calls == {"make_policy": 2, "build_theta_table": 2}
        assert sum(replayed) == n_paths * n_steps
        assert len(replayed) == 3 * 3  # chunks of 4, 4 and 2 paths
        assert len(list(out.glob("path_*.csv"))) == 3

    def test_records_are_freed_with_their_chunk(self, monkeypatch, lively_as_model):
        # exporting every path; catches: holding every chunk's records
        # until the end of the run
        n_paths, n_steps = 80, 400
        pnl = {}

        def peak(paths_per_chunk):
            monkeypatch.setattr(sim, "CHUNK_PATHS", paths_per_chunk)
            config = SimConfig(model=lively_as_model, n_paths=n_paths,
                               n_steps=n_steps, seed=4)
            return _peak_memory(config, n_paths,
                                lambda p, rec: pnl.setdefault(p, record_pnl(rec)))

        one_chunk = peak(n_paths)
        four_chunks = peak(n_paths // 4)
        assert sorted(pnl) == list(range(n_paths))
        assert four_chunks < 0.5 * one_chunk, (one_chunk, four_chunks)

    def test_export_peak_is_bounded_by_the_chunk(self, monkeypatch, lively_as_model):
        # exporting every path in chunks of 50; the budget is what 50 paths'
        # streams (32 bytes per path-step, whole at 400 steps) and records
        # take.  catches: a chunk of every path, or of every exported one
        n_paths, n_steps = 200, 400
        budget = (32 + sim.RECORD_BYTES_PER_STEP) * n_steps * 50
        monkeypatch.setattr(sim, "CHUNK_PATHS", 50)
        config = SimConfig(model=lively_as_model, n_paths=n_paths, n_steps=n_steps,
                           seed=4)
        exported = []
        peak = _peak_memory(config, n_paths, lambda p, rec: exported.append(p))
        assert exported == list(range(n_paths))
        # the rest is the quote and fill tables, about 0.4 times the budget
        assert peak < 2 * budget, (peak, budget)

    @settings(max_examples=6, deadline=None)
    @given(q_max=st.integers(1, 2), A=st.sampled_from((2e4, 2e5, 1e6)),
           seed=st.integers(0, 10_000))
    def test_row_quotes_belong_to_the_inventory_before_the_fills(self, q_max, A, seed):
        # u_a and u_b are posted at the inventory held when the step starts;
        # inventory is the step's end value, after ask_fill and bid_fill.
        # In the runs measured the quotes kept q_max 2 off its bounds, so
        # empty sides come from q_max 1 (138 of 1200 rows at A = 1e6)
        for row in _exported_rows(q_max, seed, A):
            before = int(row["inventory"]) - int(row["bid_fill"]) + int(row["ask_fill"])
            assert (row["u_b"] == "") == (before == q_max), row
            assert (row["u_a"] == "") == (before == -q_max), row

    def test_a_row_can_show_an_empty_bid_inside_the_bounds(self):
        # the lively market at q_max 1, where a bound is reached often: some
        # rows leave the bound by this step's ask fill, so an empty bid sits
        # next to an end-of-step inventory 0
        rows = _exported_rows(1, 7)
        assert len(rows) == 1200
        assert any(row["u_b"] == "" and row["inventory"] == "0" for row in rows)


def _exported_rows(q_max, seed, A=20000.0):
    """Every row of the 3 paths that `rsgames simulate` exports for the
    lively market at this q_max and order-flow scale A, over 400 steps."""
    with open(os.path.join(CONFIGS, "simulate_lively.yaml")) as fh:
        tree = yaml.safe_load(fh)
    tree["as_model"].update(q_max=q_max, A=A)
    tree["sim"].update(seed=seed, export_paths=True, n_export_paths=3)
    with tempfile.TemporaryDirectory() as tmp:
        config, out = os.path.join(tmp, "sim.yaml"), os.path.join(tmp, "out")
        with open(config, "w") as fh:
            yaml.safe_dump(tree, fh)
        assert cli.main(["simulate", "--config", config, "--out", out,
                         "--paths", "3", "--steps", "400"]) == 0
        rows = []
        for p in range(3):
            with open(os.path.join(out, f"path_{p:04d}.csv"), newline="") as fh:
                rows += list(csv.DictReader(fh))
    return rows


class TestLookups:
    @settings(max_examples=30, deadline=None)
    @given(sim_cases())
    def test_fill_rows_are_the_intensity_of_the_quotes(self, case):
        # catches: dt dropped from the fill probability
        config = case[0]
        dt = config.model.horizon / config.n_steps
        for policy in _policies(config):
            np.testing.assert_array_equal(
                policy.table[2, ..., 1:],
                fill_probability_oracle(config.model, policy.ask[..., 1:], dt))
            np.testing.assert_array_equal(
                policy.table[3, ..., :-1],
                fill_probability_oracle(config.model, policy.bid[..., :-1], dt))

    @settings(max_examples=30, deadline=None)
    @given(sim_cases())
    def test_only_the_bound_sides_never_fill(self, case):
        # catches: the bid's bound written at level 0 instead of the last
        # level.  A side that does not quote has a NaN quote and fill
        # probability, which no uniform draw falls below
        policies = _policies(case[0])
        bound = np.zeros((2,) + policies[0].ask.shape, dtype=bool)
        bound[0, ..., 0] = True  # no ask at q = -q_max
        bound[1, ..., -1] = True  # no bid at q = +q_max
        for policy in policies:
            for rows in (policy.table[:2], policy.table[2:]):
                np.testing.assert_array_equal(np.isnan(rows), bound)
            assert (policy.table[2:][~bound] >= 0.0).all()


class TestPolicyChecks:
    def test_policy_for_another_grid_is_rejected(self, lively_as_model):
        config = SimConfig(model=lively_as_model, n_paths=3, n_steps=400, seed=2)
        uniforms, normals = sim.generate_streams(sim.PathStreams(2, 3, 400))
        for steps in (64, 401, 800):
            policy = sim.make_policy(lively_as_model, "vanilla", steps)
            with pytest.raises(ValueError, match="expected"):
                replay_whole(config, [policy], uniforms, normals)

    # a policy made on another horizon is priced on another dt
    @pytest.mark.parametrize("field", ["A", "k", pytest.param("horizon", id="dt")])
    def test_policy_for_another_market_is_rejected(self, lively_as_model, field):
        # catches: the market check removed, which would replay fills at the
        # policy's intensity instead of the config's
        config = SimConfig(model=lively_as_model, n_paths=3, n_steps=400, seed=2)
        uniforms, normals = sim.generate_streams(sim.PathStreams(2, 3, 400))
        other = dataclasses.replace(
            lively_as_model, **{field: 1.5 * getattr(lively_as_model, field)})
        policy = sim.make_policy(other, "vanilla", 400)
        with pytest.raises(ValueError, match="priced on"):
            replay_whole(config, [policy], uniforms, normals)

    def test_nan_quote_is_a_numerical_error(self, lively_as_model):
        config = SimConfig(model=lively_as_model, n_paths=3, n_steps=400, seed=2)
        uniforms, normals = sim.generate_streams(sim.PathStreams(2, 3, 400))
        for side in ("ask", "bid"):
            policy = sim.make_policy(lively_as_model, "vanilla", 400)
            getattr(policy, side)[200, 1, lively_as_model.q_max] = np.nan
            with pytest.raises(NumericalError):
                replay_whole(config, [policy], uniforms, normals)

    @pytest.mark.parametrize("row, level", [(0, 0), (1, -1), (2, 0), (3, -1)],
                             ids=["ask", "bid", "p_ask", "p_bid"])
    @pytest.mark.parametrize("value", [0.0, 1.0, np.inf])
    def test_a_side_quoted_at_its_bound_is_a_numerical_error(
            self, lively_as_model, row, level, value):
        # catches: a policy check that refuses only NaN or inf, which lets a
        # finite entry at a bound reach the clipped lookups.  There, an ask
        # fill probability of 1 on every cell fills the ask at every step
        # and, from q = -q_max on, reads cells of other (node, regime) rows:
        # on this market, 5 paths of 400 steps at seed 2 ended at
        # inventories -381 to -387 with no error
        config = SimConfig(model=lively_as_model, n_paths=3, n_steps=400, seed=2)
        uniforms, normals = sim.generate_streams(sim.PathStreams(2, 3, 400))
        policy = sim.make_policy(lively_as_model, "vanilla", 400)
        policy.table[row, ..., level] = value
        with pytest.raises(NumericalError, match="at its bound"):
            replay_whole(config, [policy], uniforms, normals)

    @pytest.mark.parametrize("fault, code", [("grid", 2), ("nan", 3), ("bound", 3)])
    def test_cli_exit_codes(self, monkeypatch, tmp_path, capsys, fault, code):
        real_make_policy = sim.make_policy

        def faulty(model, kind, n_steps):
            if fault == "grid":
                return real_make_policy(model, kind, n_steps + 1)
            policy = real_make_policy(model, kind, n_steps)
            if fault == "nan":
                policy.ask[1, 0, model.q_max] = np.nan
            else:  # an ask that fills on every cell, its bound included
                policy.table[2] = 1.0
            return policy

        monkeypatch.setattr(sim, "make_policy", faulty)
        rc = cli.main(["simulate", "--out", str(tmp_path), "--paths", "2",
                       "--steps", "20"])
        assert rc == code
        assert not (tmp_path / "sim_report.json").exists()
