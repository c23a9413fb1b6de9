"""In-memory spans around rsgames' public functions, for the traced run.

The program itself has no spans yet, so the benchmark wraps module
attributes from outside: every call into a wrapped function records
(name, start, end, parent) in memory, and a few wrappers also count work
(rows written, path-steps replayed, saddle paths taken).  Wrapping a
module attribute reaches callers that look the name up at call time
(`as_game.build_theta_table(...)` in sim and cli, the module globals of
calib.calibrate); `hierarchy.solve_hierarchy` binds its saddle solver at
definition time, so the lq_hier workload passes the wrapped solver
through its `saddle` parameter instead.  numkit is measured through its
callers.
"""

import contextlib
import importlib
import time

import numpy as np


def _has_pure_saddle(M):
    return bool(np.any((M == M.max(axis=0)) & (M == M.min(axis=1)[:, None])))


def _saddle_path(args, kwargs, result):
    """Which branch of game_core.solve_zero_sum's auto rule the game takes."""
    M = (args[0] if args else kwargs["game"]).payoff
    if M.shape == (1, 1) or _has_pure_saddle(M):
        return {"game_core.saddle_pure": 1}
    if M.shape == (2, 2):
        return {"game_core.saddle_2x2": 1}
    return {"game_core.saddle_lp": 1}


def _rows(args, kwargs, result):
    return {"cli.csv_rows": len(args[2] if len(args) > 2 else kwargs["rows"])}


def _path_steps(args, kwargs, result):
    uniforms = args[2] if len(args) > 2 else kwargs["uniforms"]
    return {"sim.path_steps": uniforms.shape[0] * uniforms.shape[1]}


# (module, function, counter or None); a counter maps (args, kwargs,
# result) to counts added at that call
TRACED = [
    ("sim", "generate_streams",
     lambda a, kw, r: {"sim.stream_bytes": 32 * r[1].size}),
    ("sim", "run_paths", _path_steps),
    ("sim", "make_policy", None),
    ("as_game", "build_theta_table",
     lambda a, kw, r: {"as_game.theta_cells": r.theta.size}),
    ("as_game", "quote_surfaces", None),
    ("as_game", "risk_factor", None),
    ("as_game", "solve_macro_as",
     lambda a, kw, r: {"as_game.nonbilinear_nodes": r.meta["nonbilinear_nodes"]}),
    ("cli", "write_csv", _rows),
    ("cli", "cmd_mm", None),
    ("hierarchy", "solve_hierarchy", None),
    ("hierarchy", "turnpike_report", None),
    ("mjls_inner", "riccati_step", None),
    ("outer_layer", "node_equilibrium", None),
    ("outer_layer", "k_step", None),
    ("outer_layer", "laplacian_spectral_gap", None),
    ("game_core", "solve_zero_sum", _saddle_path),
    ("calib", "load_ohlcv_csv", lambda a, kw, r: {"calib.bars": len(r.close)}),
    ("calib", "rolling_volatility", None),
    ("calib", "kmeans_1d", None),
    ("calib", "estimate_generator", None),
]

# per-layer metrics, per operation; names ending in .s are seconds inside
# that function's spans, .self_s the same minus its child spans, .calls
# the span count, the rest are counts added by the counters above
PER_LAYER = [
    ("sim.generate_streams.s", "s"),
    ("sim.stream_bytes", "bytes"),
    ("sim.run_paths.s", "s"),
    ("sim.run_paths.calls", "count"),
    ("sim.path_steps", "count"),
    ("sim.make_policy.s", "s"),
    ("as_game.build_theta_table.s", "s"),
    ("as_game.build_theta_table.calls", "count"),
    ("as_game.theta_cells", "count"),
    ("as_game.quote_surfaces.s", "s"),
    ("as_game.risk_factor.s", "s"),
    ("as_game.risk_factor.calls", "count"),
    ("as_game.solve_macro_as.s", "s"),
    ("as_game.solve_macro_as.self_s", "s"),
    ("as_game.nonbilinear_nodes", "count"),
    ("cli.write_csv.s", "s"),
    ("cli.csv_rows", "count"),
    ("cli.cmd_mm.self_s", "s"),
    ("hierarchy.solve_hierarchy.s", "s"),
    ("hierarchy.solve_hierarchy.self_s", "s"),
    ("hierarchy.turnpike_report.s", "s"),
    ("mjls_inner.riccati_step.s", "s"),
    ("mjls_inner.riccati_step.calls", "count"),
    ("outer_layer.node_equilibrium.s", "s"),
    ("outer_layer.node_equilibrium.self_s", "s"),
    ("outer_layer.node_equilibrium.calls", "count"),
    ("outer_layer.k_step.s", "s"),
    ("outer_layer.laplacian_spectral_gap.s", "s"),
    ("game_core.solve_zero_sum.s", "s"),
    ("game_core.solve_zero_sum.calls", "count"),
    ("game_core.saddle_pure", "count"),
    ("game_core.saddle_2x2", "count"),
    ("game_core.saddle_lp", "count"),
    ("game_core.lp_share", "ratio"),
    ("calib.load_ohlcv_csv.s", "s"),
    ("calib.rolling_volatility.s", "s"),
    ("calib.kmeans_1d.s", "s"),
    ("calib.estimate_generator.s", "s"),
    ("calib.bars", "count"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    """Spans and counts of one operation."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.counts = {}
        self._stack = []

    def wrap(self, name, fn, counter=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, None, None, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            self.spans[index][1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace the TRACED module attributes by wrappers, restoring them
        on exit."""
        saved = []
        try:
            for module_name, fn_name, counter in TRACED:
                module = importlib.import_module(f"rsgames.{module_name}")
                original = getattr(module, fn_name)
                saved.append((module, fn_name, original))
                setattr(module, fn_name,
                        self.wrap(f"{module_name}.{fn_name}", original, counter))
            yield
        finally:
            for module, fn_name, original in reversed(saved):
                setattr(module, fn_name, original)

    def metrics(self):
        """Per-layer metrics of this operation (PER_LAYER names only)."""
        total, child = {}, {}
        calls = {}
        for name, start, end, parent in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (end - start)
        self_time = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child.get(index, 0.0)
        out = {}
        for metric, _ in PER_LAYER:
            stem, _, kind = metric.rpartition(".")
            if kind == "s":
                out[metric] = total.get(stem, 0.0)
            elif kind == "self_s":
                out[metric] = self_time.get(stem, 0.0)
            elif kind == "calls":
                out[metric] = calls.get(stem, 0)
            else:
                out[metric] = self.counts.get(metric, 0)
        base = out["game_core.solve_zero_sum.calls"]
        out["game_core.lp_share"] = out["game_core.saddle_lp"] / base if base else 0.0
        return out
