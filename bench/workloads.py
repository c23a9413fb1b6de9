"""The four benchmark workloads: seeded inputs, one operation, output checks.

Each workload class is built from (seed, workdir).  Building imports the
rsgames modules it drives and writes its generated inputs under workdir;
that is what setup_s times.  Then:

    run()       one operation through the package's public entry points
    digest()    sha256 of the last operation's outputs
    check()     list of failed output checks on the last operation (empty
                when correct); run outside the timed region

The program sees only the inputs generated here.  Sizes are module
constants so that every run of one workload does the same amount of work
whatever the seed.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil

import numpy as np
import yaml

# The paper's reference market (configs/simulate_reference.yaml), copied so
# that editing the example config does not change the benchmark.
REFERENCE_AS_MODEL = {
    "gamma": 0.02,
    "xi": 10.0,
    "A": 250000.0,
    "k": 10.0,
    "sigmas": [0.2253, 0.5305],
    "q_max": 10,
    "horizon_hours": 12.0,
    "dt_seconds": 15.0,
    "mu_per_day": [[0.0, 30.0], [30.0, 0.0]],
    "s0": 90863.90,
}

SIM_PATHS = 1000          # x 2880 steps from the reference horizon and dt
MM_Q_MAX = 150            # theta-table dimension N * (2 q_max + 1) = 602
MM_STEPS = 128
MM_MACRO_STEPS = 200
MM_XI_SWEEP = [0.0, 20.0]
LQ_REGIMES = 8
LQ_STATES = 30
LQ_DISTURBANCES = 5
LQ_ACTIONS = 3
LQ_PURE_REGIMES = 2       # regimes whose local games always have a pure saddle
LQ_STEPS = 500
LQ_HORIZON = 5.0
CALIB_BARS = 50000
CALIB_BAR_SECONDS = 1800
CALIB_SIGMAS = (0.3, 0.9)            # annualized, before seeded jitter
CALIB_RATES_PER_DAY = (0.15, 0.25)   # 0 -> 1 and 1 -> 0, before jitter
CALIB_SIGMA_BAND = 0.2               # recovered sigma within +-20 % of truth
CALIB_RATE_BAND = (0.5, 2.0)         # recovered rate within this factor

THETA_REL_TOL = 1e-8
GAP_TOL = 1e-7
RICCATI_TOL = 1e-10


class OperationFailed(RuntimeError):
    """The program returned a failure code instead of raising."""


def _rng(seed, workload):
    # one stream per workload, so two workloads never share inputs
    return np.random.default_rng([seed, sum(map(ord, workload))])


def _write_yaml(path, tree):
    with open(path, "w") as handle:
        yaml.safe_dump(tree, handle, sort_keys=True)


def _digest_files(directory):
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(directory, name), "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()


def _all_finite(tree):
    """True when every number in a JSON tree is finite and nothing is null."""
    if isinstance(tree, dict):
        return all(_all_finite(v) for v in tree.values())
    if isinstance(tree, list):
        return all(_all_finite(v) for v in tree)
    if isinstance(tree, bool) or isinstance(tree, str):
        return True
    return isinstance(tree, (int, float)) and math.isfinite(tree)


class _CliWorkload:
    """A workload that is one in-process `rsgames <command>` invocation."""

    def __init__(self, workdir):
        from rsgames import cli

        self.cli = cli
        self.workdir = workdir
        self.out = os.path.join(workdir, "out")

    def argv(self):
        raise NotImplementedError

    def run(self):
        # the out directory is emptied first so a missing file cannot pass
        # as the previous operation's output
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = self.cli.main(self.argv())
        if rc != 0:
            raise OperationFailed(f"rsgames exited {rc}: {stderr.getvalue().strip()}")

    def digest(self):
        return _digest_files(self.out)

    def _json(self, name):
        with open(os.path.join(self.out, name)) as handle:
            return json.load(handle)


class SimRef(_CliWorkload):
    """`rsgames simulate` on the paper's reference market."""

    name = "sim_ref"

    def __init__(self, seed, workdir):
        super().__init__(workdir)
        self.seed = seed
        self.config = os.path.join(workdir, "simulate.yaml")
        _write_yaml(self.config, {
            "as_model": REFERENCE_AS_MODEL,
            "sim": {"n_paths": SIM_PATHS, "seed": seed, "initial_regime": 0,
                    "predator": True, "export_paths": False},
        })
        steps = round(REFERENCE_AS_MODEL["horizon_hours"] * 3600
                      / REFERENCE_AS_MODEL["dt_seconds"])
        self.sizes = {"n_paths": SIM_PATHS, "n_steps": steps,
                      "stream_bytes": 32 * SIM_PATHS * steps}
        self.inputs = {"sim_seed": seed}

    def argv(self):
        return ["simulate", "--config", self.config, "--out", self.out]

    def check(self):
        report = self._json("sim_report.json")
        failures = []
        if not _all_finite(report):
            failures.append("sim_report.json has a non-finite or null value")
        for key, want in (("seed", self.seed), ("n_paths", self.sizes["n_paths"]),
                          ("n_steps", self.sizes["n_steps"])):
            if report.get(key) != want:
                failures.append(f"sim_report.json {key}={report.get(key)} != {want}")
        for kind, stats in report.get("strategies", {}).items():
            for side in ("mean_fills_ask", "mean_fills_bid"):
                if not stats.get(side, 0) > 0:
                    failures.append(f"{kind} {side} = {stats.get(side)} is not above zero")
        if set(report.get("strategies", {})) != {"vanilla", "equilibrium"}:
            failures.append("sim_report.json lacks the two strategies")
        return failures


class MmDeep(_CliWorkload):
    """`rsgames mm` at a large inventory bound, with every report enabled."""

    name = "mm_deep"

    def __init__(self, seed, workdir):
        super().__init__(workdir)
        rng = _rng(seed, self.name)
        sigmas = [round(s * rng.uniform(0.95, 1.05), 6)
                  for s in REFERENCE_AS_MODEL["sigmas"]]
        lam_att = round(float(rng.uniform(5.0, 15.0)), 6)
        lam_stab = round(float(rng.uniform(5.0, 15.0)), 6)
        inventory = int(rng.integers(-5, 6))
        self.config = os.path.join(workdir, "mm.yaml")
        _write_yaml(self.config, {
            "as_model": {**REFERENCE_AS_MODEL, "q_max": MM_Q_MAX, "sigmas": sigmas},
            "mm": {
                "n_steps": MM_STEPS,
                "expansion_report": True,
                "xi_sweep": MM_XI_SWEEP,
                "macro": {
                    "enabled": True, "inventory": inventory,
                    "n_steps": MM_MACRO_STEPS, "mode": "affine",
                    "affine": {
                        "mu0": REFERENCE_AS_MODEL["mu_per_day"],
                        "lam_att": [[0.0, lam_att], [lam_att, 0.0]],
                        "lam_stab": [[0.0, lam_stab], [lam_stab, 0.0]],
                    },
                },
            },
        })
        self.check_nodes = sorted(rng.choice(np.arange(1, MM_STEPS + 1), 3,
                                             replace=False).tolist())
        n_levels = 2 * MM_Q_MAX + 1
        self.sizes = {"q_max": MM_Q_MAX, "table_dim": 2 * n_levels,
                      "n_steps": MM_STEPS, "macro_steps": MM_MACRO_STEPS,
                      "xi_sweep": MM_XI_SWEEP,
                      "theta_rows": (MM_STEPS + 1) * 2 * n_levels}
        self.inputs = {"sigmas": sigmas, "lam_att_per_day": lam_att,
                       "lam_stab_per_day": lam_stab, "inventory": inventory,
                       "check_nodes": self.check_nodes}

    def argv(self):
        return ["mm", "--config", self.config, "--out", self.out]

    def _read_table(self, model):
        n_nodes, N, nq = MM_STEPS + 1, model.n_regimes, model.n_levels
        theta = np.empty((n_nodes, N, nq))
        ask = np.full((n_nodes, N, nq), np.nan)
        bid = np.full((n_nodes, N, nq), np.nan)
        with open(os.path.join(self.out, "theta_quotes.csv"), newline="") as handle:
            rows = list(csv.DictReader(handle))
        if len(rows) != theta.size:
            raise ValueError(f"theta_quotes.csv has {len(rows)} rows, expected {theta.size}")
        for n, row in enumerate(rows):
            idx, rest = divmod(n, N * nq)
            i, qi = divmod(rest, nq)
            if int(row["regime"]) != i or int(row["q"]) != qi - model.q_max:
                raise ValueError(f"theta_quotes.csv row {n + 2} is out of order")
            theta[idx, i, qi] = float(row["theta"])
            if row["u_a"]:
                ask[idx, i, qi] = float(row["u_a"])
            if row["u_b"]:
                bid[idx, i, qi] = float(row["u_b"])
        return theta, ask, bid

    def check(self):
        from rsgames import as_game

        model = self.cli.build_as_model(self.cli.load_config(self.config, "mm")["as_model"])
        failures = []
        try:
            theta, ask, bid = self._read_table(model)
        except (ValueError, KeyError) as exc:
            return [f"theta_quotes.csv: {exc}"]
        for idx in self.check_nodes:
            tau = model.horizon * idx / MM_STEPS
            exact = as_game.solve_theta_exact(model, None, tau)
            err = np.abs(theta[idx] - exact).max() / max(1.0, np.abs(exact).max())
            if not err <= THETA_REL_TOL:
                failures.append(f"theta at node {idx} is {err:.2e} (relative) "
                                "from solve_theta_exact")
        # per-side first-order condition; the ask is absent at q = -q_max,
        # the bid at q = +q_max
        base = model.base_offset
        want_ask = np.maximum(base + theta[:, :, :-1] - theta[:, :, 1:], 0.0)
        want_bid = np.maximum(base + theta[:, :, 1:] - theta[:, :, :-1], 0.0)
        scale = 1e-12 * max(1.0, np.abs(theta).max())
        if not (np.isnan(ask[:, :, 0]).all() and np.isnan(bid[:, :, -1]).all()):
            failures.append("a quote is given on a side that is at its bound")
        if not np.abs(ask[:, :, 1:] - want_ask).max() <= scale:
            failures.append("ask quotes break the first-order condition")
        if not np.abs(bid[:, :, :-1] - want_bid).max() <= scale:
            failures.append("bid quotes break the first-order condition")
        report = self._json("expansion_report.json")
        if not _all_finite(report):
            failures.append("expansion_report.json is not finite")
        if report.get("n_points") != MM_STEPS * model.n_regimes * model.n_levels:
            failures.append(f"expansion_report.json n_points = {report.get('n_points')}")
        for name, rows in (("xi_sweep.csv", len(MM_XI_SWEEP)),
                           ("macro_values.csv", (MM_MACRO_STEPS + 1) * model.n_regimes)):
            with open(os.path.join(self.out, name)) as handle:
                lines = handle.read().splitlines()[1:]
            values = [float(x) for line in lines for x in line.split(",")]
            if len(lines) != rows or not all(map(math.isfinite, values)):
                failures.append(f"{name} has {len(lines)} rows (want {rows}) "
                                "or a non-finite value")
        return failures


class LqHier:
    """`hierarchy.solve_hierarchy` then `hierarchy.turnpike_report` on a
    generated N=8, n=30 model with a general 3x3 bilinear Lambda.

    Called through the library: at this size `rsgames solve` would spend
    its time writing ~3.6M rows of riccati_p.csv.  The local games are
    built so that the saddle path each takes does not depend on the seed:
    the first LQ_PURE_REGIMES regimes get a positive rank-one Lambda (a
    pure saddle for either sign of the stability gaps), the rest a
    perturbed rock-paper-scissors Lambda (no pure saddle for either sign,
    so the LP runs).
    """

    name = "lq_hier"

    def __init__(self, seed, workdir):
        from rsgames import game_core, hierarchy, mjls_inner, outer_layer
        from rsgames.numkit import TimeGrid

        self.hierarchy, self.game_core = hierarchy, game_core
        self.mjls_inner, self.outer_layer = mjls_inner, outer_layer
        rng = _rng(seed, self.name)
        N, n, p, na = LQ_REGIMES, LQ_STATES, LQ_DISTURBANCES, LQ_ACTIONS
        eye = np.eye(n)
        G = rng.standard_normal((N, n, n))
        Q = G @ np.swapaxes(G, 1, 2) / n + 0.5 * eye
        # B R^-1 B' dominates D S^-1 D', so the Riccati flow stays bounded
        self.model = mjls_inner.RegimeLQModel(
            A=-0.5 * eye + 0.3 / math.sqrt(n) * rng.standard_normal((N, n, n)),
            B=eye + 0.1 * rng.standard_normal((N, n, n)),
            D=0.3 / math.sqrt(n) * rng.standard_normal((N, n, p)),
            Sigma=0.2 / math.sqrt(n) * rng.standard_normal((N, n, n)),
            Q=Q,
            R=rng.uniform(0.5, 2.0, N)[:, None, None] * eye,
            S=4.0 * np.broadcast_to(np.eye(p), (N, p, p)),
            Q_T=0.5 * Q,
        )
        cyclic = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])
        weight = rng.uniform(0.2, 0.4, (N, N))
        mu_bar = rng.uniform(0.6, 1.2, (N, N))
        np.fill_diagonal(mu_bar, 0.0)
        Lam = np.zeros((N, N, na, na))
        for i in range(N):
            if i < LQ_PURE_REGIMES:
                base = np.outer(rng.uniform(0.5, 1.5, na), rng.uniform(0.5, 1.5, na))
            else:
                # |perturbation| < 1 keeps every column max above every row min
                base = cyclic + rng.uniform(-0.3, 0.3, (na, na))
            for j in range(N):
                if j != i:
                    Lam[i, j] = weight[i, j] * base
        # mu_bar >= 0.6 > 1.3 * 0.4 >= -min Lambda: rates stay nonnegative
        self.spec = outer_layer.OuterGameSpec(mu_bar=mu_bar, Lambda=Lam)
        self.grid = TimeGrid(0.0, LQ_HORIZON, LQ_STEPS)
        self.check_nodes = sorted({0, LQ_STEPS, *rng.choice(LQ_STEPS + 1, 6).tolist()})
        self.sol = self.report = None
        self.sizes = {"n_regimes": N, "n_states": n, "n_disturbances": p,
                      "actions": [na, na], "n_steps": LQ_STEPS,
                      "horizon": LQ_HORIZON, "pure_regimes": LQ_PURE_REGIMES}
        self.inputs = {"check_nodes": self.check_nodes}

    def run(self):
        self.sol = self.report = None
        # the saddle solver goes through the parameter solve_hierarchy binds
        # at definition time; read here, it is the traced one when tracing
        self.sol = self.hierarchy.solve_hierarchy(
            self.model, self.spec, self.grid, saddle=self.game_core.solve_zero_sum
        )
        self.report = self.hierarchy.turnpike_report(self.sol)

    def digest(self):
        h = hashlib.sha256()
        sol = self.sol
        for arr in (sol.riccati.P, sol.riccati.r, sol.outer.k, sol.outer.f,
                    sol.outer.g, sol.outer.mu):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(json.dumps(self.report, sort_keys=True).encode())
        return h.hexdigest()

    def check(self):
        sol, failures = self.sol, []
        ref = self.mjls_inner.solve_coupled_riccati(self.model, sol.outer.mu, self.grid)
        err = np.abs(ref.P - sol.riccati.P).max() / max(1.0, np.abs(ref.P).max())
        if not err <= RICCATI_TOL:
            failures.append(f"solve_coupled_riccati differs from the hierarchy's P "
                            f"by {err:.2e} (relative)")
        worst = 0.0
        for idx in self.check_nodes:
            for i in range(LQ_REGIMES):
                game = self.outer_layer.local_game_matrix(sol.outer.k[idx], self.spec, i)
                worst = max(worst, self.game_core.best_response_gap(
                    game, sol.outer.f[idx, i], sol.outer.g[idx, i]))
        if not worst <= GAP_TOL:
            failures.append(f"best_response_gap {worst:.2e} > {GAP_TOL:g}")
        numbers = {k: v for k, v in self.report.items()
                   if k != "warnings" and not isinstance(v, bool) and v is not None}
        if not _all_finite(numbers):
            failures.append("turnpike report has a non-finite value")
        return failures


class CalibBars(_CliWorkload):
    """`rsgames calibrate` on synthetic 30-minute bars from a known chain."""

    name = "calib_bars"

    def __init__(self, seed, workdir):
        super().__init__(workdir)
        rng = _rng(seed, self.name)
        self.sigmas = np.array(CALIB_SIGMAS) * rng.uniform(0.9, 1.1, 2)
        a, b = np.array(CALIB_RATES_PER_DAY) * rng.uniform(0.8, 1.2, 2)
        self.generator = np.array([[-a, a], [b, -b]])
        # exact one-bar leave probabilities of the two-state chain
        total = a + b
        bar_days = CALIB_BAR_SECONDS / 86400.0
        p_leave = np.array([a, b]) / total * (1.0 - math.exp(-total * bar_days))
        u = rng.random(CALIB_BARS)
        labels = np.empty(CALIB_BARS, dtype=np.int64)
        state = 0
        for t in range(CALIB_BARS):
            labels[t] = state
            if u[t] < p_leave[state]:
                state = 1 - state
        annualization = 365.0 * 86400.0 / CALIB_BAR_SECONDS
        returns = self.sigmas[labels] * rng.standard_normal(CALIB_BARS) / math.sqrt(annualization)
        close = 90000.0 * np.exp(np.cumsum(returns))
        opens = np.concatenate([[90000.0], close[:-1]])
        volume = rng.uniform(50.0, 150.0, CALIB_BARS)
        self.csv = os.path.join(workdir, "bars.csv")
        # .tolist() gives Python floats, whose repr calib.load_ohlcv_csv parses
        with open(self.csv, "w") as handle:
            handle.write("timestamp,open,high,low,close,volume\n")
            for t, (o, c, v) in enumerate(zip(opens.tolist(), close.tolist(),
                                              volume.tolist())):
                handle.write(f"{1700000000 + CALIB_BAR_SECONDS * t},{o!r},"
                             f"{max(o, c) * 1.0005!r},{min(o, c) * 0.9995!r},"
                             f"{c!r},{v!r}\n")
        self.config = os.path.join(workdir, "calibrate.yaml")
        _write_yaml(self.config, {"calibrate": {
            "window": 48, "annualization": annualization, "n_regimes": 2}})
        self.sizes = {"bars": CALIB_BARS, "bar_seconds": CALIB_BAR_SECONDS,
                      "window": 48}
        self.inputs = {
            "generator": "two-state chain, exact one-bar transitions; "
                         "log returns sigma_i * N(0, 1) / sqrt(bars per year)",
            "true_sigmas": self.sigmas.tolist(),
            "true_generator_per_day": self.generator.tolist(),
            "switches": int(np.count_nonzero(np.diff(labels))),
        }

    def argv(self):
        return ["calibrate", self.csv, "--config", self.config, "--out", self.out]

    def check(self):
        result = self._json("calibration.json")
        failures = []
        sigmas = np.array(result["sigmas"])
        G = np.array(result["generator_per_day"])
        if sigmas.shape != (2,) or G.shape != (2, 2):
            return [f"calibration.json shapes {sigmas.shape}, {G.shape}"]
        rel = np.abs(sigmas / self.sigmas - 1.0)
        if not rel.max() <= CALIB_SIGMA_BAND:
            failures.append(f"sigmas {sigmas.tolist()} not within "
                            f"{CALIB_SIGMA_BAND:.0%} of {self.sigmas.tolist()}")
        ratio = np.array([G[0, 1] / self.generator[0, 1], G[1, 0] / self.generator[1, 0]])
        lo, hi = CALIB_RATE_BAND
        if not (np.all(ratio >= lo) and np.all(ratio <= hi)):
            failures.append(f"rates {[G[0, 1], G[1, 0]]} not within x{lo}..x{hi} of "
                            f"{[self.generator[0, 1], self.generator[1, 0]]}")
        if not np.abs(G.sum(axis=1)).max() <= 1e-9 * max(1.0, np.abs(G).max()):
            failures.append("generator rows do not sum to zero")
        return failures


WORKLOADS = {cls.name: cls for cls in (SimRef, MmDeep, LqHier, CalibBars)}
