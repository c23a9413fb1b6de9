"""Command-line front end: calibrate, solve, mm, simulate.

Configs are YAML trees; unknown keys are rejected before any compute and
every output file carries a schema_version.  Exit codes: 0 success,
2 config/validation error, 3 numerical failure.
"""

import argparse
import dataclasses
import json
import os
import sys
import tempfile

import numpy as np
import yaml

from . import as_game, calib, hierarchy, mjls_inner, outer_layer, sim
from .as_game import ASModel, SECONDS_PER_YEAR, HOURS_PER_YEAR
from .numkit import NumericalError, TimeGrid

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------- config ---

DEFAULT_AS_MODEL = {
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

DEFAULT_SIM = {
    "n_paths": 1000,
    "seed": 20251212,
    "initial_regime": 0,
    "predator": True,
    "export_paths": False,
    "n_export_paths": 1,
}

DEFAULT_CALIBRATE = {
    "window": 48,
    "annualization": 365.0 * 48.0,
    "n_regimes": 2,
}

DEFAULT_MM = {
    "n_steps": 512,
    "expansion_report": True,
    "xi_sweep": [],
    "macro": None,
}

ALLOWED_KEYS = {
    "as_model": set(DEFAULT_AS_MODEL),
    "sim": set(DEFAULT_SIM),
    "calibrate": set(DEFAULT_CALIBRATE),
    "mm": set(DEFAULT_MM),
    "grid": {"t0", "T", "n_steps"},
    "lq": {"A", "B", "D", "Sigma", "Q", "R", "S", "Q_T"},
    "outer": {"mu_bar", "Lambda", "affine", "rho_f", "rho_g",
              "clamp_efforts", "flip_bang_bang"},
    "macro": {"enabled", "inventory", "n_steps", "mode", "affine"},
    "affine": {"mu0", "lam_att", "lam_stab"},
}


def _check_keys(section: str, tree: dict, path: str):
    allowed = ALLOWED_KEYS[section]
    for key in tree:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}.{key}")


def load_config(path, command: str) -> dict:
    if path is None:
        cfg = {}
    else:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path) as handle:
            try:
                cfg = yaml.safe_load(handle) or {}
            except yaml.YAMLError as exc:
                raise ConfigError(f"cannot parse {path}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError(f"config root must be a mapping, got {type(cfg)}")

    sections = {
        "calibrate": {"calibrate"},
        "solve": {"grid", "lq", "outer"},
        "mm": {"as_model", "mm"},
        "simulate": {"as_model", "sim"},
    }[command]
    for key in cfg:
        if key not in sections:
            raise ConfigError(f"unknown section {key!r} for command {command!r}")

    merged = {}
    for section in sections:
        given = cfg.get(section, {}) or {}
        if not isinstance(given, dict):
            raise ConfigError(f"section {section!r} must be a mapping")
        if section in ALLOWED_KEYS:
            _check_keys(section, given, section)
        defaults = {
            "as_model": DEFAULT_AS_MODEL,
            "sim": DEFAULT_SIM,
            "calibrate": DEFAULT_CALIBRATE,
            "mm": DEFAULT_MM,
        }.get(section)
        if defaults is not None:
            merged[section] = {**defaults, **given}
        else:
            merged[section] = dict(given)
    return merged


def build_as_model(tree: dict) -> ASModel:
    _check_keys("as_model", tree, "as_model")
    mu = np.asarray(tree["mu_per_day"], dtype=float) * 365.0
    try:
        return ASModel(
            gamma=float(tree["gamma"]),
            xi=float(tree["xi"]),
            A=float(tree["A"]),
            k=float(tree["k"]),
            sigmas=np.asarray(tree["sigmas"], dtype=float),
            q_max=int(tree["q_max"]),
            horizon=float(tree["horizon_hours"]) / HOURS_PER_YEAR,
            rates=mu,
            s0=float(tree["s0"]),
            dt=float(tree["dt_seconds"]) / SECONDS_PER_YEAR,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"as_model: {exc}") from exc


def build_grid(tree: dict) -> TimeGrid:
    _check_keys("grid", tree, "grid")
    try:
        return TimeGrid(t0=float(tree.get("t0", 0.0)), T=float(tree["T"]),
                        n_steps=int(tree["n_steps"]))
    except KeyError as exc:
        raise ConfigError(f"grid: missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"grid: {exc}") from exc


def build_lq_model(tree: dict) -> mjls_inner.RegimeLQModel:
    _check_keys("lq", tree, "lq")
    try:
        return mjls_inner.RegimeLQModel(
            **{name: np.asarray(tree[name], dtype=float)
               for name in ("A", "B", "D", "Sigma", "Q", "R", "S", "Q_T")}
        )
    except KeyError as exc:
        raise ConfigError(f"lq: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"lq: {exc}") from exc


def build_outer_spec(tree: dict, flip=None, clamp=None) -> outer_layer.OuterGameSpec:
    _check_keys("outer", tree, "outer")
    kwargs = {
        "rho_f": float(tree.get("rho_f", 1.0)),
        "rho_g": float(tree.get("rho_g", 1.0)),
        "clamp_efforts": bool(tree.get("clamp_efforts", True)),
        "flip_bang_bang": bool(tree.get("flip_bang_bang", False)),
    }
    if flip is not None:
        kwargs["flip_bang_bang"] = flip
    if clamp is not None:
        kwargs["clamp_efforts"] = clamp
    try:
        if "affine" in tree and tree["affine"]:
            _check_keys("affine", tree["affine"], "outer.affine")
            aff = tree["affine"]
            return outer_layer.OuterGameSpec.from_affine(
                np.asarray(aff["mu0"], dtype=float),
                np.asarray(aff["lam_att"], dtype=float),
                np.asarray(aff["lam_stab"], dtype=float),
                **kwargs,
            )
        return outer_layer.OuterGameSpec(
            mu_bar=np.asarray(tree["mu_bar"], dtype=float),
            Lambda=np.asarray(tree["Lambda"], dtype=float),
            **kwargs,
        )
    except KeyError as exc:
        raise ConfigError(f"outer: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"outer: {exc}") from exc


# --------------------------------------------------------------- outputs ---

def _atomic_write(path: str, text: str):
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, payload: dict):
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_csv(path: str, header, rows):
    lines = [",".join(["schema_version"] + list(header))]
    for row in rows:
        lines.append(",".join([str(SCHEMA_VERSION)] + [_fmt(x) for x in row]))
    _atomic_write(path, "\n".join(lines) + "\n")


def _fmt(x):
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


# -------------------------------------------------------------- commands ---

def cmd_calibrate(args) -> int:
    cfg = load_config(args.config, "calibrate")["calibrate"]
    series = calib.load_ohlcv_csv(args.csv)
    result = calib.calibrate(
        series,
        window=int(cfg["window"]),
        annualization=float(cfg["annualization"]),
        n_regimes=int(cfg["n_regimes"]),
    )
    out = os.path.join(args.out, "calibration.json")
    write_json(out, result.to_dict())
    print(f"wrote {out}")
    print("regime  sigma(annualized)")
    for i, s in enumerate(result.sigmas):
        print(f"{i:>6}  {s:.4f}")
    print("generator (per day):")
    for row in result.generator_per_day:
        print("  " + "  ".join(f"{x:9.4f}" for x in row))
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = load_config(args.config, "solve")
    model = build_lq_model(cfg["lq"])
    spec = build_outer_spec(cfg["outer"], flip=args.flip_bangbang_orientation,
                            clamp=args.clamp_efforts)
    grid = build_grid(cfg["grid"])
    sol = hierarchy.solve_hierarchy(model, spec, grid)
    report = hierarchy.turnpike_report(sol)

    nodes = grid.nodes()
    N = model.n_regimes
    n = model.n_states
    write_csv(
        os.path.join(args.out, "riccati_p.csv"),
        ["t", "regime", "row", "col", "value"],
        [
            (nodes[idx], i, a, b, sol.riccati.P[idx, i, a, b])
            for idx in range(len(nodes))
            for i in range(N)
            for a in range(n)
            for b in range(n)
        ],
    )
    write_csv(
        os.path.join(args.out, "riccati_r.csv"),
        ["t", "regime", "value"],
        [
            (nodes[idx], i, sol.riccati.r[idx, i])
            for idx in range(len(nodes))
            for i in range(N)
        ],
    )
    write_csv(
        os.path.join(args.out, "outer_k.csv"),
        ["t", "regime", "value"],
        [
            (nodes[idx], i, sol.outer.k[idx, i])
            for idx in range(len(nodes))
            for i in range(N)
        ],
    )
    write_csv(
        os.path.join(args.out, "rates.csv"),
        ["t", "from", "to", "rate"],
        [
            (nodes[idx], i, j, sol.outer.mu[idx, i, j])
            for idx in range(len(nodes))
            for i in range(N)
            for j in range(N)
        ],
    )
    write_csv(
        os.path.join(args.out, "policies.csv"),
        ["t", "regime", "player", "action", "weight"],
        [
            (nodes[idx], i, player, a, vec[idx, i, a])
            for idx in range(len(nodes))
            for i in range(N)
            for player, vec in (("row", sol.outer.f), ("col", sol.outer.g))
            for a in range(vec.shape[2])
        ],
    )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "rho_H": report["rho_H"],
        "lambda2_mean": report["lambda2_mean"],
        "inner_fitted_rate": report["inner_fitted_rate"],
        "inner_reference_rate": report["inner_reference_rate"],
        "inner_degenerate": report["inner_degenerate"],
        "outer_fitted_rate": report["outer_fitted_rate"],
        "outer_reference_rate": report["outer_reference_rate"],
        "outer_degenerate": report["outer_degenerate"],
        "warnings": report["warnings"],
    }
    write_json(os.path.join(args.out, "turnpike.json"), payload)
    print(f"wrote riccati_p.csv, riccati_r.csv, outer_k.csv, rates.csv, "
          f"policies.csv, turnpike.json to {args.out}")
    return EXIT_OK


def cmd_mm(args) -> int:
    cfg = load_config(args.config, "mm")
    model = build_as_model(cfg["as_model"])
    mm_cfg = cfg["mm"]
    n_steps = int(mm_cfg["n_steps"])
    if args.steps is not None:
        n_steps = args.steps
    table = as_game.build_theta_table(model, n_steps)
    ask, bid, a_act, b_act = as_game.quote_surfaces(table, model)

    qs = model.q_levels()
    rows = []
    for idx, tau in enumerate(table.taus):
        t = model.horizon - tau
        for i in range(model.n_regimes):
            for qi, q in enumerate(qs):
                rows.append(
                    (t, i, q, table.theta[idx, i, qi],
                     ask[idx, i, qi] if a_act[qi] else "",
                     bid[idx, i, qi] if b_act[qi] else "")
                )
    write_csv(os.path.join(args.out, "theta_quotes.csv"),
              ["t", "regime", "q", "theta", "u_a", "u_b"], rows)

    if mm_cfg["expansion_report"]:
        worst = 0.0
        count = 0
        rent_unit = (model.A / model.gamma) * model.fill_constant
        for idx, tau in enumerate(table.taus[1:], start=1):
            for i in range(model.n_regimes):
                factor = as_game.risk_factor(model, None, i, tau)
                for q in qs:
                    c_q = 1.0 if abs(int(q)) == model.q_max else 2.0
                    approx = 0.5 * q * q * factor - c_q * rent_unit * tau
                    worst = max(worst,
                                abs(approx - table.theta[idx, i, q + model.q_max]))
                    count += 1
        write_json(
            os.path.join(args.out, "expansion_report.json"),
            {
                "schema_version": SCHEMA_VERSION,
                "max_abs_error": worst,
                "n_points": count,
            },
        )

    if mm_cfg["xi_sweep"]:
        sweep_rows = []
        for xi in mm_cfg["xi_sweep"]:
            m_xi = dataclasses.replace(model, xi=float(xi))
            t_xi = as_game.build_theta_table(m_xi, n_steps)
            a_xi, b_xi, _, _ = as_game.quote_surfaces(t_xi, m_xi)
            mid = model.q_max  # q = 0
            sweep_rows.append(
                (float(xi),
                 float(a_xi[-1, :, mid].mean() + b_xi[-1, :, mid].mean()))
            )
        write_csv(os.path.join(args.out, "xi_sweep.csv"),
                  ["xi", "total_spread_q0_full_horizon"], sweep_rows)

    macro_cfg = mm_cfg["macro"]
    if macro_cfg:
        _check_keys("macro", macro_cfg, "mm.macro")
        _check_keys("affine", macro_cfg.get("affine") or {}, "mm.macro.affine")
    if macro_cfg and macro_cfg.get("enabled"):
        aff = macro_cfg.get("affine") or {}
        spec = outer_layer.OuterGameSpec.from_affine(
            np.asarray(aff["mu0"], dtype=float) * 365.0,
            np.asarray(aff["lam_att"], dtype=float) * 365.0,
            np.asarray(aff["lam_stab"], dtype=float) * 365.0,
            cost_mode="theta",
            clamp_efforts=bool(args.clamp_efforts)
            if args.clamp_efforts is not None else True,
            flip_bang_bang=bool(args.flip_bangbang_orientation),
        )
        grid = TimeGrid(0.0, model.horizon, int(macro_cfg.get("n_steps", 200)))
        sol = as_game.solve_macro_as(
            model, spec, int(macro_cfg.get("inventory", 0)), grid,
            mode=macro_cfg.get("mode", "affine"),
        )
        write_csv(
            os.path.join(args.out, "macro_values.csv"),
            ["t", "regime", "U", "f_act", "g_act"],
            [
                (grid.nodes()[idx], i, sol.k[idx, i],
                 sol.f[idx, i, 1], sol.g[idx, i, 1])
                for idx in range(grid.n_steps + 1)
                for i in range(model.n_regimes)
            ],
        )

    print(f"wrote market-making tables to {args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = load_config(args.config, "simulate")
    model = build_as_model(cfg["as_model"])
    sim_cfg = cfg["sim"]
    n_paths = args.paths if args.paths is not None else int(sim_cfg["n_paths"])
    seed = args.seed if args.seed is not None else int(sim_cfg["seed"])
    n_steps = args.steps if args.steps is not None else int(
        round(model.horizon / model.dt)
    )
    if args.steps is not None:
        # keep n_steps * dt == horizon by rescaling the step
        model = dataclasses.replace(model, dt=model.horizon / n_steps)
    config = sim.SimConfig(
        model=model,
        n_paths=n_paths,
        n_steps=n_steps,
        seed=seed,
        predator=bool(sim_cfg["predator"]),
        initial_regime=int(sim_cfg["initial_regime"]),
    )
    report = sim.run_monte_carlo(config)
    out = os.path.join(args.out, "sim_report.json")
    write_json(out, report.to_dict())
    print(f"wrote {out}")
    for note in report.notes:
        print(f"note: {note}")

    if sim_cfg["export_paths"]:
        n_export = min(int(sim_cfg["n_export_paths"]), n_paths)
        policy = sim.make_policy(model, "equilibrium", n_steps)
        for p in range(n_export):
            rec = sim.simulate_path(config, policy, path_index=p)
            write_csv(
                os.path.join(args.out, f"path_{p:04d}.csv"),
                ["step", "time", "price", "regime", "inventory", "cash",
                 "u_a", "u_b", "drift", "ask_fill", "bid_fill"],
                [
                    (s, rec.time[s], rec.price[s], rec.regime[s],
                     rec.inventory[s], rec.cash[s], rec.ask[s], rec.bid[s],
                     rec.drift[s], int(rec.ask_fill[s]), int(rec.bid_fill[s]))
                    for s in range(len(rec.time))
                ],
            )
    return EXIT_OK


# ------------------------------------------------------------------ main ---

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsgames",
        description="Switching-game solvers and the adversarial "
                    "market-making case study",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="YAML config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--paths", type=int, default=None)
        p.add_argument("--steps", type=int, default=None)
        p.add_argument("--flip-bangbang-orientation", action="store_true",
                       dest="flip_bangbang_orientation")
        p.add_argument("--clamp-efforts", action=argparse.BooleanOptionalAction,
                       default=None, dest="clamp_efforts")

    p_cal = sub.add_parser("calibrate", help="fit regimes from OHLCV CSV")
    p_cal.add_argument("csv", help="input OHLCV CSV path")
    common(p_cal)
    p_cal.set_defaults(func=cmd_calibrate)

    p_solve = sub.add_parser("solve", help="solve the two-layer LQ hierarchy")
    common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_mm = sub.add_parser("mm", help="market-making tables and quotes")
    common(p_mm)
    p_mm.set_defaults(func=cmd_mm)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo strategy comparison")
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except np.linalg.LinAlgError as exc:  # a ValueError, but numerical
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
