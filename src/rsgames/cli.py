"""Command-line front end: calibrate, solve, mm, simulate.

Configs are YAML trees; unknown keys are rejected before any compute and
every output file carries a schema_version.  Exit codes: 0 success,
2 config/validation error, 3 numerical failure.
"""

import argparse
import contextlib
import dataclasses
import itertools
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

DEFAULTS = {"as_model": DEFAULT_AS_MODEL, "sim": DEFAULT_SIM,
            "calibrate": DEFAULT_CALIBRATE, "mm": DEFAULT_MM}

ALLOWED_KEYS = {
    **{section: set(defaults) for section, defaults in DEFAULTS.items()},
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
        merged[section] = {**DEFAULTS.get(section, {}), **given}
    return merged


def config_int(tree: dict, section: str, key: str) -> int:
    """tree[key] if it is integer-valued; otherwise (NaN, inf, 2.7, "x") a
    config error that names the field, never a silent truncation."""
    if key not in tree:
        raise ConfigError(f"{section}: missing {key!r}")
    with contextlib.suppress(TypeError, ValueError, OverflowError):
        if float(tree[key]) == int(tree[key]):
            return int(tree[key])
    raise ConfigError(f"{section}.{key} must be an integer, got {tree[key]!r}")


def macro_affine(tree: dict, n_regimes: int):
    """(mu0, lam_att, lam_stab) of mm.macro.affine, per day: each present,
    numeric, (N, N) and finite, or a config error that names it."""
    mats = []
    for key in ("mu0", "lam_att", "lam_stab"):
        if key not in tree:
            raise ConfigError(f"mm.macro.affine: missing {key!r}")
        try:
            M = np.asarray(tree[key], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"mm.macro.affine.{key} is not a numeric matrix") from exc
        if M.shape != (n_regimes, n_regimes):
            raise ConfigError(f"mm.macro.affine.{key} must be ({n_regimes}, {n_regimes}), "
                              f"got {M.shape}")
        if not np.all(np.isfinite(M)):
            raise ConfigError(f"mm.macro.affine.{key} must be finite")
        mats.append(M)
    return mats


def build_as_model(tree: dict) -> ASModel:
    _check_keys("as_model", tree, "as_model")
    mu = np.asarray(tree["mu_per_day"], dtype=float) * 365.0
    q_max = config_int(tree, "as_model", "q_max")
    try:
        return ASModel(
            gamma=float(tree["gamma"]),
            xi=float(tree["xi"]),
            A=float(tree["A"]),
            k=float(tree["k"]),
            sigmas=np.asarray(tree["sigmas"], dtype=float),
            q_max=q_max,
            horizon=float(tree["horizon_hours"]) / HOURS_PER_YEAR,
            rates=mu,
            s0=float(tree["s0"]),
            dt=float(tree["dt_seconds"]) / SECONDS_PER_YEAR,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"as_model: {exc}") from exc


def build_grid(tree: dict) -> TimeGrid:
    _check_keys("grid", tree, "grid")
    n_steps = config_int(tree, "grid", "n_steps")
    try:
        return TimeGrid(t0=float(tree.get("t0", 0.0)), T=float(tree["T"]),
                        n_steps=n_steps)
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

CSV_CHUNK_ROWS = 8192


@contextlib.contextmanager
def _atomic_open(path: str):
    """A text handle on a temporary file next to path, renamed onto path
    when the block exits cleanly and deleted when it raises."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, payload: dict):
    with _atomic_open(path) as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_csv(path: str, header, columns):
    """Write a CSV from equal-length 1-D array columns, after a
    schema_version column.

    Float cells are written with repr, other cells with str, and masked
    cells of a masked array as empty.  Rows are formatted and written
    CSV_CHUNK_ROWS at a time.  A NaN or inf in an unmasked float cell
    raises NumericalError and leaves no file behind.
    """
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} column names for {len(columns)} columns")
    columns = [np.asanyarray(col) for col in columns]
    n_rows = len(columns[0]) if columns else 0
    for name, col in zip(header, columns):
        if col.ndim != 1:
            raise ValueError(f"column {name} is not one-dimensional")
        if len(col) != n_rows:
            raise ValueError(f"column {name} has {len(col)} rows, expected {n_rows}")
        if col.dtype.kind == "f" and not np.all(np.isfinite(np.ma.compressed(col))):
            raise NumericalError(f"{os.path.basename(path)}: column {name} "
                                 "holds a non-finite value")
    schema = str(SCHEMA_VERSION)
    with _atomic_open(path) as handle:
        handle.write(",".join(["schema_version"] + list(header)) + "\n")
        for start in range(0, n_rows, CSV_CHUNK_ROWS):
            cells = [_format_cells(col[start:start + CSV_CHUNK_ROWS]) for col in columns]
            handle.write("\n".join(map(",".join, zip(itertools.repeat(schema), *cells))))
            handle.write("\n")


def _format_cells(part) -> list:
    data = np.ma.getdata(part)
    text = repr if data.dtype.kind == "f" else str
    cells = list(map(text, data.tolist()))
    for k in np.flatnonzero(np.ma.getmaskarray(part)):
        cells[k] = ""
    return cells


def _index_columns(shape):
    """Row-major index arrays, one per axis, of an array of this shape."""
    return np.indices(shape).reshape(len(shape), -1)


# -------------------------------------------------------------- commands ---

def expansion_report(model: ASModel, table: as_game.ThetaTable) -> dict:
    """Largest gap between the penalty table and its short-horizon
    expansion over every node after the terminal one, regime and level.

    A non-finite gap raises NumericalError instead of being skipped.
    """
    approx = as_game.theta_expansions(model, None, table.taus[1:])
    err = np.abs(approx - table.theta[1:])
    if not np.all(np.isfinite(err)):
        raise NumericalError("expansion report: the penalty table or its "
                             "expansion is not finite")
    return {
        "schema_version": SCHEMA_VERSION,
        "max_abs_error": float(err.max()),
        "n_points": int(err.size),
    }


def cmd_calibrate(args) -> int:
    cfg = load_config(args.config, "calibrate")["calibrate"]
    series = calib.load_ohlcv_csv(args.csv)
    result = calib.calibrate(
        series,
        window=config_int(cfg, "calibrate", "window"),
        annualization=float(cfg["annualization"]),
        n_regimes=config_int(cfg, "calibrate", "n_regimes"),
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
    P = sol.riccati.P
    idx, i, a, b = _index_columns(P.shape)
    write_csv(os.path.join(args.out, "riccati_p.csv"),
              ["t", "regime", "row", "col", "value"],
              [nodes[idx], i, a, b, P.ravel()])
    idx, i = _index_columns(sol.riccati.r.shape)
    write_csv(os.path.join(args.out, "riccati_r.csv"), ["t", "regime", "value"],
              [nodes[idx], i, sol.riccati.r.ravel()])
    idx, i = _index_columns(sol.outer.k.shape)
    write_csv(os.path.join(args.out, "outer_k.csv"), ["t", "regime", "value"],
              [nodes[idx], i, sol.outer.k.ravel()])
    idx, i, j = _index_columns(sol.outer.mu.shape)
    write_csv(os.path.join(args.out, "rates.csv"), ["t", "from", "to", "rate"],
              [nodes[idx], i, j, sol.outer.mu.ravel()])
    # per (node, regime): the row player's weights, then the column player's
    weights = np.concatenate([sol.outer.f, sol.outer.g], axis=2)
    n_row_actions = sol.outer.f.shape[2]
    idx, i, a = _index_columns(weights.shape)
    is_row = a < n_row_actions
    write_csv(os.path.join(args.out, "policies.csv"),
              ["t", "regime", "player", "action", "weight"],
              [nodes[idx], i, np.where(is_row, "row", "col"),
               np.where(is_row, a, a - n_row_actions), weights.ravel()])
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
        "saddle_paths": {name: int(count) for name, count
                         in sol.diagnostics["saddle_paths"].items()},
        "max_best_response_gap": float(sol.diagnostics["max_best_response_gap"]),
    }
    write_json(os.path.join(args.out, "turnpike.json"), payload)
    print(f"wrote riccati_p.csv, riccati_r.csv, outer_k.csv, rates.csv, "
          f"policies.csv, turnpike.json to {args.out}")
    return EXIT_OK


def cmd_mm(args) -> int:
    cfg = load_config(args.config, "mm")
    model = build_as_model(cfg["as_model"])
    mm_cfg = cfg["mm"]
    n_steps = config_int(mm_cfg, "mm", "n_steps")
    if args.steps is not None:
        n_steps = args.steps
    macro_cfg = mm_cfg["macro"]
    if macro_cfg:
        _check_keys("macro", macro_cfg, "mm.macro")
        _check_keys("affine", macro_cfg.get("affine") or {}, "mm.macro.affine")
        macro_cfg = {"inventory": 0, "n_steps": 200, **macro_cfg}
        macro_inventory = config_int(macro_cfg, "mm.macro", "inventory")
        macro_steps = config_int(macro_cfg, "mm.macro", "n_steps")
    spec = None
    if macro_cfg and macro_cfg.get("enabled"):
        macro_mode = macro_cfg.get("mode", "affine")
        if macro_mode not in as_game.MACRO_MODES:
            raise ConfigError(f"mm.macro.mode must be one of {', '.join(as_game.MACRO_MODES)}, "
                              f"got {macro_mode!r}")
        mu0, lam_att, lam_stab = macro_affine(macro_cfg.get("affine") or {},
                                              model.n_regimes)
        spec = outer_layer.OuterGameSpec.from_affine(
            mu0 * 365.0, lam_att * 365.0, lam_stab * 365.0,
            clamp_efforts=bool(args.clamp_efforts)
            if args.clamp_efforts is not None else True,
            flip_bang_bang=bool(args.flip_bangbang_orientation),
        )
    table = as_game.build_theta_table(model, n_steps)
    ask, bid, a_act, b_act = as_game.quote_surfaces(table, model)

    idx, i, qi = _index_columns(table.theta.shape)
    write_csv(os.path.join(args.out, "theta_quotes.csv"),
              ["t", "regime", "q", "theta", "u_a", "u_b"],
              [(model.horizon - table.taus)[idx], i, model.q_levels()[qi],
               table.theta.ravel(),
               np.ma.array(ask.ravel(), mask=~a_act[qi]),
               np.ma.array(bid.ravel(), mask=~b_act[qi])])

    if mm_cfg["expansion_report"]:
        write_json(os.path.join(args.out, "expansion_report.json"),
                   expansion_report(model, table))

    if mm_cfg["xi_sweep"]:
        xis = np.array([float(xi) for xi in mm_cfg["xi_sweep"]])
        spreads = np.empty_like(xis)
        mid = model.q_max  # q = 0
        for n, xi in enumerate(xis):
            m_xi = dataclasses.replace(model, xi=float(xi))
            t_xi = as_game.build_theta_table(m_xi, n_steps)
            a_xi, b_xi, _, _ = as_game.quote_surfaces(t_xi, m_xi)
            spreads[n] = a_xi[-1, :, mid].mean() + b_xi[-1, :, mid].mean()
        write_csv(os.path.join(args.out, "xi_sweep.csv"),
                  ["xi", "total_spread_q0_full_horizon"], [xis, spreads])

    if spec is not None:
        grid = TimeGrid(0.0, model.horizon, macro_steps)
        sol = as_game.solve_macro_as(model, spec, macro_inventory, grid, mode=macro_mode)
        idx, i = _index_columns(sol.k.shape)
        write_csv(os.path.join(args.out, "macro_values.csv"),
                  ["t", "regime", "U", "f_act", "g_act"],
                  [grid.nodes()[idx], i, sol.k.ravel(),
                   sol.f[:, :, 1].ravel(), sol.g[:, :, 1].ravel()])
        write_json(os.path.join(args.out, "macro_report.json"), {
            "schema_version": SCHEMA_VERSION,
            "mode": sol.meta["mode"],
            "inventory": int(sol.meta["inventory"]),
            "nonbilinear_nodes": int(sol.meta["nonbilinear_nodes"]),
        })

    print(f"wrote market-making tables to {args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = load_config(args.config, "simulate")
    model = build_as_model(cfg["as_model"])
    sim_cfg = cfg["sim"]
    n_paths = config_int(sim_cfg, "sim", "n_paths") if args.paths is None else args.paths
    seed = config_int(sim_cfg, "sim", "seed") if args.seed is None else args.seed
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
        initial_regime=config_int(sim_cfg, "sim", "initial_regime"),
    )
    report = sim.run_monte_carlo(config)
    out = os.path.join(args.out, "sim_report.json")
    write_json(out, report.to_dict())
    print(f"wrote {out}")
    for note in report.notes:
        print(f"note: {note}")

    if sim_cfg["export_paths"]:
        n_export = min(config_int(sim_cfg, "sim", "n_export_paths"), n_paths)
        policy = sim.make_policy(model, "equilibrium", n_steps)
        for p in range(n_export):
            rec = sim.simulate_path(config, policy, path_index=p)
            # a PathRecord marks the side that cannot quote at the
            # inventory bound with NaN; such cells are written empty
            write_csv(
                os.path.join(args.out, f"path_{p:04d}.csv"),
                ["step", "time", "price", "regime", "inventory", "cash",
                 "u_a", "u_b", "drift", "ask_fill", "bid_fill"],
                [np.arange(len(rec.time)), rec.time, rec.price, rec.regime,
                 rec.inventory, rec.cash, np.ma.masked_invalid(rec.ask),
                 np.ma.masked_invalid(rec.bid), rec.drift,
                 rec.ask_fill.astype(int), rec.bid_fill.astype(int)],
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

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", default=None, help="YAML config file")
        p.add_argument("--out", default="out", help="output directory")
        p.set_defaults(func=func)
        return p

    def outer_flags(p):
        p.add_argument("--flip-bangbang-orientation", action="store_true",
                       dest="flip_bangbang_orientation")
        p.add_argument("--clamp-efforts", action=argparse.BooleanOptionalAction,
                       default=None, dest="clamp_efforts")

    p_cal = command("calibrate", cmd_calibrate, "fit regimes from OHLCV CSV")
    p_cal.add_argument("csv", help="input OHLCV CSV path")
    outer_flags(command("solve", cmd_solve, "solve the two-layer LQ hierarchy"))
    p_mm = command("mm", cmd_mm, "market-making tables and quotes")
    p_mm.add_argument("--steps", type=int, default=None)
    outer_flags(p_mm)
    p_sim = command("simulate", cmd_simulate, "Monte-Carlo strategy comparison")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--paths", type=int, default=None)
    p_sim.add_argument("--steps", type=int, default=None)
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
