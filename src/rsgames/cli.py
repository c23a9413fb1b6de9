"""Command-line front end: calibrate, solve, mm, simulate.

Configs are YAML trees, checked in full against FIELDS before any compute
or write; every output file carries a schema_version.  Exit codes: 0 success,
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

REQUIRED = object()  # the default of a field that has none

# "section.key": (kind, default).  The kinds: "bool" (a YAML bool, never a
# quoted one), "int" (integer-valued, see config_int) or "int>=n" (also at
# least n), "number" (float() of it) or "number>0" (also finite and
# positive), "list" (numeric, one axis), "matrix" (numeric, two or more
# axes), "mode" (one of as_game.MACRO_MODES) and "section" (a nested
# mapping; a null or empty one is absent).  A None default marks an optional
# field.  The domain objects keep the value checks they own (finite,
# positive, shapes, PSD); load_config checks kinds only.
FIELDS = {
    "as_model.gamma": ("number", 0.02),
    "as_model.xi": ("number", 10.0),
    "as_model.A": ("number", 250000.0),
    "as_model.k": ("number", 10.0),
    "as_model.sigmas": ("list", [0.2253, 0.5305]),
    "as_model.q_max": ("int", 10),
    "as_model.horizon_hours": ("number", 12.0),
    "as_model.dt_seconds": ("number>0", 15.0),
    "as_model.mu_per_day": ("matrix", [[0.0, 30.0], [30.0, 0.0]]),
    "as_model.s0": ("number", 90863.90),
    "sim.n_paths": ("int", 1000),
    "sim.seed": ("int>=0", 20251212),
    "sim.initial_regime": ("int", 0),
    "sim.predator": ("bool", True),
    "sim.export_paths": ("bool", False),
    "sim.n_export_paths": ("int>=0", 1),
    "calibrate.window": ("int>=2", 48),
    "calibrate.annualization": ("number>0", 365.0 * 48.0),
    "calibrate.n_regimes": ("int>=1", 2),
    "mm.n_steps": ("int>=1", 512),
    "mm.expansion_report": ("bool", True),
    "mm.xi_sweep": ("list", []),
    "mm.macro": ("section", None),
    "mm.macro.enabled": ("bool", False),
    "mm.macro.inventory": ("int", 0),
    "mm.macro.n_steps": ("int>=1", 200),
    "mm.macro.mode": ("mode", "affine"),
    "mm.macro.affine": ("section", None),
    **{f"{section}.affine.{key}": ("matrix", REQUIRED)
       for section in ("mm.macro", "outer") for key in ("mu0", "lam_att", "lam_stab")},
    "grid.t0": ("number", 0.0),
    "grid.T": ("number", REQUIRED),
    "grid.n_steps": ("int", REQUIRED),
    **{f"lq.{key}": ("matrix", REQUIRED)
       for key in ("A", "B", "D", "Sigma", "Q", "R", "S", "Q_T")},
    "outer.mu_bar": ("matrix", None),
    "outer.Lambda": ("matrix", None),
    "outer.affine": ("section", None),
}

WANTS = {"bool": "must be true or false", "number": "must be a number",
         "number>0": "must be a finite number above 0",
         "list": "is not a numeric list", "matrix": "is not a numeric matrix",
         "mode": f"must be one of {', '.join(as_game.MACRO_MODES)}"}


def load_config(path, command: str) -> dict:
    """The command's sections with defaults merged and every field checked
    against its kind, as plain YAML values; a ConfigError otherwise."""
    cfg = None  # no file, or an empty one
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path) as handle:
            try:
                cfg = yaml.safe_load(handle)
            except yaml.YAMLError as exc:
                raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if cfg is None:
        cfg = {}
    elif not isinstance(cfg, dict):
        raise ConfigError(f"config root must be a mapping, got {cfg!r}")
    sections = {"calibrate": ("calibrate",), "solve": ("grid", "lq", "outer"),
                "mm": ("as_model", "mm"), "simulate": ("as_model", "sim")}[command]
    for key in cfg:
        if key not in sections:
            raise ConfigError(f"unknown section {key!r} for command {command!r}")
    # only a null section is absent: false, 0 or [] is refused as not a mapping
    return {section: _resolve(section, {} if cfg.get(section) is None else cfg[section])
            for section in sections}


def _resolve(section: str, given) -> dict:
    """One section's fields, nested sections included, defaults merged."""
    if not isinstance(given, dict):
        raise ConfigError(f"{section} must be a mapping, got {given!r}")
    fields = {path[len(section) + 1:]: spec for path, spec in FIELDS.items()
              if path.rpartition(".")[0] == section}
    for key in given:
        if key not in fields:
            raise ConfigError(f"unknown key {section}.{key}")
    tree = {**{key: default for key, (_, default) in fields.items()
               if default is not REQUIRED}, **given}
    resolved = {}
    for key, (kind, default) in fields.items():
        if key not in tree:
            raise ConfigError(f"{section}: missing {key!r}")
        optional = tree[key] is None and default is None
        resolved[key] = None if optional else _checked(tree, section, key, kind)
    return resolved


def _checked(tree: dict, section: str, key: str, kind: str):
    """tree[key] as a plain YAML value of its kind, or a ConfigError."""
    value, path = tree[key], f"{section}.{key}"
    kind, _, low = kind.partition(">=")
    if kind == "int":
        value = config_int(tree, section, key)
        if low and value < int(low):
            raise ConfigError(f"{path} must be at least {low}, got {value}")
        return value
    if kind == "section":
        return None if value == {} else _resolve(path, value)
    if (kind == "bool" and isinstance(value, bool)
            or kind == "mode" and value in as_game.MACRO_MODES):
        return value
    with contextlib.suppress(TypeError, ValueError, OverflowError):
        if kind.startswith("number") and not isinstance(value, bool):
            number = float(value)
            if kind == "number" or np.isfinite(number) and number > 0:
                return number
        if kind in ("list", "matrix") and isinstance(value, list):
            array = np.asarray(value, dtype=float)
            if (array.ndim > 1) == (kind == "matrix"):  # a list has one axis
                return array.tolist()
    raise ConfigError(f"{path} {WANTS[kind]}, got {value!r}")


def config_int(tree: dict, section: str, key: str) -> int:
    """tree[key] if it is integer-valued; otherwise (NaN, inf, 2.7, "x",
    true) a config error that names the field, never a silent truncation."""
    value = tree[key]
    with contextlib.suppress(TypeError, ValueError, OverflowError):
        if not isinstance(value, bool) and float(value) == int(value):
            return int(value)
    raise ConfigError(f"{section}.{key} must be an integer, got {value!r}")


@contextlib.contextmanager
def _config_errors(section: str):
    """Report a domain object's ValueError as a config error of section."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def build_as_model(tree: dict) -> ASModel:
    with _config_errors("as_model"):
        return ASModel(
            gamma=tree["gamma"], xi=tree["xi"], A=tree["A"], k=tree["k"],
            sigmas=np.asarray(tree["sigmas"], dtype=float), q_max=tree["q_max"],
            horizon=tree["horizon_hours"] / HOURS_PER_YEAR,
            rates=np.asarray(tree["mu_per_day"], dtype=float) * 365.0,
            s0=tree["s0"],
        )


def build_grid(tree: dict) -> TimeGrid:
    with _config_errors("grid"):
        return TimeGrid(t0=tree["t0"], T=tree["T"], n_steps=tree["n_steps"])


def build_lq_model(tree: dict) -> mjls_inner.RegimeLQModel:
    with _config_errors("lq"):
        return mjls_inner.RegimeLQModel(**tree)


def build_affine_spec(section: str, tree: dict, n_regimes: int,
                      scale=1.0) -> outer_layer.OuterGameSpec:
    """OuterGameSpec.from_affine on the section's mu0, lam_att and lam_stab
    times scale, each (N, N) and finite."""
    mats = {key: np.asarray(tree[key]) * scale for key in ("mu0", "lam_att", "lam_stab")}
    for key, M in mats.items():
        if M.shape != (n_regimes, n_regimes):
            raise ConfigError(f"{section}.{key} must be ({n_regimes}, {n_regimes}), "
                              f"got {M.shape}")
        if not np.all(np.isfinite(M)):
            raise ConfigError(f"{section}.{key} must be finite")
    with _config_errors(section):
        return outer_layer.OuterGameSpec.from_affine(**mats)


def build_outer_spec(tree: dict, n_regimes=None) -> outer_layer.OuterGameSpec:
    """The solve game from outer.affine when given, else from outer.mu_bar
    and outer.Lambda; for n_regimes regimes when that is given."""
    if tree["affine"]:
        beside = [key for key in ("mu_bar", "Lambda") if tree[key] is not None]
        if beside:
            raise ConfigError(f"outer: give 'affine' or 'mu_bar' and 'Lambda', not "
                              f"'affine' and {' and '.join(map(repr, beside))}")
        return build_affine_spec("outer.affine", tree["affine"],
                                 n_regimes or len(tree["affine"]["mu0"]))
    for key in ("mu_bar", "Lambda"):
        if tree[key] is None:
            raise ConfigError(f"outer: missing {key!r}")
    with _config_errors("outer"):
        spec = outer_layer.OuterGameSpec(mu_bar=tree["mu_bar"], Lambda=tree["Lambda"])
    if n_regimes not in (None, spec.n_regimes):
        raise ConfigError(f"outer.mu_bar has {spec.n_regimes} regimes, lq has {n_regimes}")
    return spec


# --------------------------------------------------------------- outputs ---

CSV_CHUNK_ROWS = 8192


@contextlib.contextmanager
def _atomic_open(path: str):
    """A text handle on a temporary file next to path, renamed onto path
    when the block exits cleanly and deleted when it raises.  The file gets
    the mode open(path, "w") would create, not mkstemp's 0600."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, payload: dict):
    """Write payload and a schema_version field as sorted, indented JSON."""
    with _atomic_open(path) as handle:
        handle.write(json.dumps({"schema_version": SCHEMA_VERSION, **payload},
                                indent=2, sort_keys=True) + "\n")


def write_csv(path: str, header, columns):
    """Write a CSV from equal-length 1-D array columns, after a
    schema_version column.

    Float cells are written with repr, other cells with str, and masked
    cells of a masked array as empty.  Rows are formatted and written
    CSV_CHUNK_ROWS at a time; within a chunk, each distinct value of a
    dtype is formatted once and its text shared by every cell of that
    dtype that holds it, floats keyed by their bits so that -0.0 and 0.0
    stay apart.  A NaN or inf in an unmasked float cell raises
    NumericalError and leaves no file behind.
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
            cells = _format_cells([col[start:start + CSV_CHUNK_ROWS] for col in columns])
            handle.write("\n".join(map(",".join, zip(itertools.repeat(schema), *cells))))
            handle.write("\n")


def _format_cells(parts) -> list:
    """The cell texts of equal-length columns, a list per column."""
    cells = [None] * len(parts)
    groups = {}
    for k, part in enumerate(parts):
        groups.setdefault(part.dtype, []).append(k)
    for dtype, members in groups.items():
        data = np.concatenate([np.ma.getdata(parts[k]) for k in members])
        keys = data.view(f"u{dtype.itemsize}") if dtype.kind == "f" else data
        distinct, inverse = np.unique(keys, return_inverse=True)
        text = repr if dtype.kind == "f" else str
        texts = np.array(list(map(text, distinct.view(dtype).tolist())), dtype=object)
        group = texts[inverse]
        group[np.concatenate([np.ma.getmaskarray(parts[k]) for k in members])] = ""
        for k, column in zip(members, group.reshape(len(members), -1).tolist()):
            cells[k] = column
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
    return {"max_abs_error": float(err.max()), "n_points": int(err.size)}


def cmd_calibrate(args) -> int:
    cfg = load_config(args.config, "calibrate")["calibrate"]
    result = calib.calibrate(calib.load_ohlcv_csv(args.csv), **cfg)
    out = os.path.join(args.out, "calibration.json")
    write_json(out, result)
    print(f"wrote {out}")
    print("regime  sigma(annualized)")
    for i, s in enumerate(result["sigmas"]):
        print(f"{i:>6}  {s:.4f}")
    print("generator (per day):")
    for row in result["generator_per_day"]:
        print("  " + "  ".join(f"{x:9.4f}" for x in row))
    return EXIT_OK


def cmd_solve(args) -> int:
    """Solve the hierarchy and compute turnpike_report's dict, then write
    the five CSVs and turnpike.json; a failure of the solve or the report
    leaves no file."""
    cfg = load_config(args.config, "solve")
    model = build_lq_model(cfg["lq"])
    spec = build_outer_spec(cfg["outer"], model.n_regimes)
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
    write_json(os.path.join(args.out, "turnpike.json"), report)
    print(f"wrote riccati_p.csv, riccati_r.csv, outer_k.csv, rates.csv, "
          f"policies.csv, turnpike.json to {args.out}")
    return EXIT_OK


def cmd_mm(args) -> int:
    cfg = load_config(args.config, "mm")
    model = build_as_model(cfg["as_model"])
    mm_cfg = cfg["mm"]
    macro = mm_cfg["macro"] if mm_cfg["macro"] and mm_cfg["macro"]["enabled"] else None
    n_steps = mm_cfg["n_steps"] if args.steps is None else args.steps
    with _config_errors("mm.xi_sweep"):
        sweep = [dataclasses.replace(model, xi=xi) for xi in mm_cfg["xi_sweep"]]
    if macro:
        if not macro["affine"]:
            raise ConfigError("mm.macro: missing 'affine'")
        if abs(macro["inventory"]) > model.q_max:
            raise ConfigError(f"mm.macro.inventory must be within as_model.q_max = "
                              f"{model.q_max}, got {macro['inventory']}")
        spec = build_affine_spec("mm.macro.affine", macro["affine"], model.n_regimes,
                                 365.0)
    # every output is computed before any is written, so a failure leaves none
    table = as_game.build_theta_table(model, n_steps)
    ask, bid = as_game.quote_surfaces(table, model)
    report = expansion_report(model, table) if mm_cfg["expansion_report"] else None
    if sweep:
        xis = np.array(mm_cfg["xi_sweep"])
        spreads = np.empty_like(xis)
        mid = model.q_max  # q = 0
        for n, m_xi in enumerate(sweep):
            t_xi = as_game.build_theta_table(m_xi, n_steps)
            a_xi, b_xi = as_game.quote_surfaces(t_xi, m_xi)
            spreads[n] = a_xi[-1, :, mid].mean() + b_xi[-1, :, mid].mean()
        del t_xi, a_xi, b_xi  # not held through the writes
    if macro:
        sol = as_game.solve_macro_as(model, spec, macro["inventory"], macro["n_steps"],
                                     mode=macro["mode"])

    # a quote is NaN where its side does not quote; its cell is written empty
    idx, i, qi = _index_columns(table.theta.shape)
    write_csv(os.path.join(args.out, "theta_quotes.csv"),
              ["t", "regime", "q", "theta", "u_a", "u_b"],
              [(model.horizon - table.taus)[idx], i, model.q_levels()[qi],
               table.theta.ravel(),
               *(np.ma.array(u, mask=np.isnan(u)) for u in (ask.ravel(), bid.ravel()))])
    if report is not None:
        write_json(os.path.join(args.out, "expansion_report.json"), report)
    if sweep:
        write_csv(os.path.join(args.out, "xi_sweep.csv"),
                  ["xi", "total_spread_q0_full_horizon"], [xis, spreads])
    if macro:
        idx, i = _index_columns(sol.k.shape)
        write_csv(os.path.join(args.out, "macro_values.csv"),
                  ["t", "regime", "U", "f_act", "g_act"],
                  [sol.grid.nodes()[idx], i, sol.k.ravel(),
                   sol.f[:, :, 1].ravel(), sol.g[:, :, 1].ravel()])
        write_json(os.path.join(args.out, "macro_report.json"), sol.meta)

    print(f"wrote market-making tables to {args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = load_config(args.config, "simulate")
    model = build_as_model(cfg["as_model"])
    sim_cfg = cfg["sim"]
    n_paths = sim_cfg["n_paths"] if args.paths is None else args.paths
    n_export = sim_cfg["n_export_paths"] if sim_cfg["export_paths"] else 0
    limit = sim.max_steps(model, n_export)
    n_steps, key = args.steps, "--steps"
    if n_steps is None:
        tree, key = cfg["as_model"], "as_model.dt_seconds"
        dt = tree["dt_seconds"] / SECONDS_PER_YEAR
        # a dt that underflows to 0, or a horizon / dt that overflows to
        # inf, is over the limit and never reaches round()
        n_steps = model.horizon / dt if dt > 0 else np.inf
        if n_steps <= limit:
            n_steps = round(n_steps)
            if abs(n_steps * dt - model.horizon) > 1e-9 * max(1.0, model.horizon):
                raise ConfigError(f"as_model: horizon_hours = {tree['horizon_hours']:g} "
                                  f"is not a whole number of dt_seconds = "
                                  f"{tree['dt_seconds']:g} steps")
    if n_steps > limit:
        held = "the quote tables"
        if n_export:  # name the key to lower when the records push it over
            held += (f" and the records of sim.n_export_paths = {n_export} paths"
                     if n_steps <= sim.max_steps(model, 0) else " and records")
        raise ConfigError(f"{key} gives {n_steps:.6g} steps per path; {held} fit in "
                          f"{sim.STEP_BUDGET_BYTES} bytes up to {limit} steps")
    with _config_errors("sim"):
        config = sim.SimConfig(
            model=model, n_paths=n_paths, n_steps=n_steps,
            seed=sim_cfg["seed"] if args.seed is None else args.seed,
            predator=sim_cfg["predator"], initial_regime=sim_cfg["initial_regime"],
        )

    steps = np.arange(config.n_steps)
    times = (steps + 1) * config.dt  # step s ends at time (s + 1) dt

    def write_path(p, record):
        # a quote is NaN where its side does not quote; its cell is written empty
        quotes = {side: np.ma.array(record[side], mask=np.isnan(record[side]))
                  for side in ("u_a", "u_b")}
        write_csv(os.path.join(args.out, f"path_{p:04d}.csv"),
                  ["step", "time", *record],
                  [steps, times, *{**record, **quotes}.values()])

    report = sim.run_monte_carlo(config, n_export, write_path)
    out = os.path.join(args.out, "sim_report.json")
    write_json(out, report)
    print(f"wrote {out}")
    for note in report["notes"]:
        print(f"note: {note}")
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

    def at_least(low):
        def integer(text):
            if int(text) < low:
                raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
            return int(text)
        return integer

    p_cal = command("calibrate", cmd_calibrate, "fit regimes from OHLCV CSV")
    p_cal.add_argument("csv", help="input OHLCV CSV path")
    command("solve", cmd_solve, "solve the two-layer LQ hierarchy")
    p_mm = command("mm", cmd_mm, "market-making tables and quotes")
    p_mm.add_argument("--steps", type=at_least(1))
    p_sim = command("simulate", cmd_simulate, "Monte-Carlo strategy comparison")
    p_sim.add_argument("--seed", type=at_least(0))
    p_sim.add_argument("--paths", type=at_least(1))
    p_sim.add_argument("--steps", type=at_least(1))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (np.linalg.LinAlgError, NumericalError) as exc:  # LinAlgError is a ValueError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
