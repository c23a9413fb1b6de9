"""The config schema: cli.FIELDS against the README, the probes that used to
slip through, the calibrate bounds, the flag values, and a Hypothesis
mutation test over every shipped config and every command's defaults."""

import contextlib
import copy
import io
import math
import os
import re
import tempfile

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from rsgames import cli
from rsgames.mjls_inner import RegimeLQModel

ROOT = os.path.join(os.path.dirname(__file__), "..")
CONFIGS = os.path.join(ROOT, "configs")
MACRO = {"enabled": True, "inventory": 1, "n_steps": 20,
         "affine": {"mu0": [[0.0, 3.0], [3.0, 0.0]],
                    "lam_att": [[0.0, 1.0], [1.0, 0.0]],
                    "lam_stab": [[0.0, 1.0], [1.0, 0.0]]}}


def shipped(name):
    with open(os.path.join(CONFIGS, name)) as handle:
        return yaml.safe_load(handle)


def write_bars(path, n=400):
    """Close-to-close log returns of 0.2 % and 2 % in alternating blocks of
    50 bars, so two volatility regimes separate cleanly."""
    rng = np.random.default_rng(3)
    sigma = np.where((np.arange(n) // 50) % 2 == 0, 0.002, 0.02)
    closes = 100.0 * np.exp(np.cumsum(sigma * rng.standard_normal(n)))
    lines = ["timestamp,open,high,low,close,volume"]
    lines += [f"{1700000000 + 1800 * b},{c!r},{c!r},{c!r},{c!r},1"
              for b, c in enumerate(closes.tolist())]
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def run_cli(command, tree, workdir, *flags):
    """cli.main on tree, written as YAML under workdir: (exit code, stderr,
    the files left in the output directory)."""
    workdir = str(workdir)
    config = os.path.join(workdir, "config.yaml")
    with open(config, "w") as handle:
        yaml.safe_dump(tree, handle)
    out = os.path.join(workdir, "out")
    argv = [command, "--config", config, "--out", out, *flags]
    if command == "calibrate":
        argv.insert(1, os.path.join(workdir, "bars.csv"))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    written = sorted(os.listdir(out)) if os.path.isdir(out) else []
    return code, err.getvalue(), written


def set_field(tree, path, value):
    *parents, leaf = path.split(".")
    for name in parents:
        tree = tree.setdefault(name, {})
    tree[leaf] = value


class TestReadme:
    def test_config_reference_lists_every_field(self):
        with open(os.path.join(ROOT, "README.md")) as handle:
            text = handle.read()
        table = text.split("### Config reference", 1)[1].split("\n#", 1)[0]
        rows = re.findall(r"^\| `([^`]+)` \| ([^|]+) \| ([^|]+) \|$", table, re.M)
        assert [key for key, _, _ in rows] == list(cli.FIELDS)
        for key, kind, default in rows:
            want_kind, want_default = cli.FIELDS[key]
            assert kind == want_kind, key
            if default.startswith("`"):
                assert yaml.safe_load(default.strip("`")) == want_default, key
            else:
                assert want_default is cli.REQUIRED or want_default is None, key

    def test_defaults_resolve_to_plain_yaml(self):
        for command in ("mm", "simulate", "calibrate"):
            cfg = cli.load_config(None, command)
            assert yaml.safe_load(yaml.safe_dump(cfg)) == cfg


class TestProbes:
    """Each probe exits 2 with a config error naming the field and writes
    no file."""

    SOLVE = shipped("solve_two_regime.yaml")
    PROBES = [
        ("simulate", {}, "sim.predator", "false", "sim.predator"),
        ("simulate", {}, "sim.export_paths", "true", "sim.export_paths"),
        ("mm", {}, "mm.expansion_report", "no", "mm.expansion_report"),
        ("mm", {"mm": {"macro": MACRO}}, "mm.macro.enabled", "false", "mm.macro.enabled"),
        ("solve", SOLVE, "outer.clamp_efforts", "no", "unknown key outer.clamp_efforts"),
        ("solve", SOLVE, "outer.flip_bang_bang", "yes",
         "unknown key outer.flip_bang_bang"),
        ("solve", SOLVE, "outer.rho_f", "x", "unknown key outer.rho_f"),
        ("mm", {}, "mm.xi_sweep", [float("nan")], "mm.xi_sweep: xi must be finite"),
        ("mm", {}, "mm.xi_sweep", ["abc"], "mm.xi_sweep is not a numeric list"),
        ("mm", {}, "mm.xi_sweep", 3.0, "mm.xi_sweep is not a numeric list"),
        ("mm", {}, "mm.xi_sweep", [1.0, -2.0], "mm.xi_sweep: xi must be nonnegative"),
        ("simulate", {}, "sim.n_paths", 0, "sim: n_paths must be at least 1"),
        ("simulate", {}, "sim.initial_regime", 5, "sim: initial_regime 5 out of range"),
        ("simulate", {}, "sim.seed", -1, "sim.seed must be at least 0"),
        ("solve", SOLVE, "grid.t0", "zero", "grid.t0 must be a number"),
        ("solve", SOLVE, "grid.T", float("inf"), "grid: need finite T > t0"),
        ("solve", SOLVE, "lq.Q", [[[1.0]], [[float("nan")]]], "lq: Q must be finite"),
        ("mm", {"as_model": {"q_max": 3}, "mm": {"macro": MACRO}}, "mm.macro.inventory", 4,
         "mm.macro.inventory must be within as_model.q_max = 3, got 4"),
        ("mm", {"mm": {"macro": {**MACRO, "affine": None}}}, "mm.macro.n_steps", 20,
         "mm.macro: missing 'affine'"),
        ("mm", {"mm": {"macro": MACRO}}, "mm.macro.n_steps", 0,
         "mm.macro.n_steps must be at least 1, got 0"),
        ("mm", {"mm": {"macro": MACRO}}, "mm.macro.affine.mu0", [[0.0, 3.0, 1.0]] * 3,
         "mm.macro.affine.mu0 must be (2, 2), got (3, 3)"),
        ("mm", {}, "mm.macro", False, "mm.macro must be a mapping"),
        ("simulate", {}, "as_model.s0", -1.0, "as_model: gamma, A, k and s0 must be positive"),
        ("simulate", {}, "as_model.sigmas", 0.3, "as_model.sigmas is not a numeric list"),
        ("simulate", {}, "as_model.dt_seconds", 7,
         "as_model: horizon_hours = 12 is not a whole number of dt_seconds = 7 steps"),
        ("solve", SOLVE, "outer.mu_bar", [[0.0, 1.0], [1.0, 0.0]],
         "outer: give 'affine' or 'mu_bar' and 'Lambda', not 'affine' and 'mu_bar'"),
        ("solve", {**SOLVE, "outer": {**SOLVE["outer"], "mu_bar": [[0.0, 1.0], [1.0, 0.0]]}},
         "outer.Lambda", [[[0.0, 0.0], [0.0, 0.0]]] * 2,
         "outer: give 'affine' or 'mu_bar' and 'Lambda', not 'affine' and 'mu_bar' "
         "and 'Lambda'"),
    ]

    @pytest.mark.parametrize("command,base,path,value,message", PROBES,
                             ids=[f"{p[2]}={p[3]!r}" for p in PROBES])
    def test_probe(self, tmp_path, command, base, path, value, message):
        tree = copy.deepcopy(base)
        set_field(tree, path, value)
        code, err, written = run_cli(command, tree, tmp_path)
        assert code == cli.EXIT_CONFIG
        assert f"config error: {message}" in err
        assert written == []

    @pytest.mark.parametrize("flag", ["--flip-bangbang-orientation", "--clamp-efforts",
                                      "--no-clamp-efforts"])
    def test_solve_takes_no_macro_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", flag])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


def test_nan_in_lq_model_is_reported_as_non_finite():
    # catches: the finite check after the symmetry check, which called a NaN
    # in Q "Q[0] is not symmetric"
    eye, zero = [[[1.0]]], [[[0.0]]]
    with pytest.raises(ValueError, match="^Q must be finite$"):
        RegimeLQModel(A=zero, B=eye, D=zero, Sigma=zero, Q=[[[float("nan")]]],
                      R=eye, S=eye, Q_T=zero)
    with pytest.raises(ValueError, match=r"^B must be a stack \(N, \., \.\), got \(1, 1\)$"):
        RegimeLQModel(A=zero, B=[[1.0]], D=zero, Sigma=zero, Q=eye, R=eye, S=eye,
                      Q_T=zero)


class TestCalibrateBounds:
    # catches: bounds left to calib.calibrate, which read the whole CSV first
    # and failed with "math domain error" or a clustering error
    BAD = [("window", 1, "calibrate.window must be at least 2, got 1"),
           ("n_regimes", 0, "calibrate.n_regimes must be at least 1, got 0"),
           ("annualization", -5, "calibrate.annualization must be a finite number above 0"),
           ("annualization", 0, "calibrate.annualization must be a finite number above 0"),
           ("annualization", float("nan"),
            "calibrate.annualization must be a finite number above 0"),
           ("annualization", float("inf"),
            "calibrate.annualization must be a finite number above 0")]

    @pytest.mark.parametrize("key,value,message", BAD,
                             ids=[f"{k}={v}" for k, v, _ in BAD])
    def test_out_of_range_before_the_csv_is_read(self, tmp_path, monkeypatch, key,
                                                 value, message):
        def unread(path):
            raise AssertionError("the CSV was read before the config was checked")

        monkeypatch.setattr(cli.calib, "load_ohlcv_csv", unread)
        code, err, written = run_cli("calibrate", {"calibrate": {key: value}}, tmp_path)
        assert code == cli.EXIT_CONFIG
        assert f"config error: {message}" in err
        assert written == []

    def test_bounds_are_inclusive(self, tmp_path):
        write_bars(os.path.join(tmp_path, "bars.csv"))
        tree = {"calibrate": {"window": 2, "n_regimes": 1, "annualization": 1e-6}}
        code, err, written = run_cli("calibrate", tree, tmp_path)
        assert (code, written) == (0, ["calibration.json"]), err


class TestFalsyRootAndSections:
    """A config root or a command's section that is false, 0, [] or "" is
    not a mapping: it exits 2, names the root or the section and writes
    nothing.  Only null, like an empty mapping, leaves it out."""

    SOLVE = shipped("solve_two_regime.yaml")
    COMMANDS = {"calibrate": ("calibrate",), "solve": ("grid", "lq", "outer"),
                "mm": ("as_model", "mm"), "simulate": ("as_model", "sim")}
    SECTIONS = [(command, section) for command, sections in COMMANDS.items()
                for section in sections]
    FALSY = [False, 0, [], ""]

    def base(self, command):
        return copy.deepcopy(self.SOLVE) if command == "solve" else {}

    def refused(self, tmp_path, command, tree, message):
        write_bars(os.path.join(tmp_path, "bars.csv"))  # calibrate reads it
        code, err, written = run_cli(command, tree, tmp_path)
        assert code == cli.EXIT_CONFIG, err
        assert f"config error: {message}" in err
        assert written == []

    @pytest.mark.parametrize("value", FALSY, ids=repr)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_falsy_root_is_refused(self, tmp_path, command, value):
        self.refused(tmp_path, command, value,
                     f"config root must be a mapping, got {value!r}")

    @pytest.mark.parametrize("value", FALSY, ids=repr)
    @pytest.mark.parametrize("command,section", SECTIONS)
    def test_falsy_section_is_refused(self, tmp_path, command, section, value):
        tree = {**self.base(command), section: value}
        self.refused(tmp_path, command, tree,
                     f"{section} must be a mapping, got {value!r}")

    @staticmethod
    def resolved(tmp_path, command, text):
        """load_config on a file holding text: the config, or the message
        of its ConfigError."""
        path = os.path.join(tmp_path, "config.yaml")
        with open(path, "w") as handle:
            handle.write(text)
        try:
            return cli.load_config(path, command)
        except cli.ConfigError as exc:
            return str(exc)

    @pytest.mark.parametrize("text", ["", "null\n", "{}\n"], ids=repr)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_null_or_empty_root_is_the_defaults(self, tmp_path, command, text):
        assert self.resolved(tmp_path, command, text) == \
            self.resolved(tmp_path, command, "{}\n")
        if command != "solve":  # solve has required fields
            assert self.resolved(tmp_path, command, text) == \
                cli.load_config(None, command)

    @pytest.mark.parametrize("value", [None, {}], ids=repr)
    @pytest.mark.parametrize("command,section", SECTIONS)
    def test_null_or_empty_section_is_absent(self, tmp_path, command, section, value):
        without = {k: v for k, v in self.base(command).items() if k != section}
        given = {**without, section: value}
        assert self.resolved(tmp_path, command, yaml.safe_dump(given)) == \
            self.resolved(tmp_path, command, yaml.safe_dump(without))


class TestFlagValues:
    BAD = [("mm", "--steps", "-4"), ("mm", "--steps", "0"), ("mm", "--steps", "x"),
           ("simulate", "--steps", "0"), ("simulate", "--paths", "0"),
           ("simulate", "--paths", "-3"), ("simulate", "--seed", "-1"),
           ("simulate", "--seed", "1.5")]

    @pytest.mark.parametrize("command,flag,value", BAD,
                             ids=[f"{c}{f}={v}" for c, f, v in BAD])
    def test_bad_value_is_a_usage_error(self, tmp_path, capsys, command, flag, value):
        # catches: type=int, which let -4 through to "n_steps must be at least 1"
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--out", str(out), f"{flag}={value}"])
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_zero_is_accepted(self):
        args = cli.build_parser().parse_args(["simulate", "--seed", "0", "--paths", "1"])
        assert (args.seed, args.paths) == (0, 1)


# ---------------------------------------------------------------- mutations ---

# a base config for each shipped file and each command's defaults; the
# second mm base turns the macro game and the xi sweep on, so their fields
# are mutated too
BASES = {
    "calibrate defaults": ("calibrate", {}),
    "solve_two_regime.yaml": ("solve", shipped("solve_two_regime.yaml")),
    "mm defaults": ("mm", {}),
    "mm macro and sweep": ("mm", {"mm": {"xi_sweep": [5.0, 20.0], "macro": MACRO}}),
    "simulate defaults": ("simulate", {}),
    "simulate_reference.yaml": ("simulate", shipped("simulate_reference.yaml")),
    "simulate_lively.yaml": ("simulate", shipped("simulate_lively.yaml")),
}
# the model field an as_model error names, where it is not the key
MODEL_FIELD = {"horizon_hours": "horizon", "mu_per_day": "rates"}


def resolved_fields(tree, prefix=""):
    """Every FIELDS path under the resolved sections of tree."""
    for key, value in tree.items():
        path = f"{prefix}{key}"
        if path in cli.FIELDS:
            yield path
        if isinstance(value, dict):
            yield from resolved_fields(value, f"{path}.")


def resolve_base(command, base):
    with tempfile.TemporaryDirectory() as workdir:
        config = os.path.join(workdir, "base.yaml")
        with open(config, "w") as handle:
            yaml.safe_dump(base, handle)
        return cli.load_config(config, command)


RESOLVED = {name: resolve_base(command, base) for name, (command, base) in BASES.items()}
TARGETS = [(name, path) for name, tree in RESOLVED.items() for path in resolved_fields(tree)]


def first_element_set(value, x):
    """value with its first scalar replaced by x ([x] for an empty list)."""
    if not value:
        return [x]
    value = copy.deepcopy(value)
    inner = value
    while isinstance(inner[0], list):
        inner = inner[0]
    inner[0] = x
    return value


@st.composite
def mutations(draw):
    """(base name, field path, mutation, mutated tree, expect).  expect is
    None when the mutation may also run (a value out of range), the text the
    error must hold for an unknown key, and "" when the error must name the
    field's section and key."""
    name, path = draw(st.sampled_from(TARGETS))
    tree = copy.deepcopy(RESOLVED[name])
    kind = cli.FIELDS[path][0]
    node = tree
    for part in path.split(".")[:-1]:
        node = node[part]
    leaf = path.split(".")[-1]
    value = node[leaf]
    is_array = kind in ("list", "matrix") and value is not None
    choice = draw(st.sampled_from(["unknown key", "quoted bool", "wrong type", "nan",
                                   "inf", "list/scalar", "out of range"]))
    expect = ""
    if choice == "out of range" and not kind.startswith(("int", "number")):
        choice = "unknown key"  # no range for this kind
    if choice == "unknown key":
        node["bogus_key"] = 1.0
        expect = f"unknown key {'.'.join(path.split('.')[:-1])}.bogus_key"
    elif choice == "quoted bool":
        node[leaf] = draw(st.sampled_from(["false", "true", "no", "yes", "off"]))
    elif choice == "wrong type":
        node[leaf] = draw(st.sampled_from(["abc", {"bogus_key": 1}]))
        if kind == "section" and node[leaf] != "abc":
            expect = f"unknown key {path}.bogus_key"
    elif choice in ("nan", "inf"):
        x = draw(st.sampled_from([math.inf, -math.inf])) if choice == "inf" else math.nan
        node[leaf] = first_element_set(value, x) if is_array else x
    elif choice == "list/scalar":
        node[leaf] = 1.5 if kind in ("list", "matrix", "section") else [value]
    else:
        node[leaf] = draw(st.sampled_from([-1, 0]))
        expect = None
    return name, path, choice, tree, expect


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutations())
def test_one_mutated_field_is_a_named_config_error_or_runs(mutation):
    # catches, each in a scratch copy: bool() for the bool kind (a quoted
    # "false" ran with the predator on), the xi-sweep models built after
    # theta_quotes.csv is written, and a number kind that lets text through
    name, path, choice, tree, expect = mutation
    command = BASES[name][0]
    *parents, leaf = path.split(".")
    section = ".".join(parents)
    # shorter simulate runs; sim.n_paths keeps its own value so its range
    # check still runs
    flags = ["--paths", "8"] if command == "simulate" and path != "sim.n_paths" else []
    with tempfile.TemporaryDirectory() as workdir:
        if command == "calibrate":
            write_bars(os.path.join(workdir, "bars.csv"))
        code, err, written = run_cli(command, tree, workdir, *flags)
    if code == cli.EXIT_OK and expect is None:
        return
    assert code == cli.EXIT_CONFIG, (name, path, choice, code, err)
    assert err.startswith("config error: "), (name, path, choice, err)
    if expect:
        assert expect in err, (name, path, choice, err)
    else:
        assert section in err and (leaf in err or MODEL_FIELD.get(leaf, "?") in err), \
            (name, path, choice, err)
    assert written == [], (name, path, choice)
