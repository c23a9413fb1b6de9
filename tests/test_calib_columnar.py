"""The columnar calib pipeline against the per-row and per-bar loops it
replaced (tests/oracles.py), plus the errors of malformed and non-finite
input."""

import csv
import io
import re
import time
import tracemalloc
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from rsgames import calib, cli
from rsgames.calib import OhlcvSeries

FIELDS = ("timestamps", "open", "high", "low", "close", "volume")


def bars_text(n, seed=0, columns=calib.COLUMNS, bar_seconds=1800):
    """A valid OHLCV CSV of n bars with its header in the given order."""
    rng = np.random.default_rng(seed)
    close = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, n)))
    cells = {"timestamp": [str(1700000000 + bar_seconds * b) for b in range(n)],
             "open": close.tolist(), "high": (close * 1.001).tolist(),
             "low": (close * 0.999).tolist(), "close": close.tolist(),
             "volume": rng.uniform(1.0, 9.0, n).tolist()}
    rows = zip(*[[c if isinstance(c, str) else repr(c) for c in cells[name]]
                 for name in columns])
    return ",".join(columns) + "\n" + "".join(",".join(r) + "\n" for r in rows)


def replace_cell(text, line, column, value):
    """text with the cell of `column` on file line `line` (from 1) replaced."""
    lines = text.split("\n")
    cells = lines[line - 1].split(",")
    cells[lines[0].split(",").index(column)] = value
    lines[line - 1] = ",".join(cells)
    return "\n".join(lines)


def assert_same_series(a, b):
    for name in FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


# ----------------------------------------------------------------- loader ---

@st.composite
def ohlcv_files(draw):
    """CSV text: permuted columns, an extra text column, numeric or RFC-3339
    timestamps, repr-formatted floats and either line terminator."""
    n = draw(st.integers(2, 60))
    bar = draw(st.sampled_from([1, 60, 1800, 86400]))
    t0 = draw(st.integers(1_000_000_000, 2_000_000_000))
    zone = draw(st.sampled_from(["Z", "+00:00", None]))  # None: epoch seconds
    prices = st.floats(1e-6, 1e9, allow_nan=False, allow_infinity=False)
    cols = {name: draw(st.lists(prices, min_size=n, max_size=n))
            for name in ("open", "high", "low", "close")}
    cols["volume"] = draw(st.lists(st.floats(0.0, 1e12, allow_nan=False,
                                             allow_infinity=False),
                                   min_size=n, max_size=n))
    if zone is None:
        cols["timestamp"] = [str(t0 + bar * b) for b in range(n)]
    else:
        cols["timestamp"] = [
            datetime.fromtimestamp(t0 + bar * b, tz=timezone.utc)
            .isoformat().replace("+00:00", zone) for b in range(n)]
    cols["note"] = draw(st.lists(st.text("ab ,\"-x", max_size=6),
                                 min_size=n, max_size=n))
    header = draw(st.permutations([*calib.COLUMNS, "note"]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(header)
    for b in range(n):
        writer.writerow([c if isinstance(c, str) else repr(c)
                         for c in (cols[name][b] for name in header)])
    return buf.getvalue()


@settings(max_examples=150, deadline=None)
@given(text=ohlcv_files())
def test_loader_matches_row_oracle(tmp_path_factory, text):
    # catches: reading the columns by position instead of by header name
    path = tmp_path_factory.mktemp("csv") / "bars.csv"
    path.write_text(text, newline="")
    assert_same_series(calib.load_ohlcv_csv(path), oracles.load_ohlcv_csv_oracle(path))


def test_loader_takes_the_last_of_duplicate_columns(tmp_path):
    # csv.DictReader keeps the last of two equal header names
    path = tmp_path / "bars.csv"
    path.write_text("close,timestamp,open,high,low,close,volume\n"
                    "9,0,1,1,1,1.5,1\n9,60,1,1,1,2.5,1\n")
    np.testing.assert_array_equal(calib.load_ohlcv_csv(path).close, [1.5, 2.5])


def test_loader_skips_blank_lines_like_the_oracle(tmp_path):
    path = tmp_path / "bars.csv"
    text = bars_text(6)
    path.write_text(text.replace("\n", "\n\n", 3))
    assert_same_series(calib.load_ohlcv_csv(path), oracles.load_ohlcv_csv_oracle(path))


MALFORMED = [("close", "abc"), ("open", ""), ("timestamp", "noon"),
             ("volume", "1.2.3"), ("high", "1_0")]


@pytest.mark.parametrize("column,cell", MALFORMED,
                         ids=[f"{c}={v!r}" for c, v in MALFORMED])
def test_malformed_cell_names_its_line(tmp_path, capsys, column, cell):
    # catches: an off-by-one line number
    path = tmp_path / "bars.csv"
    text = bars_text(40, columns=("volume", *calib.COLUMNS[:5]))
    path.write_text(replace_cell(text, 17, column, cell))
    where = re.escape(f"{path}:17: {column}: ")
    with pytest.raises(ValueError, match=f"^{where}") as exc:
        calib.load_ohlcv_csv(path)
    assert repr(cell) in str(exc.value)
    out = tmp_path / "out"
    assert cli.main(["calibrate", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert f"{path}:17: " in capsys.readouterr().err
    assert not (out / "calibration.json").exists()


@pytest.mark.parametrize("blank_lines", [0, 2])
def test_short_row_line_as_the_oracle_counts(tmp_path, blank_lines):
    # the short row's true file line, blank lines counted; numpy numbers
    # short-row errors from 1, not 0
    lines = bars_text(10).split("\n")
    lines[5] = ",".join(lines[5].split(",")[:4])
    lines[2:2] = [""] * blank_lines
    path = tmp_path / "bars.csv"
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError) as new:
        calib.load_ohlcv_csv(path)
    with pytest.raises(ValueError) as old:
        oracles.load_ohlcv_csv_oracle(path)
    prefix = f"{path}:{6 + blank_lines}: "
    assert str(new.value).startswith(prefix)
    assert str(old.value).startswith(prefix)


@pytest.mark.parametrize("line, column, cell, message", [
    (6, "open", "x", "open: could not convert"),
    (5, "close", "nan", "close is not finite"),
])
def test_error_names_the_file_line_past_blanks_and_quoted_newlines(
        tmp_path, line, column, cell, message):
    # two blank lines after the first bar, and a quoted volume cell that
    # spans two lines; catches: reporting data row + 2
    lines = bars_text(10).split("\n")
    lines[2:2] = ["", ""]
    text = replace_cell("\n".join(lines), line, column, cell)
    path = tmp_path / "bars.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:{line}: {message}')}"):
        calib.load_ohlcv_csv(path)
    lines = text.split("\n")
    lines[1] = lines[1].rsplit(",", 1)[0] + ',"1.5\n"'
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:{line + 1}: {message}')}"):
        calib.load_ohlcv_csv(path)


NON_FINITE = ["nan", "inf", "-inf"]


@pytest.mark.parametrize("column", ["close", "volume", "timestamp"])
@pytest.mark.parametrize("value", NON_FINITE)
def test_non_finite_cell_is_rejected(tmp_path, capsys, column, value):
    # catches: a `<= 0` price check that NaN passes, and warm-up dropping
    # of NaN volatilities that joins the labels on either side of the gap
    path = tmp_path / "bars.csv"
    path.write_text(replace_cell(bars_text(400), 201, column, value))
    where = re.escape(f"{path}:201: {column} is not finite")
    with pytest.raises(ValueError, match=f"^{where}"):
        calib.load_ohlcv_csv(path)
    cfg = tmp_path / "cal.yaml"
    cfg.write_text("calibrate:\n  window: 12\n")
    out = tmp_path / "out"
    code = cli.main(["calibrate", str(path), "--config", str(cfg), "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert f"{column} is not finite" in capsys.readouterr().err
    assert not (out / "calibration.json").exists()


@pytest.mark.parametrize("field", FIELDS)
def test_series_rejects_non_finite(field):
    cols = {name: np.linspace(1.0, 2.0, 5) for name in FIELDS}
    cols["timestamps"] = np.arange(5) * 60.0
    cols[field] = cols[field].copy()
    cols[field][3] = np.nan
    with pytest.raises(ValueError, match=f"column {field} is not finite"):
        OhlcvSeries(**cols)



# POSIX rules, so the zones need no tz database; New York leaves daylight
# saving at 2025-11-02 02:00 local time
ZONES = ["UTC0", "EST5EDT,M3.2.0,M11.1.0", "IST-5:30"]


@pytest.fixture
def host_zone(monkeypatch):
    """set_zone(name) makes name the process's local time zone until the
    test ends."""
    def set_zone(name):
        monkeypatch.setenv("TZ", name)
        time.tzset()

    yield set_zone
    monkeypatch.undo()
    time.tzset()


@pytest.mark.parametrize("zone", ZONES)
def test_zone_less_timestamp_is_utc(host_zone, zone):
    # catches: datetime.timestamp() on a naive time, which reads it in the
    # host's zone (1765083600 under New York)
    host_zone(zone)
    assert calib._parse_timestamp("2025-12-07T00:00:00") == 1765065600.0
    assert calib._parse_timestamp("2025-12-07T00:00:00") == \
        calib._parse_timestamp("2025-12-07T00:00:00Z")
    assert calib._parse_timestamp("2025-12-07T00:00:00+01:00") == 1765062000.0


@pytest.mark.parametrize("zone", ZONES)
def test_zone_less_series_across_dst_change(tmp_path, host_zone, zone):
    # 48 half-hour bars through New York's fall-back hour: read as UTC they
    # keep a constant interval under every host zone
    host_zone(zone)
    lines = ["timestamp,open,high,low,close,volume"]
    for b in range(48):
        stamp = datetime.fromtimestamp(1761998400 + 1800 * b, tz=timezone.utc)
        lines.append(f"{stamp.replace(tzinfo=None).isoformat()},1,1,1,{1 + b % 3},1")
    path = tmp_path / "bars.csv"
    path.write_text("\n".join(lines) + "\n")
    series = calib.load_ohlcv_csv(path)  # raised "bar interval must be constant"
    assert series.timestamps[0] == 1761998400.0  # 2025-11-01T12:00:00Z
    assert np.all(np.diff(series.timestamps) == 1800.0)


# ------------------------------------------------------------- volatility ---

def random_series(n, seed):
    rng = np.random.default_rng(seed)
    returns = rng.normal(0.0, rng.uniform(1e-4, 0.05), n - 1)
    returns[rng.random(n - 1) < 0.1] = 0.0  # flat stretches
    close = 50.0 * np.exp(np.concatenate([[0.0], np.cumsum(returns)]))
    return OhlcvSeries(np.arange(n) * 60.0, close, close, close, close, np.ones(n))


@settings(max_examples=60, deadline=None)
@given(window=st.integers(2, 200), extra=st.integers(1, 4800),
       seed=st.integers(0, 2**32 - 1))
def test_volatility_matches_per_bar_oracle(window, extra, seed):
    series = random_series(window + extra, seed)
    assert np.array_equal(calib.rolling_volatility(series, window, 17520.0),
                          oracles.rolling_volatility_oracle(series, window, 17520.0),
                          equal_nan=True)


@pytest.mark.parametrize("extra", [calib.VOL_BLOCK - 1, calib.VOL_BLOCK,
                                   calib.VOL_BLOCK + 1, 2 * calib.VOL_BLOCK + 1])
@pytest.mark.parametrize("window", [2, 48, 200])
def test_volatility_at_block_boundaries(window, extra):
    # n - window windows: one short of, exactly, and one past a block
    series = random_series(window + extra, seed=window + extra)
    assert np.array_equal(calib.rolling_volatility(series, window, 365.0),
                          oracles.rolling_volatility_oracle(series, window, 365.0),
                          equal_nan=True)


def test_volatility_memory_is_blocked():
    # catches: one unblocked std over all n windows, an (n x window) temporary
    n, window = 50_000, 48
    series = random_series(n, seed=7)
    tracemalloc.start()
    try:
        calib.rolling_volatility(series, window, 17520.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * window * 8 / 4


# ---------------------------------------------------------------- runs ---

@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=300))
def test_label_runs_match_loop(labels):
    assert calib.label_runs(labels) == oracles.label_runs_oracle(labels)


@pytest.mark.parametrize("labels,runs", [([], []), ([2], [(2, 1)]),
                                         ([1, 1, 1], [(1, 3)]),
                                         ([0, 1, 1, 0], [(0, 1), (1, 2), (0, 1)])])
def test_label_runs_edge_cases(labels, runs):
    got = calib.label_runs(np.array(labels, dtype=int))
    assert got == runs
    assert all(type(x) is int for run in got for x in run)
