"""OHLCV regime calibration: rolling volatility, 1-D clustering, rates.

One `np.loadtxt` parses the CSV body column-wise; a non-finite value is an
error that names its column and line.  Each bar is labelled by clustering
its trailing log-return volatility, reduced over sliding-window views in
blocks of `VOL_BLOCK` windows, and the switching generator is estimated
from the labels.  Rate estimation prefers the matrix logarithm of the
empirical bar-transition matrix (numkit.logm, real by construction), which
undoes the aliasing of fast chains observed at coarse bars; when no real
generator log exists (an eigenvalue on the closed negative real axis, e.g.
labels alternating every bar) or the log is not a generator, it falls back
to direct transition counting, whose small-step limit it matches.
"""

import csv
import math
import re
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import numkit

COLUMNS = ("timestamp", "open", "high", "low", "close", "volume")  # OhlcvSeries order
VOL_BLOCK = 4096  # windows per std reduction: bounds the temporaries


@dataclass
class OhlcvSeries:
    timestamps: np.ndarray  # epoch seconds
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    volume: np.ndarray

    def __post_init__(self):
        n = len(self.timestamps)
        for name in ("timestamps", *COLUMNS[1:]):
            values = getattr(self, name)
            if len(values) != n:
                raise ValueError(f"column {name} has wrong length")
            if not np.all(np.isfinite(values)):
                raise ValueError(f"column {name} is not finite")
        if n < 2:
            raise ValueError("need at least two bars")
        dts = np.diff(self.timestamps)
        if np.any(dts <= 0):
            raise ValueError("timestamps must be strictly increasing")
        if not np.allclose(dts, dts[0], rtol=1e-6, atol=1e-6):
            raise ValueError("bar interval must be constant")
        for name in ("open", "high", "low", "close"):
            if np.any(getattr(self, name) <= 0):
                raise ValueError(f"non-positive prices in column {name}")

    @property
    def bar_seconds(self) -> float:
        return float(self.timestamps[1] - self.timestamps[0])


def _parse_timestamp(raw: str) -> float:
    """Epoch seconds; numeric wins over RFC-3339 when both would parse, and
    an RFC-3339 time with no zone is UTC, whatever the host's zone."""
    raw = raw.strip()
    try:
        return float(raw)
    except ValueError:
        pass
    try:
        stamp = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except ValueError as exc:
        raise ValueError(f"cannot parse timestamp {raw!r}") from exc
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.timestamp()


def load_ohlcv_csv(path) -> OhlcvSeries:
    """Read a CSV whose header names the COLUMNS in any order; other
    columns are ignored."""
    with open(path, newline="") as handle:
        header = next(csv.reader(handle), [])
        index = {name: i for i, name in enumerate(header)}
        missing = [c for c in COLUMNS if c not in index]
        if missing:
            raise ValueError(f"missing column(s) {', '.join(missing)} in {path}")
        try:
            with warnings.catch_warnings():  # a bare header fails as too few bars
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(
                    handle, delimiter=",", comments=None, quotechar='"',
                    usecols=[index[c] for c in COLUMNS], unpack=True, ndmin=2,
                    converters={index["timestamp"]: _parse_timestamp})
        except ValueError as exc:
            raise _located(path, header, exc) from exc
    for name, values in zip(COLUMNS, data):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValueError(f"{path}:{_file_line(path, bad[0])}: {name} is not finite")
    return OhlcvSeries(*data)


def _file_line(path, row: int) -> int:
    """The file line on which data row `row` (from 0, blank lines skipped,
    as np.loadtxt counts) starts; re-reads the file, for error messages."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        next(reader, None)
        start = reader.line_num + 1
        for record in reader:
            if record:
                if row == 0:
                    break
                row -= 1
            start = reader.line_num + 1
    return start


def _located(path, header, exc) -> ValueError:
    """np.loadtxt's "... at row R[, column C]" error as "{path}:{line}: ..."."""
    msg = str(exc)
    at = re.search(r" at row (\d+)(?:, column (\d+))?", msg)
    if at is None:
        return ValueError(f"{path}: {msg}")
    # numpy counts rows from 0 in conversion errors, from 1 in short-row ones
    line = _file_line(path, int(at[1]) - (at[2] is None))
    column = f"{header[int(at[2]) - 1]}: " if at[2] else ""
    return ValueError(f"{path}:{line}: {column}{msg[:at.start()]}{msg[at.end():]}")


def rolling_volatility(series: OhlcvSeries, window: int,
                       annualization: float) -> np.ndarray:
    """Annualized trailing volatility per bar.

    The value at bar t is the sample standard deviation (ddof=1) of the
    last `window` close-to-close log returns, times sqrt(annualization);
    bars without a full window of returns are NaN.
    """
    if window < 2:
        raise ValueError("window must be at least 2")
    n = len(series.close)
    if n <= window:
        raise ValueError("series shorter than the volatility window")
    windows = np.lib.stride_tricks.sliding_window_view(
        np.diff(np.log(series.close)), window)
    out = np.full(n, np.nan)
    scale = math.sqrt(annualization)
    for lo in range(0, len(windows), VOL_BLOCK):
        block = windows[lo:lo + VOL_BLOCK]
        out[window + lo:window + lo + len(block)] = block.std(axis=1, ddof=1) * scale
    return out


def kmeans_1d(values, k: int):
    """Lloyd iteration on scalars with deterministic quantile seeding.

    Centers start at the (2j+1)/(2k) quantiles, ties in assignment go to
    the lower cluster, and the result is sorted so centers ascend.
    Returns (centers, labels).
    """
    values = np.asarray(values, dtype=float)
    if k < 1:
        raise ValueError("k must be at least 1")
    if np.unique(values).size < k:
        raise ValueError(f"need at least {k} distinct values for {k} clusters")
    centers = np.quantile(values, [(2 * j + 1) / (2 * k) for j in range(k)])
    labels = np.zeros(values.size, dtype=int)
    for _ in range(300):
        dists = np.abs(values[:, None] - centers[None, :])
        new_labels = np.argmin(dists, axis=1)
        new_centers = centers.copy()
        for j in range(k):
            members = values[new_labels == j]
            if members.size:
                new_centers[j] = members.mean()
        if np.array_equal(new_labels, labels) and np.allclose(new_centers, centers):
            break
        labels, centers = new_labels, new_centers
    order = np.argsort(centers)
    remap = np.empty(k, dtype=int)
    remap[order] = np.arange(k)
    return centers[order], remap[labels]


def estimate_generator(labels, bar_interval_days: float,
                       n_states: int = None) -> np.ndarray:
    """Switching generator (per day) from a per-bar label sequence.

    Takes the matrix logarithm of the empirical one-bar transition matrix
    when it admits a real generator (de-aliased estimate), otherwise counts
    transitions directly:
    mu_ij = (# transitions i->j) / (time spent in state i).
    States never visited get zero rows with a warning.
    """
    labels = np.asarray(labels, dtype=int)
    if labels.size < 2:
        raise ValueError("need at least two bars of labels")
    if bar_interval_days <= 0:
        raise ValueError("bar interval must be positive")
    n = int(labels.max()) + 1 if n_states is None else n_states
    counts = np.zeros((n, n))
    np.add.at(counts, (labels[:-1], labels[1:]), 1.0)
    occupancy = counts.sum(axis=1)  # source bars per state
    missing = np.nonzero(occupancy == 0)[0]
    if missing.size:
        warnings.warn(
            f"states never visited: {missing.tolist()}; their rates are zero"
        )

    G = _generator_from_logm(counts, occupancy, bar_interval_days)
    if G is not None:
        return G
    rates = np.zeros((n, n))
    visited = occupancy > 0
    rates[visited] = counts[visited] / (occupancy[visited, None] * bar_interval_days)
    return numkit.generator(rates)


def _generator_from_logm(counts, occupancy, bar_interval_days):
    """numkit.logm(P_hat)/dt when P_hat has a real principal logarithm and
    that is a generator (no off-diagonal entry below -1e-8 of the largest);
    None otherwise."""
    n = counts.shape[0]
    P = np.eye(n)
    visited = occupancy > 0
    P[visited] = counts[visited] / occupancy[visited, None]
    # the principal logarithm is real unless an eigenvalue lies on the
    # closed negative real axis
    eigs = np.linalg.eigvals(P)
    if np.any((eigs.real <= 1e-10) & (np.abs(eigs.imag) <= 1e-10)):
        return None
    G = numkit.logm(P) / bar_interval_days
    off = G - np.diag(np.diag(G))
    if off.min() < -1e-8 * max(1.0, np.abs(G).max()):
        return None
    off = np.maximum(off, 0.0)
    off[~visited] = 0.0
    return numkit.generator(off)


def label_runs(labels) -> list:
    """(label, length) of each run of equal consecutive labels."""
    labels = np.asarray(labels, dtype=int)
    starts = np.flatnonzero(np.r_[labels.size > 0, labels[1:] != labels[:-1]])
    lengths = np.diff(np.append(starts, labels.size))
    return list(zip(labels[starts].tolist(), lengths.tolist()))


def calibrate(series: OhlcvSeries, window: int = 48,
              annualization: float = 365.0 * 48.0,
              n_regimes: int = 2) -> dict:
    """Full pipeline: rolling volatility, k-means labels, rate estimation.

    Returns the dict that calibration.json holds: the regimes' annualized
    sigmas, which are the cluster centers in ascending order (regime 0 is
    the calm one), the generator per day, window, annualization, and the
    (label, length) runs of the labels.  Warm-up bars (no full window) are
    excluded from clustering and rate estimation.  The default annualization
    assumes 30-minute bars on a 24/7 market (365 * 48 bars per year).
    """
    vol = rolling_volatility(series, window, annualization)
    centers, labels = kmeans_1d(vol[window:], n_regimes)
    bar_days = series.bar_seconds / 86400.0
    generator = estimate_generator(labels, bar_days, n_states=n_regimes)
    return {"sigmas": centers.tolist(), "generator_per_day": generator.tolist(),
            "window": window, "annualization": annualization,
            "run_lengths": label_runs(labels)}
