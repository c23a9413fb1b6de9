"""Seeded Monte-Carlo replay of the regime-switching market.

Randomness is a Philox counter stream per path: stream p is seeded by
SeedSequence(seed, spawn_key=(p,)), the p-th spawn of SeedSequence(seed),
and draws all 3 n_steps uniforms (per step: regime, ask fill, bid fill),
then all n_steps standard normals (price shocks).  run_monte_carlo replays
the paths CHUNK_PATHS at a time, and a chunk STREAM_BLOCK steps at a time:
it draws the block's streams (generate_streams, from the chunk's
PathStreams) and replays every strategy on them in one step loop (common
random numbers) before it draws the next block, so fill comparisons differ
only through the quote tables.  The calling thread draws the first half of
a block's paths and a helper thread the second, while numpy's fill loops
release the GIL; each path is drawn by one thread, so the streams do not
depend on the split.  A chunk holds its streams one block at a time and its
exported paths' records whole (_chunk counts both).  What grows with
n_steps, the quote tables and the first chunk's records, max_steps bounds by
STEP_BUDGET_BYTES.  run_paths carries the chunk's ReplayState from block to
block and works through a block REPLAY_BLOCK steps at a time.  Per replay
block it finds what no policy changes: the regime path of step 1 below (the
block's candidate exits in one pass, then one table lookup per step), the
price noise and each path's table offset.  So the step loop does only the
work that depends on the policy, steps 2 to 5, and nothing a replay holds
depends on either block size.  Report statistics are accumulated per path
and reduced once, in path order, over all paths, so the report does not
depend on the chunk size.  Exported paths come from the same replay:
ReplayState.rec holds a chunk's first paths under the last policy as
{column: values} over RECORD_DTYPES, handed out chunk by chunk.

Step order (one step of size dt = horizon / n_steps):
    1. regime transition: leave with prob 1 - exp(-|mu_ii| dt), the single
       uniform is rescaled to pick the target proportionally to mu_ij
    2. predator drift w = -xi*gamma*q (0 if the predator is disabled)
    3. price Euler update S += w dt + sigma_i sqrt(dt) Z
    4. per active side, fill with prob 1 - exp(-A exp(-k u) dt), at most
       one unit per side per step; fills execute at S + u_a / S - u_b; the
       ask (bid) quote is NaN at q = -q_max (+q_max) and never fills
    5. cash and inventory update

Terminal PnL is m_T + q_T S_T (mark-to-market at mid).
"""

import dataclasses
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from . import as_game
from .as_game import ASModel
from .numkit import NumericalError, student_t_sf

# run_monte_carlo replays paths in chunks of this many, which keeps the
# reference run (1000 paths) in one.  A path takes the same in a chunk
# whatever n_steps is, one STREAM_BLOCK of streams (18 KB) and its share of
# the replay buffers, but for its record if exported.  5000 x 2880 paths
# peaked at 69 MB RSS in chunks of 1024 and at 134 MB in chunks of 4096
CHUNK_PATHS = 1024

POLICY_KINDS = ("vanilla", "equilibrium")  # stack order: the replay records the last

# max_steps bounds what grows with n_steps, the quote tables and one chunk's
# records, by this many bytes: 399 456 steps on the reference market.
# Building the second table peaks at about 1.6 times the tables held
STEP_BUDGET_BYTES = 2**30

# the columns of path_NNNN.csv after step and time, and their dtypes
RECORD_DTYPES = {"price": np.float64, "regime": np.int64, "inventory": np.int64,
                 "cash": np.float64, "u_a": np.float64, "u_b": np.float64,
                 "drift": np.float64, "ask_fill": np.int8, "bid_fill": np.int8}
RECORD_BYTES_PER_STEP = sum(np.dtype(t).itemsize for t in RECORD_DTYPES.values())

# run_paths finds the regime path, price noise and table offsets of this
# many steps at a time, in buffers of 33 bytes per path-step (about 2 MB for
# the reference run, the fill uniforms copied step-major included); blocks
# of 64 to 256 steps replayed it equally fast
REPLAY_BLOCK = 64

# run_monte_carlo draws a chunk's streams this many steps at a time, a whole
# number of REPLAY_BLOCKs, and replays each block before it draws the next.
# A path's uniforms then take 13 824 bytes per block.  At 512 steps they
# take 12 288, a multiple of 4 KiB: the replay's strided reads across paths
# (the step-major copy, the regime and noise passes) then fall into the same
# cache sets, and the reference run was a few per cent slower; 320 to 960
# steps replayed it about equally fast.  One block for draws and replay, 64
# steps, took the reference run's peak RSS from 67 to 51 MB but its time
# from 0.336-0.385 s to 0.409-0.438 s (6 pairs), so the two stay apart
STREAM_BLOCK = 9 * REPLAY_BLOCK


@dataclass
class SimConfig:
    model: ASModel
    n_paths: int = 1000
    n_steps: int = 2880
    seed: int = 20251212
    predator: bool = True
    initial_regime: int = 0

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if not 0 <= self.initial_regime < self.model.n_regimes:
            raise ValueError(f"initial_regime {self.initial_regime} out of range")

    @property
    def dt(self) -> float:
        return self.model.horizon / self.n_steps


@dataclass
class QuotePolicy:
    """A strategy's replay lookups on the simulation grid (tau ascending),
    priced on the market `market` = (A, k, dt).  table[0] and table[1] are
    the ask and bid quotes, table[2] and table[3] the fill probability
    1 - exp(-A exp(-k u) dt) of each side.  The ask does not quote at level
    0 (q = -q_max), nor the bid at level 2*q_max (q = +q_max): their quote
    and fill probability are NaN there, which no uniform draw falls below,
    and finite elsewhere, as run_paths checks."""

    name: str
    table: np.ndarray        # (4, n_steps+1, N, 2*q_max+1)
    market: tuple

    @property
    def ask(self) -> np.ndarray:
        return self.table[0]

    @property
    def bid(self) -> np.ndarray:
        return self.table[1]


def make_policy(model: ASModel, kind: str, n_steps: int) -> QuotePolicy:
    """Quote surfaces for a strategy, priced at dt = horizon / n_steps.

    vanilla     penalty table built blind to the predator (xi = 0)
    equilibrium penalty table built with the true xi
    """
    if kind == "vanilla":
        table_model = dataclasses.replace(model, xi=0.0)
    elif kind == "equilibrium":
        table_model = model
    else:
        raise ValueError(f"unknown policy kind {kind!r}")
    theta = as_game.build_theta_table(table_model, n_steps)
    table = np.empty((4,) + theta.theta.shape)
    table[0], table[1] = as_game.quote_surfaces(theta, table_model)
    dt = model.horizon / n_steps
    # computed in place, so no table-sized temporary is made
    p = table[2:]
    np.multiply(-model.k, table[:2], out=p)
    np.exp(p, out=p)
    np.multiply(-model.A, p, out=p)
    np.multiply(p, dt, out=p)
    np.exp(p, out=p)
    np.subtract(1.0, p, out=p)
    return QuotePolicy(name=kind, table=table, market=(model.A, model.k, dt))


@dataclass
class PathStreams:
    """The streams of paths first .. first+n_paths-1, which generate_streams
    draws a block of steps at a time.  Stream p feeds a Philox generator
    from SeedSequence(seed, spawn_key=(p,)), the p-th spawn of
    SeedSequence(seed), so it depends only on (seed, p) and not on which
    chunk asks for it: all 3 n_steps uniforms, then all n_steps normals.

    The first draw opens two generators per path on its stream.  One reads
    the uniforms from the start.  The other opens at the normals: Philox is
    counter based, four 64-bit draws per counter, and a draw with the
    counter at c computes counter c + 1, so the normals start at counter
    3 n_steps // 4 after 3 n_steps % 4 draws.  The normals' ziggurat rejects
    a variable number of draws, so no later normal has a known counter: the
    second generator lives from the first block to the last.

    generate_streams draws the paths on two threads but opens the generators
    serially, in the calling thread: opening holds the GIL, and on a 2-core
    VM opening the reference run's 2000 on two threads took 14.1 ms against
    13.2 ms serially."""

    seed: int
    n_paths: int
    n_steps: int
    first: int = 0
    drawn: int = field(default=0, init=False)  # steps drawn so far
    # (uniform, normal) generators per path, opened by the first draw
    generators: list = field(default_factory=list, init=False)


def generate_streams(streams: PathStreams, steps: int | None = None):
    """The next `steps` steps of every path of `streams`, all that are left
    by default: uniforms (n_paths, steps, 3) ordered (regime, ask, bid) and
    normals (n_paths, steps).

    The calling thread draws rows [0, n_paths // 2) and one helper thread
    the rest, into the same arrays; numpy's fill loops run without the GIL,
    so the halves overlap.  Each path's generators are drawn by one thread,
    in order, so the streams do not depend on the split.  A single path is
    drawn by the caller alone.  The helper is joined before the call
    returns, and an exception raised in either half is raised here."""
    n_steps, n_paths = streams.n_steps, streams.n_paths
    left = n_steps - streams.drawn
    steps = left if steps is None else steps
    if not 0 < steps <= left:
        raise ValueError(f"asked for {steps} steps of streams with {left} left")
    if not streams.generators:
        for p in range(streams.first, streams.first + n_paths):
            seq = np.random.SeedSequence(streams.seed, spawn_key=(p,))
            normal_bits = np.random.Philox(seq, counter=3 * n_steps // 4)
            normal_bits.random_raw(3 * n_steps % 4)
            streams.generators.append((np.random.Generator(np.random.Philox(seq)),
                                       np.random.Generator(normal_bits)))
    uniforms = np.empty((n_paths, steps, 3))
    normals = np.empty((n_paths, steps))
    failed = []

    def draw(lo, hi):
        try:
            for row in range(lo, hi):
                uniform_gen, normal_gen = streams.generators[row]
                uniform_gen.random(out=uniforms[row])
                normal_gen.standard_normal(out=normals[row])
        except BaseException as exc:
            failed.append(exc)

    half = n_paths // 2 or n_paths
    helper = threading.Thread(target=draw, args=(half, n_paths))
    if half < n_paths:
        helper.start()
    try:
        draw(0, half)
    finally:
        if half < n_paths:
            helper.join()
    if failed:
        raise failed[0]
    streams.drawn += steps
    return uniforms, normals


# per-path arrays of a replay; run_monte_carlo joins them across chunks
PER_PATH = ("pnl", "fills_ask", "fills_bid", "terminal_inventory",
            "spread_sum", "spread_count", "abs_drift_sum",
            "abs_inventory_sum", "price_increment_sum")


def _regime_block(reg, u, p_leave, target_cum, cand, out):
    """The regime of every path at each step of a block: out[j, p] is path
    p's regime after the transition of step j, drawn from u[p, j] by step 1
    of the step order.  reg holds each path's regime before the block and
    is left holding it after the block's last step.

    A path leaves only at a candidate step, whose uniform is below
    max(p_leave).  Each candidate's next regime is found at once for every
    regime the path may hold there; then a step moves every path by one
    lookup in that table."""
    N = p_leave.size
    np.less(u, p_leave.max(), out=cand)
    # the candidates path by path, steps ascending; then 1.0, which no
    # regime leaves on: the entry of a step without a candidate
    x = np.append(u[cand], 1.0)
    C = x.size - 1
    # after[r, c]: the regime after candidate c met in regime r, times
    # C + 1, the row length, so that it indexes its row; a regime without
    # exits (p_leave 0) never leaves
    frac = x / np.where(p_leave > 0, p_leave, 1.0)[:, None]
    after = np.zeros((N, C + 1), dtype=np.int64)
    for j in range(N):
        after += frac >= target_cum[:, j, None]
    np.copyto(after, np.arange(N)[:, None], where=x >= p_leave[:, None])
    after = after.ravel() * (C + 1)
    # out[j, p]: path p's candidate at step j, else C; then its regime
    out.fill(C)
    out.T[cand] = np.arange(C)
    idx = np.empty(u.shape[0], dtype=np.int64)
    now = reg * (C + 1)
    for row in out:
        now = np.take(after, np.add(row, now, out=idx), out=row)
    out //= C + 1
    reg[:] = out[-1]


class ReplayState:
    """What a replay of n_paths paths under n_pol policies carries from one
    block of steps to the next: the steps replayed, each path's regime, per
    policy and path its price, cash, inventory, fill counts and report
    sums, and a row per step of config's grid for each of the first
    `record` paths under the last policy."""

    def __init__(self, config: SimConfig, n_pol: int, n_paths: int, record: int = 0):
        self.n_steps = config.n_steps
        self.step = 0
        self.reg = np.full(n_paths, config.initial_regime, dtype=np.int64)
        self.S = np.full((n_pol, n_paths), config.model.s0, dtype=float)
        self.m = np.zeros((n_pol, n_paths))
        self.q = np.zeros((n_pol, n_paths), dtype=np.int64)
        self.fills = np.zeros((2, n_pol, n_paths), dtype=np.int64)  # ask, bid
        self.spread_sum = np.zeros((n_pol, n_paths))
        self.spread_count = np.zeros((n_pol, n_paths), dtype=np.int64)
        self.abs_drift_sum = np.zeros((n_pol, n_paths))
        self.abs_q_sum = np.zeros((n_pol, n_paths), dtype=np.int64)
        self.increment_sum = np.zeros((n_pol, n_paths))
        # row s holds the last policy's values of the recorded paths at step s,
        # NaN where a side does not quote
        self.rec = {name: np.zeros((config.n_steps, record), dtype)
                    for name, dtype in RECORD_DTYPES.items()}

    def results(self):
        """One dict per policy of per-path arrays (PER_PATH), which
        _strategy_stats reduces."""
        if self.step != self.n_steps:
            raise ValueError(f"replay is at step {self.step} of {self.n_steps}")
        pnl = self.m + self.q * self.S
        per_path = (pnl, self.fills[0], self.fills[1], self.q, self.spread_sum,
                    self.spread_count, self.abs_drift_sum, self.abs_q_sum,
                    self.increment_sum)  # in PER_PATH order
        return [{key: value[k] for key, value in zip(PER_PATH, per_path)}
                for k in range(len(pnl))]


def _check_policies(config: SimConfig, policies):
    """A policy for another grid or (A, k, dt) than config's is a
    ValueError; one that breaks QuotePolicy's NaN encoding is a
    NumericalError."""
    model = config.model
    shape = (config.n_steps + 1, model.n_regimes, model.n_levels)
    market = (model.A, model.k, config.dt)
    for policy in policies:
        if policy.ask.shape != shape:
            raise ValueError(f"policy {policy.name!r} has quote tables of shape "
                             f"{policy.ask.shape}, expected {shape} for "
                             f"{config.n_steps} steps")
        if policy.market != market:
            raise ValueError(f"policy {policy.name!r} was priced on (A, k, dt) = "
                             f"{policy.market}, not on {market}")
        ask_rows, bid_rows = policy.table[0::2], policy.table[1::2]
        if not (np.isnan(ask_rows[..., 0]).all() and np.isnan(bid_rows[..., -1]).all()
                and np.isfinite(ask_rows[..., 1:]).all()
                and np.isfinite(bid_rows[..., :-1]).all()):
            raise NumericalError(f"policy {policy.name!r} has a non-finite entry where "
                                 "a side quotes, or quotes a side at its bound")


def run_paths(config: SimConfig, policies, uniforms: np.ndarray,
              normals: np.ndarray, state: ReplayState):
    """Carry state's replay of its paths under a stack of quote policies
    through the next steps of their streams, uniforms and normals, which are
    read, never written.  The caller takes the results from state after the
    last step.

    Every policy replays the same streams in one step loop.  What no policy
    changes, the regime path, the price noise and the table offset of each
    path, is found for REPLAY_BLOCK steps at a time before the block's step
    loop, which does only the work that depends on the policy; the replay
    does not depend on the block size.  The policies are checked
    (_check_policies) before the first step.
    """
    model = config.model
    n_paths, n_block = uniforms.shape[:2]
    n_steps = config.n_steps
    if state.step + n_block > n_steps:
        raise ValueError(f"{n_block} steps from step {state.step} pass the grid's "
                         f"{n_steps}")
    if state.step == 0:
        _check_policies(config, policies)
    n_pol = len(policies)
    dt = config.dt
    Q = model.q_max
    D = model.n_levels
    rates = model.rates
    N = model.n_regimes
    exit_rates = -np.diag(rates)
    # a regime without exits has no off-diagonal rate: its row stays 0
    target_probs = ((rates - np.diag(np.diag(rates)))
                    / np.where(exit_rates, exit_rates, 1.0)[:, None])
    target_cum = np.cumsum(target_probs, axis=1)
    # a cumsum row may end just below 1.0: it is inf from its last positive
    # rate on, so a draw past its end takes that regime, not the index N
    last_target = N - 1 - np.argmax(target_probs[:, ::-1] > 0, axis=1)
    target_cum[np.arange(N) >= last_target[:, None]] = np.inf
    p_leave = 1.0 - np.exp(-exit_rates * dt)
    noise_scale = model.sigmas * math.sqrt(dt)
    drift_coef = -model.xi * model.gamma

    # flat offset of (node = n_steps - s, regime 0, q = 0) in a table row
    node_offset = np.arange(n_steps, 0, -1) * (N * D) + Q
    lookups = [policy.table.reshape(4, -1) for policy in policies]

    reg, S, m, q, fills, rec = (state.reg, state.S, state.m, state.q, state.fills,
                                state.rec)
    spread_sum, spread_count = state.spread_sum, state.spread_count
    abs_drift_sum, abs_q_sum = state.abs_drift_sum, state.abs_q_sum
    increment_sum = state.increment_sum
    n_rec = rec["price"].shape[1]
    w = np.zeros((n_pol, n_paths))
    dS = np.empty((n_pol, n_paths))
    abs_q = np.empty((n_pol, n_paths), dtype=np.int64)
    idx = np.empty((n_pol, n_paths), dtype=np.int64)
    fill = np.empty((2, n_pol, n_paths), dtype=bool)
    fill_a, fill_b = fill
    both = np.empty((n_pol, n_paths), dtype=bool)
    scratch = np.empty((n_pol, n_paths))
    # one row of each policy's table per path: ask, bid, p_ask, p_bid
    looked_up = np.empty((n_pol, 4, n_paths))
    lanes = looked_up.swapaxes(0, 1)
    ua, ub, p_fill = lanes[0], lanes[1], lanes[2:]

    # row j of a block holds its step j: its regime, then its table offset
    block = min(REPLAY_BLOCK, n_block)
    offsets = np.empty((block, n_paths), dtype=np.int64)
    noises = np.empty((block, n_paths))
    candidates = np.empty((n_paths, block), dtype=bool)
    # (step, side, 1, path): each step's ask and bid fill uniforms, step-major
    # so that a step's comparison reads contiguous memory
    u_fills = np.empty((block, 2, 1, n_paths))

    for b0 in range(0, n_block, block):
        b = min(block, n_block - b0)
        s0 = state.step + b0  # the grid step of the block's first row
        offset, noise, u_fill = offsets[:b], noises[:b], u_fills[:b]
        _regime_block(reg, uniforms[:, b0:b0 + b, 0], p_leave, target_cum,
                      candidates[:, :b], offset)
        rec["regime"][s0:s0 + b] = offset[:, :n_rec]
        # every index here and, as the policy check sees to, in the lookups
        # is in range: mode "clip" only skips the copy that a bounds-checked
        # take makes of its output
        np.take(noise_scale, offset, out=noise, mode="clip")
        noise *= normals[:, b0:b0 + b].T
        offset *= D
        offset += node_offset[s0:s0 + b, None]
        np.copyto(u_fill[:, :, 0], uniforms[:, b0:b0 + b, 1:].transpose(1, 2, 0))

        for j in range(b):
            if config.predator:
                np.multiply(drift_coef, q, out=w)
            np.multiply(w, dt, out=dS)
            dS += noise[j]
            S += dS
            increment_sum += dS
            abs_drift_sum += np.abs(w, out=scratch)

            np.add(offset[j], q, out=idx)
            for k, table in enumerate(lookups):
                table.take(idx[k], axis=1, out=looked_up[k], mode="clip")
            np.less(u_fill[j], p_fill, out=fill)

            np.add(m, np.add(S, ua, out=scratch), out=m, where=fill_a)
            np.subtract(m, np.subtract(S, ub, out=scratch), out=m, where=fill_b)
            fills += fill
            np.subtract(fills[1], fills[0], out=q)

            # both sides quote where ask + bid is not NaN
            np.isfinite(np.add(ua, ub, out=scratch), out=both)
            np.add(spread_sum, scratch, out=spread_sum, where=both)
            spread_count += both
            abs_q_sum += np.abs(q, out=abs_q)

            if n_rec:
                for name, value in (("price", S), ("inventory", q), ("cash", m),
                                    ("u_a", ua), ("u_b", ub), ("drift", w),
                                    ("ask_fill", fill_a), ("bid_fill", fill_b)):
                    rec[name][s0 + j] = value[-1, :n_rec]

    state.step += n_block


def _strategy_stats(per_path: dict, n_steps: int) -> dict:
    """A strategy's report statistics from its per-path arrays (PER_PATH),
    each reduced once in path order, so they do not depend on how the paths
    were split into chunks."""
    pnl = per_path["pnl"]
    path_steps = pnl.size * n_steps
    mean = float(pnl.mean())
    std = float(pnl.std(ddof=1)) if pnl.size > 1 else 0.0
    return {
        "mean_pnl": mean,
        "std_pnl": std,
        "sharpe": mean / std if std > 0 else None,
        "mean_total_spread": float(per_path["spread_sum"].sum())
        / max(int(per_path["spread_count"].sum()), 1),
        "mean_abs_drift": float(per_path["abs_drift_sum"].sum()) / path_steps,
        "mean_abs_inventory": int(per_path["abs_inventory_sum"].sum()) / path_steps,
        "mean_terminal_abs_inventory":
            float(np.abs(per_path["terminal_inventory"]).mean()),
        "mean_fills_ask": float(per_path["fills_ask"].mean()),
        "mean_fills_bid": float(per_path["fills_bid"].mean()),
        "mean_price_increment":
            float(per_path["price_increment_sum"].sum()) / path_steps,
    }


def paired_one_sided(diffs: np.ndarray):
    """One-sided paired t test that mean(diffs) > 0; returns (t, p), both
    NaN for fewer than two differences, which give no variance."""
    diffs = np.asarray(diffs, dtype=float)
    n = diffs.size
    if n < 2:
        return math.nan, math.nan
    sd = diffs.std(ddof=1)
    if sd == 0.0:
        mean = diffs.mean()
        return (math.inf if mean > 0 else (-math.inf if mean < 0 else 0.0),
                0.0 if mean > 0 else 1.0)
    t = float(diffs.mean() / (sd / math.sqrt(n)))
    return t, student_t_sf(t, n - 1)


def _chunk(n_paths: int, n_export: int) -> tuple[int, int]:
    """(paths, records) of the first chunk of n_paths paths, its first n_export exported."""
    paths = min(n_paths, CHUNK_PATHS)
    return paths, max(0, min(n_export, paths))


def max_steps(model: ASModel, n_paths: int, n_export: int) -> tuple[int, int]:
    """(limit, held): the most steps whose quote tables, n_steps + 1 nodes of
    (4, N, 2 q_max + 1) float64 per policy of POLICY_KINDS, and the held records
    of the first chunk (_chunk), which holds the most, fit in STEP_BUDGET_BYTES."""
    per_node = len(POLICY_KINDS) * 4 * 8 * model.n_regimes * model.n_levels
    held = _chunk(n_paths, n_export)[1]
    return (STEP_BUDGET_BYTES - per_node) // (per_node + RECORD_BYTES_PER_STEP * held), held


def run_monte_carlo(config: SimConfig, n_export: int = 0,
                    on_path=None) -> dict:
    """Run vanilla and equilibrium quoting on common random numbers; the
    report is the dict that sim_report.json holds: per-strategy statistics,
    their ratios, the paired PnL test, the run's seed, sizes and predator
    flag, and notes.

    Paths are replayed CHUNK_PATHS at a time, a chunk's streams drawn and
    replayed STREAM_BLOCK steps at a time; the per-path results are joined
    in path order before any reduction, so the report does not depend on
    the chunk or block size.  For each of the first n_export paths p, in
    path order, on_path(p, record) receives p's {column: values} over
    RECORD_DTYPES under the equilibrium policy while p's chunk is live, so
    at most one chunk's records, as _chunk counts them, are held at a time."""
    policies = [make_policy(config.model, kind, config.n_steps)
                for kind in POLICY_KINDS]
    parts = []
    for first in range(0, config.n_paths, CHUNK_PATHS):
        count, record = _chunk(config.n_paths - first, n_export - first)
        streams = PathStreams(config.seed, count, config.n_steps, first)
        state = ReplayState(config, len(policies), count, record)
        for s0 in range(0, config.n_steps, STREAM_BLOCK):
            uniforms, normals = generate_streams(
                streams, min(STREAM_BLOCK, config.n_steps - s0))
            run_paths(config, policies, uniforms, normals, state)
            del uniforms, normals  # free this block before the next is drawn
        for p in range(record):
            on_path(first + p, {name: values[:, p] for name, values in state.rec.items()})
        parts.append(state.results())
        del streams, state  # free this chunk before the next one
    results = {kind: {key: np.concatenate([part[k][key] for part in parts])
                      for key in PER_PATH} for k, kind in enumerate(POLICY_KINDS)}
    stats = {kind: _strategy_stats(res, config.n_steps) for kind, res in results.items()}

    def ratio(num, den):
        return None if num is None or den is None or den == 0 else num / den

    van, eq = stats["vanilla"], stats["equilibrium"]
    ratios = {
        "pnl_ratio": ratio(eq["mean_pnl"], van["mean_pnl"]),
        "sharpe_ratio": ratio(eq["sharpe"], van["sharpe"]),
        "spread_ratio": ratio(eq["mean_total_spread"], van["mean_total_spread"]),
        "drift_ratio": ratio(eq["mean_abs_drift"], van["mean_abs_drift"]),
    }
    t_stat, p_val = paired_one_sided(
        results["equilibrium"]["pnl"] - results["vanilla"]["pnl"]
    )
    paired = {"pnl_t_stat": t_stat if math.isfinite(t_stat) else None,
              "pnl_p_one_sided": p_val if math.isfinite(p_val) else None}
    notes = []
    if not config.predator:
        notes.append(
            "predator disabled: with xi = 0 the vanilla and equilibrium "
            "policies coincide and any gap reflects xi-awareness only"
        )
    return {"strategies": stats, "ratios": ratios, "paired": paired,
            "seed": config.seed, "n_paths": config.n_paths,
            "n_steps": config.n_steps, "predator": config.predator, "notes": notes}
