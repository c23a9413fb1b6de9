"""Reference implementations that tests compare the production code against.

run_paths_oracle is the single-policy Monte-Carlo step loop that
`sim.run_paths` replaced: it replays one quote policy, recomputes the fill
probabilities at every step (fill_probability_oracle, from the quotes and
the config's market) and reduces the report statistics over paths at every
step.  Its per-path arrays and the record of its first path, {column:
values} in the order of `sim.RECORD_DTYPES`, are the exact reference for the
stacked replay; its mean_* fields sum in another order, so they are the
reference to rounding only.  replay_whole runs `sim.run_paths` over whole
paths in one call, as tests of the replay itself do.

generate_streams_oracle is the one-thread draw that `sim.generate_streams`
replaced: it fills every path's rows in order, in the calling thread.  The
two-thread draw must equal it bit for bit, its arrays, `drawn` and every
generator's state.

theta_table_oracle is the node-by-node penalty table that the spectral
`as_game.build_theta_table` replaced, and solve_theta_piecewise composes
`as_game.solve_theta_exact` over constant-rate segments through the same
propagator.  The market-making closed forms below
are the paper's formulas that only tests use: the predator's drift, the
integrated variance and its expansion, one entry of the short-horizon
penalty, and quotes read off a penalty table at any clock time by linear
interpolation between tau nodes.

FlowWorkspaceOracle and riccati_step_oracle are the Riccati right-hand side
and RK4 step that the buffered `mjls_inner.riccati_step` replaced (four
batched matmuls per stage, a fresh array per operation);
riccati_sweep_oracle runs them over a grid with the blow-up check of that
time.  The buffered step must agree with them to rounding.

load_ohlcv_csv_oracle, rolling_volatility_oracle and label_runs_oracle are
the per-row and per-bar loops that the columnar `calib` pipeline replaced;
its outputs must equal theirs exactly.  feedback_gains and
equilibrium_rates are closed forms of the LQ layer that only tests use, and
solve_outer is the standalone outer value sweep that the hierarchy runs
inside its joint sweep.  k_step_oracle is the switching-value step that the
hierarchy took before `outer_layer.k_step` served both outer sweeps: the
Metzler form of the flow with its forcing interpolated linearly between the
step's nodes, integrated by rk4_step, the generic stepper it was written
with.  The shared step must agree with it to rounding.

build_generator_oracle, control_matrix_oracle, hamiltonian_matrix_oracle,
hamiltonian_spectral_gap_oracle and check_lq_stacks_oracle are the loops
over regimes and inventory levels that the stacked assembly of
`as_game.build_generator` and of the `mjls_inner` model matrices replaced;
the stacks must equal them bitwise, and validation must raise their
message.

student_t_sf_oracle is the Student-t survival that `numkit.student_t_sf`
replaced in the paired test, with the scipy routine it came from.

regime_paths simulates the regime chain of a generator.  Along its paths
regime_path_integrals integrates a per-regime value, and closed_loop_costs
runs the LQ state under the saddle feedback with noise and sums its cost:
the Monte-Carlo side of the Dynkin checks on the LQ hierarchy's values.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.special

from rsgames import as_game, calib, mjls_inner, outer_layer, sim
from rsgames.calib import OhlcvSeries
from rsgames.numkit import BlowupError


def generator_oracle(rates):
    """The generator of rates (N, N), one entry at a time: the off-diagonal
    copied, the diagonal 0.0 minus the row's off-diagonal sum."""
    rates = np.asarray(rates, dtype=float)
    N = rates.shape[0]
    Q = np.zeros((N, N))
    for i in range(N):
        total = 0.0
        for j in range(N):
            if j != i:
                Q[i, j] = rates[i, j]
                total += rates[i, j]
        Q[i, i] = 0.0 - total
    return Q


def build_generator_oracle(model, rates=None):
    """Block generator M of the penalty system, one state at a time."""
    N, nq = model.n_regimes, model.n_levels
    Q = generator_oracle(model.rates if rates is None else rates)
    fill = model.A * model.fill_constant
    gamma = model.gamma
    M = np.zeros((N * nq, N * nq))
    qs = model.q_levels()
    for i in range(N):
        # sigma squared by one multiplication, as numpy squares an array; a
        # scalar ** 2 goes through libm pow, one ulp off near a rounding tie
        risk = 0.5 * gamma**2 * (model.sigmas[i] * model.sigmas[i] + model.xi * gamma)
        for qi, q in enumerate(qs):
            row = i * nq + qi
            M[row, row] = risk * q * q - Q[i, i]
            if q > -model.q_max:  # ask active: fill moves q -> q - 1
                M[row, i * nq + qi - 1] = -fill
            if q < model.q_max:  # bid active: fill moves q -> q + 1
                M[row, i * nq + qi + 1] = -fill
            for j in range(N):
                if j != i:
                    M[row, j * nq + qi] = -Q[i, j]
    return M


def theta_table_oracle(model, n_steps, rates=None):
    """theta on the uniform tau grid of as_game.build_theta_table, stepped
    node by node through as_game._propagate on the full system: the dense
    path that the spectral table replaces, and the one its fallback runs on
    the folded half (as_game._fold)."""
    N, nq = model.n_regimes, model.n_levels
    theta = np.zeros((n_steps + 1, N, nq))
    steps = as_game._propagate(as_game.build_generator(model, rates),
                               model.horizon / n_steps, n_steps, np.ones(N * nq))
    for idx, (v, log_scale) in enumerate(steps, start=1):
        theta[idx] = (-(np.log(v) + log_scale) / model.gamma).reshape(N, nq)
    return theta


def solve_theta_piecewise(model, segments):
    """Compose constant-rate segments, listed from the horizon outward:
    segments = [(tau_len_0, rates_0), (tau_len_1, rates_1), ...]."""
    N, nq = model.n_regimes, model.n_levels
    v, log_scale = np.ones(N * nq), 0.0
    for tau_len, rates in segments:
        if tau_len < 0:
            raise ValueError("segment lengths must be nonnegative")
        if tau_len > 0:
            M = as_game.build_generator(model, rates)
            (v, seg_scale), = as_game._propagate(M, tau_len, 1, v)
            log_scale += seg_scale
    return (-(np.log(v) + log_scale) / model.gamma).reshape(N, nq)


def predator_drift(q, model):
    """Optimal adversarial drift w*(q) = -xi * gamma * q."""
    if abs(q) > model.q_max:
        raise ValueError(f"|q| = {abs(q)} exceeds the inventory bound {model.q_max}")
    return -model.xi * model.gamma * q


def integrated_variance(model, rates=None, i=0, tau=0.0):
    """w_i(tau), one entry of as_game._integrated_variances."""
    return float(as_game._integrated_variances(model, rates, [tau])[0, i])


def integrated_variance_expansion(model, rates=None, i=0, tau=0.0):
    """Second-order form sigma_i^2 tau + 0.5 sum_j mu_ij (sigma_j^2 -
    sigma_i^2) tau^2 capturing the drift into connected regimes."""
    Q = generator_oracle(model.rates if rates is None else rates)
    s = model.sigmas**2
    return float(s[i] * tau + 0.5 * (Q[i] @ s) * tau**2)


def theta_expansion(model, rates=None, i=0, q=0, tau=0.0):
    """One entry of as_game.theta_expansions."""
    return float(as_game.theta_expansions(model, rates, [tau], [q])[0, i, 0])


def theta_at(table, i, q, tau):
    """theta_i(tau, q) interpolated linearly between the table's tau nodes."""
    q_max = table.theta.shape[2] // 2
    return float(np.interp(tau, table.taus, table.theta[:, i, q + q_max]))


def slice_at(table, tau):
    """theta at tau for every regime and level: theta_at's np.interp
    formula, applied once to the two rows that bracket tau."""
    j = int(np.searchsorted(table.taus, tau, side="right")) - 1
    if j < 0 or j == len(table.taus) - 1 or table.taus[j] == tau:
        return table.theta[max(j, 0)].copy()
    lo, hi = table.taus[j], table.taus[j + 1]
    slope = (table.theta[j + 1] - table.theta[j]) / (hi - lo)
    return slope * (tau - lo) + table.theta[j]


@dataclass(frozen=True)
class QuotePair:
    """Per-side offsets from mid.  A side at its inventory bound is inactive."""

    ask: float
    bid: float
    ask_active: bool = True
    bid_active: bool = True


def quote_from_slice(theta_slice, model, i, q):
    """Per-side first-order-condition quotes from one penalty slice."""
    if abs(q) > model.q_max:
        raise ValueError(f"|q| = {abs(q)} exceeds the inventory bound {model.q_max}")
    base = model.base_offset
    qi = q + model.q_max
    ask_active = q > -model.q_max
    bid_active = q < model.q_max
    ask = 0.0
    bid = 0.0
    if ask_active:
        ask = max(base + theta_slice[i, qi - 1] - theta_slice[i, qi], 0.0)
    if bid_active:
        bid = max(base + theta_slice[i, qi + 1] - theta_slice[i, qi], 0.0)
    return QuotePair(ask=ask, bid=bid, ask_active=ask_active, bid_active=bid_active)


def optimal_quotes(table, model, i, q, t):
    """Quotes at clock time t (tau = horizon - t) from the penalty table."""
    tau = model.horizon - t
    if not (tau >= -1e-12 and t >= -1e-12):  # NaN fails too
        raise ValueError(f"t = {t} outside [0, horizon]")
    return quote_from_slice(slice_at(table, max(tau, 0.0)), model, i, q)


def fill_probability_oracle(model, quotes, dt):
    """Fill probability 1 - exp(-A exp(-k u) dt) of each quote u, whether or
    not its side quotes."""
    return 1.0 - np.exp(-model.A * np.exp(-model.k * quotes) * dt)


def replay_whole(config, policies, uniforms, normals, record=0):
    """sim.run_paths over whole paths of config's grid: one dict of per-path
    arrays per policy, the last one also holding "records", the {column:
    values} of each of the first `record` paths under the last policy."""
    state = sim.ReplayState(config, len(policies), uniforms.shape[0], record)
    sim.run_paths(config, policies, uniforms, normals, state)
    outs = state.results()
    outs[-1]["records"] = [{name: values[:, p] for name, values in state.rec.items()}
                           for p in range(state.rec["price"].shape[1])]
    return outs


def generate_streams_oracle(streams, steps=None):
    """The next `steps` steps of every path of `streams`, all that are left
    by default, drawn row by row in the calling thread."""
    n_steps = streams.n_steps
    left = n_steps - streams.drawn
    steps = left if steps is None else steps
    if not 0 < steps <= left:
        raise ValueError(f"asked for {steps} steps of streams with {left} left")
    if not streams.generators:
        for p in range(streams.first, streams.first + streams.n_paths):
            seq = np.random.SeedSequence(streams.seed, spawn_key=(p,))
            normal_bits = np.random.Philox(seq, counter=3 * n_steps // 4)
            normal_bits.random_raw(3 * n_steps % 4)
            streams.generators.append((np.random.Generator(np.random.Philox(seq)),
                                       np.random.Generator(normal_bits)))
    uniforms = np.empty((streams.n_paths, steps, 3))
    normals = np.empty((streams.n_paths, steps))
    for row, (uniform_gen, normal_gen) in enumerate(streams.generators):
        uniform_gen.random(out=uniforms[row])
        normal_gen.standard_normal(out=normals[row])
    streams.drawn += steps
    return uniforms, normals


def run_paths_oracle(config, policy, uniforms, normals, predator, record=False):
    model = config.model
    n_paths, n_steps = uniforms.shape[:2]
    dt = model.horizon / n_steps
    sqrt_dt = math.sqrt(dt)
    Q = model.q_max
    rates = model.rates
    N = model.n_regimes
    exit_rates = -np.diag(rates)
    with np.errstate(invalid="ignore", divide="ignore"):
        target_probs = np.where(
            exit_rates[:, None] > 0,
            (rates - np.diag(np.diag(rates))) / np.where(exit_rates, exit_rates, 1.0)[:, None],
            0.0,
        )
    target_cum = np.cumsum(target_probs, axis=1)
    last_target = N - 1 - np.argmax(target_probs[:, ::-1] > 0, axis=1)
    p_leave = 1.0 - np.exp(-exit_rates * dt)

    S = np.full(n_paths, model.s0, dtype=float)
    q = np.zeros(n_paths, dtype=np.int64)
    m = np.zeros(n_paths, dtype=float)
    reg = np.full(n_paths, config.initial_regime, dtype=np.int64)

    spread_sum = 0.0
    spread_count = 0
    drift_abs_sum = 0.0
    abs_q_sum = 0.0
    fills_ask = np.zeros(n_paths, dtype=np.int64)
    fills_bid = np.zeros(n_paths, dtype=np.int64)
    price_increments_sum = 0.0

    rec = None
    if record:
        rec = {name: np.zeros(n_steps) for name in
               ("price", "inventory", "cash", "u_a", "u_b", "drift",
                "ask_fill", "bid_fill", "regime")}

    for s in range(n_steps):
        u_reg = uniforms[:, s, 0]
        u_ask = uniforms[:, s, 1]
        u_bid = uniforms[:, s, 2]
        z = normals[:, s]

        leave = u_reg < p_leave[reg]
        if leave.any():
            src = reg[leave]
            frac = (u_reg[leave] / p_leave[src])[:, None]
            reg = reg.copy()
            reg[leave] = np.minimum((frac >= target_cum[src]).sum(axis=1),
                                    last_target[src])

        w = np.where(predator, -model.xi * model.gamma * q, 0.0)
        dS = w * dt + model.sigmas[reg] * sqrt_dt * z
        S = S + dS
        price_increments_sum += dS.sum()

        node = n_steps - s  # remaining horizon tau = T - s*dt
        qi = q + Q
        ua = policy.ask[node, reg, qi]
        ub = policy.bid[node, reg, qi]
        a_act = q > -Q
        b_act = q < Q

        fill_a = a_act & (u_ask < fill_probability_oracle(model, ua, dt))
        fill_b = b_act & (u_bid < fill_probability_oracle(model, ub, dt))

        # a side that does not quote has a NaN quote, which a fill of 0
        # would still carry into the cash
        m = m + np.where(fill_a, S + ua, 0.0) - np.where(fill_b, S - ub, 0.0)
        q = q - fill_a.astype(np.int64) + fill_b.astype(np.int64)
        fills_ask += fill_a
        fills_bid += fill_b

        both = a_act & b_act
        spread_sum += float((ua + ub)[both].sum())
        spread_count += int(both.sum())
        drift_abs_sum += float(np.abs(w).sum())
        abs_q_sum += float(np.abs(q).sum())

        if record:
            rec["price"][s] = S[0]
            rec["inventory"][s] = q[0]
            rec["cash"][s] = m[0]
            rec["u_a"][s] = ua[0] if a_act[0] else np.nan
            rec["u_b"][s] = ub[0] if b_act[0] else np.nan
            rec["drift"][s] = w[0]
            rec["ask_fill"][s] = float(fill_a[0])
            rec["bid_fill"][s] = float(fill_b[0])
            rec["regime"][s] = reg[0]

    pnl = m + q * S
    out = {
        "pnl": pnl,
        "fills_ask": fills_ask,
        "fills_bid": fills_bid,
        "terminal_inventory": q.copy(),
        "mean_total_spread": spread_sum / max(spread_count, 1),
        "mean_abs_drift": drift_abs_sum / (n_paths * n_steps),
        "mean_abs_inventory": abs_q_sum / (n_paths * n_steps),
        "mean_terminal_abs_inventory": float(np.abs(q).mean()),
        "mean_price_increment": price_increments_sum / (n_paths * n_steps),
    }
    if record:
        out["record"] = {
            "price": rec["price"],
            "regime": rec["regime"].astype(np.int64),
            "inventory": rec["inventory"].astype(np.int64),
            "cash": rec["cash"],
            "u_a": rec["u_a"],
            "u_b": rec["u_b"],
            "drift": rec["drift"],
            "ask_fill": rec["ask_fill"].astype(np.int8),
            "bid_fill": rec["bid_fill"].astype(np.int8),
        }
    return out


def load_ohlcv_csv_oracle(path) -> OhlcvSeries:
    """Read a CSV with header timestamp,open,high,low,close,volume."""
    required = ["timestamp", "open", "high", "low", "close", "volume"]
    rows = {name: [] for name in required}
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        missing = [c for c in required if c not in header]
        if missing:
            raise ValueError(f"missing column(s) {', '.join(missing)} in {path}")
        for row in reader:
            lineno = reader.line_num  # the file line, blank lines counted
            try:
                rows["timestamp"].append(calib._parse_timestamp(row["timestamp"]))
                for name in required[1:]:
                    rows[name].append(float(row[name]))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return OhlcvSeries(
        timestamps=np.array(rows["timestamp"]),
        open=np.array(rows["open"]),
        high=np.array(rows["high"]),
        low=np.array(rows["low"]),
        close=np.array(rows["close"]),
        volume=np.array(rows["volume"]),
    )


def rolling_volatility_oracle(series, window, annualization):
    """calib.rolling_volatility as one std per bar."""
    if window < 2:
        raise ValueError("window must be at least 2")
    n = len(series.close)
    if n <= window:
        raise ValueError("series shorter than the volatility window")
    returns = np.diff(np.log(series.close))
    out = np.full(n, np.nan)
    scale = math.sqrt(annualization)
    for t in range(window, n):
        out[t] = returns[t - window : t].std(ddof=1) * scale
    return out


def label_runs_oracle(labels) -> list:
    runs = []
    for lab in np.asarray(labels, dtype=int):
        if runs and runs[-1][0] == int(lab):
            runs[-1][1] += 1
        else:
            runs.append([int(lab), 1])
    return [tuple(r) for r in runs]


def feedback_gains(P, model, i):
    """Saddle feedback (K_u, K_w): u = K_u x with K_u = -R^{-1} B' P,
    w = K_w x with K_w = S^{-1} D' P."""
    try:
        K_u = -np.linalg.solve(model.R[i], model.B[i].T @ P)
        K_w = np.linalg.solve(model.S[i], model.D[i].T @ P)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular R or S in regime {i}: {exc}") from exc
    return K_u, K_w


def _sym(M):
    return 0.5 * (M + M.T)


def control_matrix_oracle(model, i):
    """Sctrl_i = B R^{-1} B' - D S^{-1} D' (symmetric by construction)."""
    B, D = model.B[i], model.D[i]
    gain_u = B @ np.linalg.solve(model.R[i], B.T)
    gain_w = D @ np.linalg.solve(model.S[i], D.T)
    return _sym(gain_u - gain_w)


def hamiltonian_matrix_oracle(model, i):
    """Block matrix [[A, -Sctrl], [-Q, -A']] of regime i."""
    n = model.n_states
    H = np.zeros((2 * n, 2 * n))
    H[:n, :n] = model.A[i]
    H[:n, n:] = -control_matrix_oracle(model, i)
    H[n:, :n] = -model.Q[i]
    H[n:, n:] = -model.A[i].T
    return H


def hamiltonian_spectral_gap_oracle(model):
    """min over regimes of min |Re lambda| over the Hamiltonian spectrum."""
    gaps = []
    for i in range(model.n_regimes):
        lam = np.linalg.eigvals(hamiltonian_matrix_oracle(model, i))
        gaps.append(np.abs(lam.real).min())
    return float(min(gaps))


def _check_sym_psd(M, name, regime, strict=False):
    if not np.allclose(M, M.T, atol=1e-10):
        raise ValueError(f"{name}[{regime}] is not symmetric")
    w = np.linalg.eigvalsh(_sym(M))
    if strict and w.min() <= 0:
        raise ValueError(f"{name}[{regime}] must be positive definite")
    if not strict and w.min() < -1e-10:
        raise ValueError(f"{name}[{regime}] must be positive semidefinite")


def check_lq_stacks_oracle(Q, Q_T, R, S):
    """The per-regime symmetry and definiteness checks of RegimeLQModel."""
    for i in range(Q.shape[0]):
        _check_sym_psd(Q[i], "Q", i)
        _check_sym_psd(Q_T[i], "Q_T", i)
        _check_sym_psd(R[i], "R", i, strict=True)
        _check_sym_psd(S[i], "S", i, strict=True)


def equilibrium_rates(f, g, spec, i):
    """Rate row mu*_i. for strategies (f, g): mu_bar_ij + f' Lambda_ij g off
    the diagonal, minus their sum on it."""
    row = spec.mu_bar[i] + np.einsum("a,jab,b->j", np.asarray(f, dtype=float),
                                     spec.Lambda[i], np.asarray(g, dtype=float))
    row[i] = 0.0
    row[i] = -row.sum()
    return row


def _metzler_parts(mu: np.ndarray):
    """mu with its diagonal zeroed, and that matrix's row sums: (M(mu) z)_i =
    sum_{j != i} mu_ij (z_j - z_i) is off @ z - out_rate * z."""
    off = mu - np.diag(np.diag(mu))
    return off, off.sum(axis=1)


def rk4_step(rhs, t, y, h):
    """One classical Runge-Kutta step of y' = rhs(t, y) of size h (h may be
    negative)."""
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + (0.5 * h) * k1)
    k3 = rhs(t + 0.5 * h, y + (0.5 * h) * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def k_step_oracle(k_right, phi_right, phi_left, mu, t_right, h):
    """One RK4 step of -dk/dt = phi(t) + M(mu) k from t_right to t_right - h.

    mu is frozen over the step, so its off-diagonal part and row sums are
    taken once for the four stages; phi is interpolated linearly between
    its node values.
    """
    phi_right = np.asarray(phi_right, dtype=float)
    phi_left = np.asarray(phi_left, dtype=float)
    t_left = t_right - h
    off, out_rate = _metzler_parts(np.asarray(mu))

    def rhs(t, k):
        w = (t - t_left) / h
        phi = phi_left + (phi_right - phi_left) * w
        return -(phi + (off @ k - out_rate * k))

    return rk4_step(rhs, t_right, k_right, -h)


def solve_outer(phi, spec, grid):
    """Backward sweep of the switching-value flow with k(T) = 0.

    phi: (n_nodes, N) running cost at every grid node.  At each node the
    local games are solved from the current k, the equilibrium generator is
    frozen over the step, and k is stepped backward with phi interpolated
    linearly between the step's nodes, as the hierarchy steps it.
    """
    phi = np.asarray(phi, dtype=float)
    N = spec.n_regimes
    n_nodes = grid.n_steps + 1
    if phi.shape != (n_nodes, N):
        raise ValueError(f"phi must be (n_nodes, N) = {(n_nodes, N)}, got {phi.shape}")
    k = np.zeros((n_nodes, N))
    f = np.zeros((n_nodes, N, spec.n_row_actions))
    g = np.zeros((n_nodes, N, spec.n_col_actions))
    mu = np.zeros((n_nodes, N, N))
    for idx in range(grid.n_steps, -1, -1):
        f[idx], g[idx], mu[idx], _, _ = outer_layer.node_equilibrium(k[idx], spec)
        if idx:
            forcing = (phi[idx], 0.5 * (phi[idx] + phi[idx - 1]), phi[idx - 1])
            k[idx - 1] = outer_layer.k_step(k[idx], forcing, mu[idx], -grid.step)
    return outer_layer.OuterSolution(grid=grid, k=k, f=f, g=g, mu=mu)


class FlowWorkspaceOracle:
    """Precomputed per-regime arrays for the vectorized Riccati flow, in
    dtype; Sctrl is formed in float64, as both sweeps form it."""

    def __init__(self, model, dtype=float):
        self.A = np.asarray(model.A, dtype=dtype)
        self.At = np.ascontiguousarray(np.swapaxes(self.A, 1, 2))
        self.Q = np.asarray(model.Q, dtype=dtype)
        self.sctrl = np.asarray(model.control_matrices(), dtype=dtype)
        Sigma = np.asarray(model.Sigma, dtype=dtype)
        self.noise = np.matmul(Sigma, np.swapaxes(Sigma, 1, 2))
        self.N = model.n_regimes
        self.n = model.n_states

    @staticmethod
    def split_rates(rates):
        off = rates - np.diag(np.diag(rates))
        return off, off.sum(axis=1), bool(off.any())

    def backward_derivatives(self, P, r, rates, split=None):
        """(-dP/dt, -dr/dt) of the coupled flow, all regimes at once."""
        off, outflow, coupled = self.split_rates(rates) if split is None else split
        dP = self.Q + self.At @ P + P @ self.A - P @ self.sctrl @ P
        dr = (self.noise * np.swapaxes(P, 1, 2)).sum(axis=(1, 2))
        if coupled:
            dP += (off @ P.reshape(self.N, -1)).reshape(P.shape)
            dP -= outflow[:, None, None] * P
            dr += off @ r - outflow * r
        dP = 0.5 * (dP + np.swapaxes(dP, 1, 2))
        return dP, dr

    def slope_magnitudes(self, P, r, rates):
        """backward_derivatives rebuilt from absolute values, term by term:
        the scale of the rounding error of a computed slope."""
        off, outflow, _ = self.split_rates(rates)
        aP, ar, aoff = np.abs(P), np.abs(r), np.abs(off)
        dP = (np.abs(self.Q) + np.abs(self.At) @ aP + aP @ np.abs(self.A)
              + aP @ np.abs(self.sctrl) @ aP
              + (aoff @ aP.reshape(self.N, -1)).reshape(P.shape)
              + np.abs(outflow)[:, None, None] * aP)
        dr = (np.abs(self.noise) * aP).sum(axis=(1, 2)) + aoff @ ar + np.abs(outflow) * ar
        return dP, dr


def riccati_step_oracle(P_right, r_right, rates, model, t_right, h, workspace=None):
    """One RK4 step of the joint (P, r) flow from t_right to t_right - h.

    `rates` is held constant over the step.  Shared verbatim by the
    standalone solver and the hierarchy sweep so their flows agree exactly.
    """
    ws = workspace if workspace is not None else FlowWorkspaceOracle(model)
    split = ws.split_rates(rates)
    # classical RK4 in backward time tau = T - t, step +h, rhs = -d/dt
    half = 0.5 * h
    k1P, k1r = ws.backward_derivatives(P_right, r_right, rates, split)
    k2P, k2r = ws.backward_derivatives(
        P_right + half * k1P, r_right + half * k1r, rates, split
    )
    k3P, k3r = ws.backward_derivatives(
        P_right + half * k2P, r_right + half * k2r, rates, split
    )
    k4P, k4r = ws.backward_derivatives(
        P_right + h * k3P, r_right + h * k3r, rates, split
    )
    sixth = h / 6.0
    P_new = P_right + sixth * (k1P + 2.0 * k2P + 2.0 * k3P + k4P)
    r_new = r_right + sixth * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
    P_new = 0.5 * (P_new + np.swapaxes(P_new, 1, 2))
    return P_new, r_new


def riccati_sweep_oracle(model, rates, grid, norm_bound=1e8):
    """(P, r) of mjls_inner.solve_coupled_riccati stepped by
    riccati_step_oracle, with the blow-up check on np.abs(P)."""
    N, n = model.n_regimes, model.n_states
    n_nodes = grid.n_steps + 1
    rates = mjls_inner._rates_at_nodes(rates, n_nodes, N)
    workspace = FlowWorkspaceOracle(model)
    nodes = grid.nodes()
    P = np.empty((n_nodes, N, n, n))
    r = np.zeros((n_nodes, N))
    P[-1] = [_sym(Q_T) for Q_T in model.Q_T]
    for k in range(grid.n_steps - 1, -1, -1):
        P[k], r[k] = riccati_step_oracle(
            P[k + 1], r[k + 1], rates[k + 1], model, nodes[k + 1], grid.step,
            workspace,
        )
        if not np.abs(P[k]).max() <= norm_bound:
            norms = np.linalg.norm(P[k], axis=(1, 2))
            worst = int(np.argmax(np.where(np.isfinite(norms), norms, np.inf)))
            raise BlowupError("Riccati flow escaped", time=nodes[k], regime=worst)
    return P, r


def student_t_sf_oracle(t: float, nu: float) -> float:
    """P(T > t) for Student's t: scipy.special.stdtr(nu, -t), except at
    nu = 1, where stdtr loses digits as t -> 0 (3e-9 relative at t = 1e-14,
    against 30-digit mpmath) and the Cauchy survival atan2(1, t) / pi is
    exact to rounding."""
    if nu == 1:
        return math.atan2(1.0, t) / math.pi
    return float(scipy.special.stdtr(nu, -t))


def t_sf_error_bound(want: float, rel: float) -> float:
    """rel * want, or 1e-300 where want is below the smallest normal float."""
    return 1e-300 if want < np.finfo(float).tiny else rel * want


def regime_paths(generator, h, n_nodes, start, n_paths, rng):
    """Regimes (n_nodes, n_paths) at the nodes of n_paths paths of the chain
    with this generator that start in regime `start` at node 0.

    generator is one (N, N) generator, or a stack (n_nodes, N, N) whose
    entry k is the rate frozen over the step from node k - 1 to node k (the
    node at which a backward sweep starts that step).  The paths step from
    node to node with the exact transition matrix expm(h * generator), one
    uniform of rng per path and step, drawn as one (n_nodes - 1, n_paths)
    block.
    """
    generator = np.asarray(generator, dtype=float)
    N = generator.shape[-1]
    cum = np.broadcast_to(np.cumsum(scipy.linalg.expm(h * generator), axis=-1),
                          (n_nodes, N, N))
    uniforms = rng.random((n_nodes - 1, n_paths))
    theta = np.empty((n_nodes, n_paths), dtype=np.int64)
    theta[0] = start
    for k in range(1, n_nodes):
        # a cumsum row may end just below 1.0: a draw past it stays in range
        drawn = (uniforms[k - 1, :, None] >= cum[k, theta[k - 1]]).sum(axis=1)
        theta[k] = np.minimum(drawn, N - 1)
    return theta


def _philox(seed, start):
    stream = np.random.SeedSequence(seed, spawn_key=(start,))
    return np.random.Generator(np.random.Philox(stream))


def regime_path_integrals(values, generator, h, start, n_paths, seed):
    """Trapezoid integrals h * sum_k (v_k + v_{k+1}) / 2, v_k = values[k,
    theta_k], along the n_paths regime_paths theta of the generator that
    start in regime `start` at node 0; values is (n_nodes, N).  The regime
    uniforms come from a Philox stream keyed by (seed, start).  So the mean
    of the integrals is the trapezoid rule on the smooth mean path, with an
    O(h^2) bias and none from the step.
    """
    theta = regime_paths(generator, h, values.shape[0], start, n_paths,
                         _philox(seed, start))
    v = np.take_along_axis(values, theta, axis=1)
    return h * (v.sum(axis=0) - 0.5 * (v[0] + v[-1]))


def closed_loop_costs(model, P, generator, h, x0, start, n_paths, seed):
    """Costs int_0^T (x'Qx + u'Ru - w'Sw) dt + x_T' Q_T x_T of n_paths
    closed-loop paths of the LQ state from x0 at t = 0 in regime `start`.

    The regimes follow regime_paths of the generator, and the state takes
    one Euler-Maruyama step per grid step of length h,

        x <- x + (A x + B u + D w) h + Sigma sqrt(h) Z,

    with the regime, the saddle feedback u = -R^{-1} B' P x, w = S^{-1} D' P
    x (feedback_gains on the solved P (n_nodes, N, n, n)) and the running
    cost all taken at the step's start node.  The terminal cost uses the
    regime at the last node.  The regime uniforms, then the standard normals
    Z (n_nodes - 1, n_paths, Sigma's columns), come from one Philox stream
    keyed by (seed, start).
    """
    n_nodes, N = P.shape[:2]
    rng = _philox(seed, start)
    theta = regime_paths(generator, h, n_nodes, start, n_paths, rng)
    noise = rng.standard_normal((n_nodes - 1, n_paths, model.Sigma.shape[2]))
    gains = [[feedback_gains(P[k, i], model, i) for i in range(N)]
             for k in range(n_nodes - 1)]
    K_u = np.array([[g[0] for g in row] for row in gains])
    K_w = np.array([[g[1] for g in row] for row in gains])

    def quad(M, y):  # y' M y per path
        return np.einsum("pa,pab,pb->p", y, M, y)

    def mv(M, y):  # M y per path
        return np.einsum("pab,pb->pa", M, y)

    x = np.tile(np.asarray(x0, dtype=float), (n_paths, 1))
    cost = np.zeros(n_paths)
    for k in range(n_nodes - 1):
        i = theta[k]
        u, w = mv(K_u[k, i], x), mv(K_w[k, i], x)
        cost += h * (quad(model.Q[i], x) + quad(model.R[i], u) - quad(model.S[i], w))
        drift = mv(model.A[i], x) + mv(model.B[i], u) + mv(model.D[i], w)
        x = x + h * drift + math.sqrt(h) * mv(model.Sigma[i], noise[k])
    return cost + quad(model.Q_T[theta[-1]], x)
