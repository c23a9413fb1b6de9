"""Seeded Monte-Carlo replay of the regime-switching market.

Randomness is a Philox counter stream per path: SeedSequence(seed) is
spawned once per path index, and each path draws, per step, three uniforms
(regime transition, ask fill, bid fill) followed by one standard normal
(price shock), pre-generated as whole arrays.  Strategies being compared
reuse the identical arrays (common random numbers), so fill comparisons
differ only through the quote tables.

Step order (one step of size dt):
    1. regime transition: leave with prob 1 - exp(-|mu_ii| dt), the single
       uniform is rescaled to pick the target proportionally to mu_ij
    2. predator drift w = -xi*gamma*q (0 if the predator is disabled)
    3. price Euler update S += w dt + sigma_i sqrt(dt) Z
    4. per active side, fill with prob 1 - exp(-A exp(-k u) dt), at most
       one unit per side per step; fills execute at S + u_a / S - u_b
    5. cash and inventory update; a side is suppressed at its bound

Terminal PnL is m_T + q_T S_T (mark-to-market at mid).
"""

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.special

from . import as_game
from .as_game import ASModel

SCHEMA_VERSION = 1


@dataclass
class SimConfig:
    model: ASModel
    n_paths: int = 1000
    n_steps: int = 2880
    seed: int = 20251212
    predator: bool = True
    initial_regime: int = 0
    s0: float = None

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if not 0 <= self.initial_regime < self.model.n_regimes:
            raise ValueError(f"initial regime {self.initial_regime} out of range")
        span = self.n_steps * self.model.dt
        if abs(span - self.model.horizon) > 1e-9 * max(1.0, self.model.horizon):
            raise ValueError(
                f"n_steps * dt = {span:.6g} does not match the horizon "
                f"{self.model.horizon:.6g}"
            )
        if self.s0 is None:
            self.s0 = self.model.s0


@dataclass
class QuotePolicy:
    """Per-node quote surfaces on the simulation grid (tau ascending)."""

    name: str
    ask: np.ndarray          # (n_steps+1, N, 2*q_max+1)
    bid: np.ndarray
    ask_active: np.ndarray   # (2*q_max+1,) bool
    bid_active: np.ndarray


@dataclass
class PathRecord:
    time: np.ndarray
    price: np.ndarray
    regime: np.ndarray
    inventory: np.ndarray
    cash: np.ndarray
    ask: np.ndarray
    bid: np.ndarray
    drift: np.ndarray
    ask_fill: np.ndarray
    bid_fill: np.ndarray
    pnl: float


def make_policy(model: ASModel, kind: str, n_steps: int) -> QuotePolicy:
    """Quote surfaces for a strategy.

    vanilla     penalty table built blind to the predator (xi = 0)
    equilibrium penalty table built with the true xi
    """
    if kind == "vanilla":
        table_model = dataclasses.replace(model, xi=0.0)
    elif kind == "equilibrium":
        table_model = model
    else:
        raise ValueError(f"unknown policy kind {kind!r}")
    table = as_game.build_theta_table(table_model, n_steps)
    ask, bid, a_act, b_act = as_game.quote_surfaces(table, table_model)
    return QuotePolicy(name=kind, ask=ask, bid=bid, ask_active=a_act,
                       bid_active=b_act)


def generate_streams(seed: int, n_paths: int, n_steps: int):
    """Per-path variates: uniforms (n_paths, n_steps, 3) ordered (regime,
    ask, bid) and normals (n_paths, n_steps).  Stream p is the p-th spawn of
    SeedSequence(seed) feeding a Philox generator, so it depends only on
    (seed, p)."""
    children = np.random.SeedSequence(seed).spawn(n_paths)
    uniforms = np.empty((n_paths, n_steps, 3))
    normals = np.empty((n_paths, n_steps))
    for p, child in enumerate(children):
        gen = np.random.Generator(np.random.Philox(child))
        uniforms[p] = gen.random((n_steps, 3))
        normals[p] = gen.standard_normal(n_steps)
    return uniforms, normals


def run_paths(config: SimConfig, policy: QuotePolicy, uniforms: np.ndarray,
              normals: np.ndarray, predator: bool, record: bool = False):
    """Vectorized replay of all paths under one quote policy.

    Returns a dict of per-path arrays and aggregate scalars; with
    record=True also per-step records of path 0.
    """
    model = config.model
    n_paths, n_steps = uniforms.shape[:2]
    dt = model.dt
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
    # a cumsum row may end just below 1.0; a draw past its end takes the
    # last regime with a positive rate instead of the out-of-range index N
    last_target = N - 1 - np.argmax(target_probs[:, ::-1] > 0, axis=1)
    p_leave = 1.0 - np.exp(-exit_rates * dt)

    S = np.full(n_paths, config.s0, dtype=float)
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
               ("price", "inventory", "cash", "ask", "bid", "drift",
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
        a_act = policy.ask_active[qi] & (q > -Q)
        b_act = policy.bid_active[qi] & (q < Q)

        p_fill_a = 1.0 - np.exp(-model.A * np.exp(-model.k * ua) * dt)
        p_fill_b = 1.0 - np.exp(-model.A * np.exp(-model.k * ub) * dt)
        fill_a = a_act & (u_ask < p_fill_a)
        fill_b = b_act & (u_bid < p_fill_b)

        m = m + fill_a * (S + ua) - fill_b * (S - ub)
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
            rec["ask"][s] = ua[0] if a_act[0] else np.nan
            rec["bid"][s] = ub[0] if b_act[0] else np.nan
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
        times = (np.arange(n_steps) + 1) * dt
        out["record"] = PathRecord(
            time=times,
            price=rec["price"],
            regime=rec["regime"].astype(int),
            inventory=rec["inventory"].astype(int),
            cash=rec["cash"],
            ask=rec["ask"],
            bid=rec["bid"],
            drift=rec["drift"],
            ask_fill=rec["ask_fill"].astype(bool),
            bid_fill=rec["bid_fill"].astype(bool),
            pnl=float(pnl[0]),
        )
    return out


def simulate_path(config: SimConfig, policy: QuotePolicy = None,
                  path_index: int = 0) -> PathRecord:
    """Replay one path (by stream index) and return its full record."""
    if policy is None:
        policy = make_policy(config.model, "equilibrium", config.n_steps)
    children = np.random.SeedSequence(config.seed).spawn(path_index + 1)
    gen = np.random.Generator(np.random.Philox(children[path_index]))
    uniforms = gen.random((config.n_steps, 3))[None]
    normals = gen.standard_normal(config.n_steps)[None]
    out = run_paths(config, policy, uniforms, normals, config.predator,
                    record=True)
    return out["record"]


def _strategy_stats(result: dict) -> dict:
    pnl = result["pnl"]
    mean = float(pnl.mean())
    std = float(pnl.std(ddof=1)) if pnl.size > 1 else 0.0
    return {
        "mean_pnl": mean,
        "std_pnl": std,
        "sharpe": mean / std if std > 0 else None,
        "mean_total_spread": result["mean_total_spread"],
        "mean_abs_drift": result["mean_abs_drift"],
        "mean_abs_inventory": result["mean_abs_inventory"],
        "mean_terminal_abs_inventory": result["mean_terminal_abs_inventory"],
        "mean_fills_ask": float(result["fills_ask"].mean()),
        "mean_fills_bid": float(result["fills_bid"].mean()),
        "mean_price_increment": result["mean_price_increment"],
    }


def paired_one_sided(diffs: np.ndarray):
    """One-sided paired t test that mean(diffs) > 0; returns (t, p)."""
    diffs = np.asarray(diffs, dtype=float)
    n = diffs.size
    sd = diffs.std(ddof=1) if n > 1 else 0.0
    if sd == 0.0:
        mean = diffs.mean()
        return (math.inf if mean > 0 else (-math.inf if mean < 0 else 0.0),
                0.0 if mean > 0 else 1.0)
    t = float(diffs.mean() / (sd / math.sqrt(n)))
    p = float(scipy.special.stdtr(n - 1, -t))  # Student-t survival at t
    return t, p


@dataclass
class SimReport:
    strategies: dict
    ratios: dict
    paired: dict
    seed: int
    n_paths: int
    n_steps: int
    predator: bool
    notes: list = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "seed": self.seed,
            "n_paths": self.n_paths,
            "n_steps": self.n_steps,
            "predator": self.predator,
            "strategies": self.strategies,
            "ratios": self.ratios,
            "paired": self.paired,
            "notes": self.notes,
        }


def run_monte_carlo(config: SimConfig) -> SimReport:
    """Run vanilla and equilibrium quoting on common random numbers."""
    uniforms, normals = generate_streams(config.seed, config.n_paths,
                                         config.n_steps)
    results = {}
    for kind in ("vanilla", "equilibrium"):
        policy = make_policy(config.model, kind, config.n_steps)
        results[kind] = run_paths(config, policy, uniforms, normals,
                                  config.predator)
    stats = {kind: _strategy_stats(res) for kind, res in results.items()}

    def ratio(num, den):
        return num / den if den not in (0, 0.0) else None

    van, eq = stats["vanilla"], stats["equilibrium"]
    ratios = {
        "pnl_ratio": ratio(eq["mean_pnl"], van["mean_pnl"]),
        "sharpe_ratio": (
            ratio(eq["sharpe"], van["sharpe"])
            if eq["sharpe"] is not None and van["sharpe"] not in (None, 0.0)
            else None
        ),
        "spread_ratio": ratio(eq["mean_total_spread"], van["mean_total_spread"]),
        "drift_ratio": ratio(eq["mean_abs_drift"], van["mean_abs_drift"]),
    }
    t_stat, p_val = paired_one_sided(
        results["equilibrium"]["pnl"] - results["vanilla"]["pnl"]
    )
    paired = {"pnl_t_stat": t_stat if math.isfinite(t_stat) else None,
              "pnl_p_one_sided": p_val}
    notes = []
    if not config.predator:
        notes.append(
            "predator disabled: with xi = 0 the vanilla and equilibrium "
            "policies coincide and any gap reflects xi-awareness only"
        )
    return SimReport(
        strategies=stats,
        ratios=ratios,
        paired=paired,
        seed=config.seed,
        n_paths=config.n_paths,
        n_steps=config.n_steps,
        predator=config.predator,
        notes=notes,
    )
