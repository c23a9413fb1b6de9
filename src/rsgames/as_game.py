"""Adversarial inventory market-making under regime switching.

A market maker quotes ask/bid offsets (u_a, u_b) from the mid price; orders
arrive with intensity A * exp(-k * u).  A drift predator pushes the price
against the maker's inventory at w*(q) = -xi * gamma * q.  The penalty
table prices it at a variance of sigma_i^2 + xi * gamma, which charges
0.5 * gamma^3 * xi * q^2 per unit time in log-utility units; the replay's
drift costs gamma^2 * xi * q^2, a variance increase of 2 * xi, a factor
2 / gamma more.  Which of the two the model should use is open.  The
inventory penalty theta_i(tau, q)
(tau = time to horizon, regime i, integer inventory q in [-Q, Q]) solves

    d theta_i(q) / d tau = 0.5 * gamma * (sigma_i^2 + xi*gamma) * q^2
        - (A / gamma) * C0 * sum_active_sides exp(-gamma * dtheta_side)
        + (1 / gamma) * sum_{j != i} mu_ij * (1 - exp(-gamma*(theta_j - theta_i)))

with theta(0, q) = 0, C0 = (1 + gamma/k)^(-k/gamma), dtheta_ask =
theta(q-1) - theta(q), dtheta_bid = theta(q+1) - theta(q).  Risk terms
raise the penalty, executed flow lowers it, switching mixes regimes.  The
ask is suppressed at q = -Q and the bid at q = +Q.

The substitution v = exp(-gamma * theta) makes the system exactly linear,
dv/dtau = -M v with a constant block generator M (assembled in
:func:`build_generator`), so v(tau) = expm(-M tau) @ 1 is exact for
piecewise-constant switching rates.  M commutes with the reflection q -> -q
(the risk term goes as q^2, both sides fill at the same rate, the inactive
sides at -+Q mirror each other) and v(0) = 1 is even, so theta is even in
q.  :func:`build_theta_table` therefore solves the even half w(i, m) =
v(i, +-m), m = 0..Q, whose generator (:func:`_fold`) has dimension N (Q+1),
and mirrors it into the table.  It evaluates the half at every tau node at
once from one eigendecomposition when the regime chain is reversible (then
the weights sqrt(pi_i) c_m, c_0 = 1 and c_m = sqrt(2), make the folded
generator symmetric); it steps dense exponentials of the folded generator
with :func:`_propagate` when the chain is not reversible, its stationary law
is near-degenerate, or the eigenvector sum may have lost accuracy to
cancellation.  :func:`solve_theta_exact` steps the full system.  The
nonlinear form above is kept only as an independent test oracle.

Quotes come from the per-side first-order condition against the stored
penalty table:

    u_side = (1/gamma) * ln(1 + gamma/k) + dtheta_side,   clamped >= 0,

so spreads widen whenever holding inventory becomes more expensive.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import game_core, numkit, outer_layer
from .numkit import NumericalError, TimeGrid
from .outer_layer import OuterGameSpec, OuterSolution

SECONDS_PER_YEAR = 365.0 * 86400.0
HOURS_PER_YEAR = 365.0 * 24.0
# largest 1-norm of M * (sub-segment length) that one propagation step takes
MAX_SEG_NORM = 30.0
# most sub-segments per interval that _propagate takes, beyond which it raises
# NumericalError; tier-1, CI, the shipped configs and the workloads need 65
MAX_SUB_SEGMENTS = 10_000
# largest normwise relative rounding bound of the spectral table's v
SPECTRAL_TOL = 1e-8
# smallest stationary weight, relative to the largest, the spectral table takes
MIN_WEIGHT = 1e-6
# tau nodes per block of exponentials, so no second (n_nodes, dim) array exists
SPECTRAL_CHUNK_NODES = 64
# relative gap between a macro node's true bracket and its game value above
# which solve_macro_as counts the node as non-bilinear
NONBILINEAR_TOL = 1e-9


@dataclass
class ASModel:
    """Market-making parameters.  Times are in years (365-day year).

    gamma: CARA risk aversion (1/currency)
    xi: predator cost coefficient; drift control w*(q) = -xi*gamma*q
    A: base order-flow intensity (fills/year at zero offset)
    k: offset sensitivity of the fill intensity (1/currency)
    sigmas: per-regime annualized volatility, one entry per regime
    q_max: inventory bound (integer units)
    horizon: trading horizon T
    rates: regime switching generator (off-diagonal rates per year)
    s0: initial mid price
    """

    gamma: float
    xi: float
    A: float
    k: float
    sigmas: np.ndarray
    q_max: int
    horizon: float
    rates: np.ndarray = None
    s0: float = 90863.90

    def __post_init__(self):
        self.sigmas = np.atleast_1d(np.asarray(self.sigmas, dtype=float))
        for name in ("gamma", "xi", "A", "k", "sigmas", "horizon", "s0", "rates"):
            value = getattr(self, name)
            if value is not None and not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value}")
        if min(self.gamma, self.A, self.k, self.s0) <= 0:
            raise ValueError("gamma, A, k and s0 must be positive")
        if self.xi < 0:
            raise ValueError("xi must be nonnegative")
        if np.any(self.sigmas <= 0):
            raise ValueError("sigmas must be positive")
        if self.q_max < 1:
            raise ValueError("q_max must be at least 1")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        N = self.sigmas.shape[0]
        rates = np.zeros((N, N)) if self.rates is None else np.asarray(self.rates, float)
        if rates.shape != (N, N):  # only the internal helpers take stacks of generators
            raise ValueError(f"rates must be ({N}, {N}), got {rates.shape}")
        self.rates = numkit.generator(rates)

    @property
    def n_regimes(self) -> int:
        return self.sigmas.shape[0]

    @property
    def n_levels(self) -> int:
        return 2 * self.q_max + 1

    def q_levels(self) -> np.ndarray:
        return np.arange(-self.q_max, self.q_max + 1)

    @property
    def fill_constant(self) -> float:
        """C0 = (1 + gamma/k)^(-k/gamma)."""
        return float((1.0 + self.gamma / self.k) ** (-self.k / self.gamma))

    @property
    def base_offset(self) -> float:
        """Zero-inventory per-side offset (1/gamma) ln(1 + gamma/k)."""
        return float(math.log1p(self.gamma / self.k) / self.gamma)


@dataclass
class ThetaTable:
    """Penalty table theta[node, regime, q + q_max] on ascending taus;
    method names the path that built it, "spectral" or "propagate"."""

    taus: np.ndarray
    theta: np.ndarray
    method: str


def build_generator(model: ASModel, rates=None) -> np.ndarray:
    """Assemble the block generator M of the linear penalty system.

    State index = regime * (2*q_max + 1) + (q + q_max).  Per state:
    diagonal   0.5*gamma^2*(sigma_i^2 + xi*gamma)*q^2 + sum_j mu_ij
    inventory  -A*C0 to (i, q -+ 1) for each active side
    regime     -mu_ij to (j, q)
    The inactive side at q = -+ q_max contributes no inventory entry, which
    is what halves the executed-flow term at the bounds.
    """
    N, nq = model.n_regimes, model.n_levels
    Q = numkit.generator(model.rates if rates is None else rates)
    fill = model.A * model.fill_constant
    gamma = model.gamma
    risk = 0.5 * gamma**2 * (model.sigmas**2 + model.xi * gamma)
    qs, level, regime = model.q_levels(), np.arange(nq), np.arange(N)[:, None]
    M = np.zeros((N, nq, N, nq))  # M[i, q + q_max, j, q' + q_max]
    M[:, level, :, level] = -Q  # the diagonal j = i is overwritten next
    M[regime, level, regime, level] = risk[:, None] * qs * qs - Q.diagonal()[:, None]
    M[regime, level[1:], regime, level[:-1]] = -fill  # ask active: q -> q - 1
    M[regime, level[:-1], regime, level[1:]] = -fill  # bid active: q -> q + 1
    return M.reshape(N * nq, N * nq)


def _propagate(M: np.ndarray, dtau: float, n_steps: int, v: np.ndarray):
    """Step dv/dtau = -M v from the state v through n_steps intervals of
    length dtau, yielding (v, log_scale), the state v * exp(log_scale),
    after each interval.

    One numkit.expm(-M dtau / n_sub) is built and applied n_sub times per
    interval, with n_sub chosen to keep |M| per sub-segment below
    MAX_SEG_NORM.  v is rescaled to max 1 after every sub-segment, so
    arbitrarily stiff generators stay inside floating range.
    """
    norm_dtau = float(np.abs(M).sum(axis=0).max()) * dtau
    if not norm_dtau <= MAX_SUB_SEGMENTS * MAX_SEG_NORM:  # inf and NaN too
        raise NumericalError(f"penalty system too stiff: |M| dtau = {norm_dtau:.4g} "
                             f"needs over {MAX_SUB_SEGMENTS} sub-segments per interval")
    n_sub = max(1, math.ceil(norm_dtau / MAX_SEG_NORM))
    E = numkit.expm(-M * (dtau / n_sub))
    log_scale = 0.0
    for step in range(1, n_steps + 1):
        for _ in range(n_sub):
            v = E @ v
            top = v.max()
            if not np.isfinite(top) or np.any(v <= 0.0):
                raise NumericalError(
                    f"CARA transform v lost positivity in interval {step} of "
                    f"{n_steps} (dtau={dtau:.6g})"
                )
            v /= top
            log_scale += math.log(top)
        yield v, log_scale


def solve_theta_exact(model: ASModel, rates=None, tau: float = 0.0) -> np.ndarray:
    """Penalty slice theta(tau) of shape (N, 2*q_max+1) via the matrix
    exponential, exact for rates constant on the interval."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    N, nq = model.n_regimes, model.n_levels
    v, log_scale = np.ones(N * nq), 0.0
    if tau > 0:
        (v, log_scale), = _propagate(build_generator(model, rates), tau, 1, v)
    return (-(np.log(v) + log_scale) / model.gamma).reshape(N, nq)


def _reversible_weights(Q: np.ndarray):
    """Stationary law pi of the generator Q if the chain obeys detailed
    balance pi_i Q_ij = pi_j Q_ji (to rounding, relative to max pi_i Q_ij)
    with no pi_i below MIN_WEIGHT * max pi; None otherwise.  pi solves
    (Q^T + 1 1^T) pi = 1, which is singular unless the chain is irreducible."""
    try:
        pi = np.linalg.solve(Q.T + 1.0, np.ones(Q.shape[0]))
    except np.linalg.LinAlgError:
        return None
    if not pi.min() >= MIN_WEIGHT * pi.max():
        return None
    flow = pi[:, None] * Q
    np.fill_diagonal(flow, 0.0)
    if np.abs(flow - flow.T).max() > 1e-12 * np.abs(flow).max():
        return None
    return pi


def _fold(M: np.ndarray, N: int, Q: int) -> np.ndarray:
    """The generator on the even half w(i, m) = v(i, +-m), m = 0..Q, of
    shape (N (Q+1), N (Q+1)): rows q >= 0 of M, with the column of each -m
    added to the column of its +m.  Exact for even v, because M commutes with
    the reflection q -> -q; row m = 0 gets -2 fill towards m = 1."""
    nq = 2 * Q + 1
    rows = M.reshape(N, nq, N, nq)[:, Q:]
    half = rows[..., Q:].copy()
    half[..., 1:] += rows[..., Q - 1::-1]
    return half.reshape(N * (Q + 1), N * (Q + 1))


def _mirror(half: np.ndarray, out: np.ndarray) -> None:
    """Write the even half (..., N, Q+1) into out (..., N, 2Q+1): level q of
    out takes half[..., |q|], so out is reflection-symmetric bitwise."""
    Q = half.shape[-1] - 1
    out[..., Q:] = half
    out[..., :Q] = half[..., :0:-1]


def _spectral_theta(M: np.ndarray, pi: np.ndarray, taus: np.ndarray,
                    gamma: float, theta: np.ndarray) -> bool:
    """Write theta at every tau into theta (n_nodes, N, 2Q+1) from one eigh
    of the symmetrized folded generator M (see _fold), formed in M; return
    False, leaving the table to _propagate, when rounding may have spoilt it.

    The fold doubles the fill from m = 0 to m = 1 only, so the weights d =
    sqrt(pi_i) c_m with c_0 = 1 and c_m = sqrt(2) for m >= 1 make S = D M
    D^-1 symmetric, S = U L U^T, and the even half is w(tau) = D^-1 U
    exp(-L tau) U^T d.  With l0 the smallest eigenvalue, c = U^T d, E =
    exp(-(L - l0) tau) * c and V = E U^T / d, the half table is -(log V - l0
    tau) / gamma; the shift keeps every exponential <= 1.  Entry x of E U^T
    sums terms whose sizes add up to at most exp(-(L - l0) tau) @ |c|, so
    when eps * dim times that exceeds SPECTRAL_TOL * d_x V_x (which also
    catches V <= 0 and NaN), the sum may have cancelled.  The exponentials
    are formed SPECTRAL_CHUNK_NODES tau nodes at a time, and each block's
    half is mirrored into theta before the next, so no second table-sized
    array exists.
    """
    N, half_levels = pi.shape[0], (theta.shape[-1] + 1) // 2
    dim = M.shape[0]
    c_m = np.full(half_levels, math.sqrt(2.0))
    c_m[0] = 1.0
    d = np.multiply.outer(np.sqrt(pi), c_m).ravel()
    M *= d[:, None]
    M /= d[None, :]
    lam, U = np.linalg.eigh(M)
    c = U.T @ d
    for first in range(0, len(taus), SPECTRAL_CHUNK_NODES):
        part = slice(first, first + SPECTRAL_CHUNK_NODES)
        E = np.exp(np.multiply.outer(-taus[part], lam - lam[0]))
        bound = (np.finfo(float).eps * dim / SPECTRAL_TOL) * (E @ np.abs(c))
        E *= c
        half = E @ U.T
        if not np.all(half.min(axis=1) > bound):
            return False
        half /= d
        np.log(half, out=half)
        half -= (lam[0] * taus[part])[:, None]
        half /= -gamma
        _mirror(half.reshape(-1, N, half_levels), theta[part])
    theta[0] = 0.0
    return True


def build_theta_table(model: ASModel, n_steps: int) -> ThetaTable:
    """Penalty table on the uniform tau grid {0, dτ, ..., horizon}.

    The generator commutes with the reflection q -> -q and v(0) = 1 is even,
    so theta is even in q: the table is solved on the even half m = 0..q_max
    (dimension N (q_max+1), see _fold) and mirrored.  The half comes from one
    spectral evaluation for a reversible chain, else it is stepped by
    _propagate.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    N, Q = model.n_regimes, model.q_max
    taus = np.linspace(0.0, model.horizon, n_steps + 1)
    theta = np.zeros((n_steps + 1, N, model.n_levels))
    pi = _reversible_weights(model.rates)
    if pi is not None and _spectral_theta(_fold(build_generator(model), N, Q), pi,
                                          taus, model.gamma, theta):
        method = "spectral"
    else:
        method = "propagate"
        theta[0] = 0.0
        steps = _propagate(_fold(build_generator(model), N, Q),
                           model.horizon / n_steps, n_steps, np.ones(N * (Q + 1)))
        for idx, (v, log_scale) in enumerate(steps, start=1):
            _mirror((-(np.log(v) + log_scale) / model.gamma).reshape(N, Q + 1),
                    theta[idx])
    return ThetaTable(taus=taus, theta=theta, method=method)


def _integrated_variances(model: ASModel, rates, taus) -> np.ndarray:
    """w_i(tau) = int_0^tau [exp(Q u) s]_i du, s the squared vols, for every
    generator Q in the stack rates (..., N, N) (default the model's), every
    tau in taus and regime i: shape (..., len(taus), N).

    Computed exactly through the augmented generator [[Q, s], [0, 0]]: the
    top-right block of its exponential is the integral above.  Every (Q,
    tau) pair goes through one stacked numkit.expm, which treats each slice
    exactly as it treats a single matrix.
    """
    taus = np.asarray(taus, dtype=float)
    if np.any(taus < 0):
        raise ValueError("tau must be nonnegative")
    N = model.n_regimes
    Q = numkit.generator(model.rates if rates is None else rates)
    aug = np.zeros(Q.shape[:-2] + (1, N + 1, N + 1))
    aug[..., :N, :N] = Q[..., None, :, :]
    aug[..., :N, N] = model.sigmas**2
    return numkit.expm(aug * taus[:, None, None])[..., :N, N]


def risk_factors(model: ASModel, rates=None, taus=(0.0,)) -> np.ndarray:
    """Horizon-integrated risk factors C_i(tau) = gamma w_i(tau) +
    gamma^2 xi tau, shape (..., len(taus), N) for generators rates (..., N,
    N), from one stacked exponential."""
    taus = np.asarray(taus, dtype=float)
    w = _integrated_variances(model, rates, taus)
    return model.gamma * w + model.gamma**2 * model.xi * taus[:, None]


def risk_factor(model: ASModel, rates=None, i: int = 0, tau: float = 0.0) -> float:
    """C_i(tau), one entry of :func:`risk_factors`."""
    return float(risk_factors(model, rates, [tau])[0, i])


def theta_expansions(model: ASModel, rates=None, taus=(0.0,), qs=None) -> np.ndarray:
    """Short-horizon penalty (q^2/2) C_i(tau) - c_q (A/gamma) C0 tau, with
    the executed-flow coefficient c_q = 2 interior and 1 at q = -+ q_max,
    shape (..., len(taus), N, len(qs)) for generators rates (..., N, N); qs
    defaults to every inventory level."""
    qs = model.q_levels() if qs is None else np.asarray(qs)
    if np.any(np.abs(qs) > model.q_max):
        raise ValueError(f"|q| = {np.abs(qs).max()} exceeds the inventory bound "
                         f"{model.q_max}")
    taus = np.asarray(taus, dtype=float)
    c_q = np.where(np.abs(qs) == model.q_max, 1.0, 2.0)
    rent = c_q * (model.A / model.gamma) * model.fill_constant * taus[:, None, None]
    return 0.5 * qs * qs * risk_factors(model, rates, taus)[..., None] - rent


def quote_surfaces(table: ThetaTable, model: ASModel):
    """Vectorized quote arrays over the whole table.

    Returns (ask, bid), each of shape (n_nodes, N, 2*q_max+1).  The ask does
    not quote at level 0 (q = -q_max), nor the bid at level 2*q_max (q =
    +q_max): their entries there are NaN; every other is clamped at 0.
    """
    base = model.base_offset
    th = table.theta
    ask = np.full_like(th, np.nan)
    bid = np.full_like(th, np.nan)
    ask[:, :, 1:] = np.maximum(base + th[:, :, :-1] - th[:, :, 1:], 0.0)
    bid[:, :, :-1] = np.maximum(base + th[:, :, 1:] - th[:, :, :-1], 0.0)
    return ask, bid


def _affine_generators(spec: OuterGameSpec, f_act, g_act) -> np.ndarray:
    """Rates (B, N, N), zero diagonal, under effort arrays f_act, g_act (B,)."""
    off = (spec.mu_bar + f_act[:, None, None] * spec.lam_att
           - g_act[:, None, None] * spec.lam_stab)
    off[:, np.arange(spec.n_regimes), np.arange(spec.n_regimes)] = 0.0
    return np.maximum(off, 0.0)


MACRO_MODES = ("affine", "quadratic", "quadratic_unclamped", "bang_bang",
               "bang_bang_flipped")


@np.errstate(over="ignore", invalid="ignore")
def solve_macro_as(model: ASModel, spec: OuterGameSpec, q: int, n_steps: int,
                   mode: str = "affine") -> OuterSolution:
    """Backward macro sweep of U_i(t, q) for one inventory level, on
    n_steps uniform steps of the model's horizon [0, T].

    The node optimization is min over the stabilizer, max over the driver of
    phi_i(q; f, g) + sum_j mu_ij(f, g) (U_j - U_i), with phi evaluated under
    the candidate rates applied to the whole chain, so it is not bilinear in
    (f, g).  In affine mode the four action vertices define a 2x2 game per
    regime; one game_core.solve_games call settles the node's N games, each
    regime adopts its mixed saddle, and regimes where the true bracket there
    strays from the game value by more than NONBILINEAR_TOL are counted in
    meta["nonbilinear_nodes"].  The quadratic modes play the proportional
    efforts, cut at 1 in quadratic, and charge both effort penalties to the
    flow; bang_bang plays the printed thresholds, bang_bang_flipped the same
    on the negated gaps, whose sums are the negated sums: the trigger reverses.

    phi comes from stacked exponentials: the four vertex generators over all
    node taus once, each node's N adopted generators at the taus of the
    step's start, midpoint and end; outer_layer.k_step takes U one step back
    with those and the node's adopted rates.  A step too long for the rates
    it froze raises NumericalError after the sweep, overflowed or not.

    Order in time: first in the quadratic modes (efforts frozen over a step),
    third in affine and bang_bang (measured on simulate_lively.yaml, q = 2).
    """
    if spec.lam_att is None or spec.lam_stab is None:
        raise ValueError("solve_macro_as needs an affine-profile OuterGameSpec")
    if mode not in MACRO_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if not float(q).is_integer():
        raise ValueError(f"inventory q = {q} is not an integer")
    N = spec.n_regimes
    if N != model.n_regimes:
        raise ValueError("model and spec disagree on the number of regimes")
    grid = TimeGrid(0.0, model.horizon, n_steps)
    nodes = grid.nodes()
    h = -grid.step
    regimes = np.arange(N)
    quadratic = mode.startswith("quadratic")

    U = np.zeros((n_steps + 1, N))
    efforts = np.zeros((n_steps + 1, 2, N))
    mu = np.zeros((n_steps + 1, N, N))
    flagged = 0

    if mode == "affine":
        # vertex v = 2 * f_act + g_act of the action pairs
        vertex_rates = _affine_generators(spec, np.array([0.0, 0.0, 1.0, 1.0]),
                                          np.array([0.0, 1.0, 0.0, 1.0]))
        vertex_costs = theta_expansions(model, vertex_rates, grid.T - nodes, [q])[..., 0]

    for idx in range(n_steps, -1, -1):
        gaps = outer_layer.stability_gaps(U[idx])
        if quadratic:
            f, g = outer_layer.proportional_policy(gaps, spec.lam_att, spec.lam_stab,
                                                   spec.rho_f, spec.rho_g)
            if mode == "quadratic":
                f, g = np.where(f > 1.0, 1.0, f), np.where(g > 1.0, 1.0, g)
        elif mode.startswith("bang_bang"):
            f, g = outer_layer.bang_bang_policy(
                -gaps if mode == "bang_bang_flipped" else gaps, spec.lam_att, spec.lam_stab)
        else:
            H = vertex_costs[:, idx] + np.vecdot(vertex_rates, gaps)
            games = H.T.reshape(N, 2, 2)
            f_mix, g_mix, _, _ = game_core.solve_games(games)
            f, g = f_mix[:, 1], g_mix[:, 1]
        rates = _affine_generators(spec, f, g)
        mu_rows = rates[regimes, regimes]
        t = nodes[idx]
        stage_ts = (t, t + 0.5 * h, t + h) if idx else (t,)
        # phi_i(q) of regime i under its adopted generator rates[i]
        stage_costs = theta_expansions(model, rates, grid.T - np.array(stage_ts),
                                       [q])[regimes, :, regimes, 0].T
        if mode == "affine":
            value = np.einsum("ia,iab,ib->i", f_mix, games, g_mix)
            true_val = stage_costs[0] + np.vecdot(mu_rows, gaps)
            tol = NONBILINEAR_TOL * np.maximum(1.0, np.abs(value))
            flagged += int(np.count_nonzero(np.abs(true_val - value) > tol))
        efforts[idx] = f, g
        mu[idx] = numkit.generator(mu_rows)
        if idx:
            penalty = (0.5 * spec.rho_f * f**2 + 0.5 * spec.rho_g * g**2
                       if quadratic else 0.0)
            U[idx - 1] = outer_layer.k_step(U[idx], stage_costs, mu_rows, h, penalty)

    numkit.check_step_growth(mu[1:], grid.step, nodes[1:], "mm.macro.n_steps")
    f_act, g_act = efforts[:, 0], efforts[:, 1]
    return OuterSolution(
        grid=grid, k=U,
        f=np.stack([1.0 - f_act, f_act], axis=2),
        g=np.stack([1.0 - g_act, g_act], axis=2), mu=mu,
        meta={"mode": mode, "nonbilinear_nodes": flagged, "inventory": int(q)},
    )
