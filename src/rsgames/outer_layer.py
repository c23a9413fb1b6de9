"""Outer-layer switching game: scalar value flow and per-regime rate games.

The switching rates are bilinear in the players' mixed actions,
mu_ij(f, g) = mu_bar_ij + f' Lambda_ij g, with the row player f pushing
toward costly regimes (maximizer) and the column player g stabilizing
(minimizer).  With the state-independent value ansatz k_i(t) the flow is

    -dk_i/dt = phi_i(t) + sum_{j != i} mu*_ij(t) (k_j(t) - k_i(t)),
    k_i(T) = 0,

where mu*(t) comes from a mixed saddle of the local game
M_i(t) = sum_{j != i} Lambda_ij (k_j(t) - k_i(t)) solved at each node.

The binary-action affine family mu_ij = mu0_ij + f*lam_att_ij -
g*lam_stab_ij is a special case of the bilinear tensor (actions ordered
{off, act}); closed-form threshold and proportional effort policies for
that family live here as well.
"""

from dataclasses import dataclass, field

import numpy as np

from . import game_core, numkit
from .game_core import MatrixGame
from .numkit import NumericalError, TimeGrid


@dataclass
class OuterGameSpec:
    """Bilinear rate perturbation model for the switching game.

    mu_bar: (N, N) baseline rates, off-diagonal entries used.
    Lambda: (N, N, n_f, n_g) per ordered regime pair; Lambda[i, i] ignored.
    Rates must stay nonnegative over the strategy simplices, which by
    bilinearity it suffices to check at the vertex pairs.
    """

    mu_bar: np.ndarray
    Lambda: np.ndarray
    cost_mode: str = "trace_p"  # or "theta" for the market-making layer
    lam_att: np.ndarray = None  # affine attacker profile (N, N), optional
    lam_stab: np.ndarray = None
    rho_f: float = 1.0
    rho_g: float = 1.0
    clamp_efforts: bool = True
    flip_bang_bang: bool = False

    def __post_init__(self):
        self.mu_bar = np.asarray(self.mu_bar, dtype=float)
        self.Lambda = np.asarray(self.Lambda, dtype=float)
        N = self.mu_bar.shape[0]
        if self.mu_bar.shape != (N, N):
            raise ValueError(f"mu_bar must be square, got {self.mu_bar.shape}")
        if self.Lambda.ndim != 4 or self.Lambda.shape[:2] != (N, N):
            raise ValueError(
                f"Lambda must be (N, N, n_f, n_g), got {self.Lambda.shape}"
            )
        if not (np.all(np.isfinite(self.mu_bar)) and np.all(np.isfinite(self.Lambda))):
            raise ValueError("mu_bar and Lambda must be finite")
        if self.cost_mode not in ("trace_p", "theta"):
            raise ValueError(f"unknown cost_mode {self.cost_mode!r}")
        if not (self.rho_f > 0 and self.rho_g > 0):
            raise ValueError("effort costs rho_f, rho_g must be positive")
        for i in range(N):
            for j in range(N):
                if i == j:
                    continue
                if self.mu_bar[i, j] < 0:
                    raise ValueError(f"mu_bar[{i},{j}] must be nonnegative")
                worst = self.mu_bar[i, j] + self.Lambda[i, j].min()
                if worst < -1e-12:
                    raise ValueError(
                        f"rate mu[{i},{j}] can reach {worst:.3g} < 0 at a "
                        "vertex pair; shrink Lambda or raise mu_bar"
                    )

    @property
    def n_regimes(self) -> int:
        return self.mu_bar.shape[0]

    @property
    def n_row_actions(self) -> int:
        return self.Lambda.shape[2]

    @property
    def n_col_actions(self) -> int:
        return self.Lambda.shape[3]

    @classmethod
    def from_affine(cls, mu0, lam_att, lam_stab, **kwargs):
        """Build the 2x2-action bilinear tensor for affine rate control.

        mu_ij(f, g) = mu0_ij + f * lam_att_ij - g * lam_stab_ij with scalar
        efforts f, g in [0, 1] read as the mixing weight on action "act".
        """
        mu0 = np.asarray(mu0, dtype=float)
        lam_att = np.asarray(lam_att, dtype=float)
        lam_stab = np.asarray(lam_stab, dtype=float)
        N = mu0.shape[0]
        Lam = np.zeros((N, N, 2, 2))
        for i in range(N):
            for j in range(N):
                if i == j:
                    continue
                Lam[i, j] = np.array(
                    [
                        [0.0, -lam_stab[i, j]],
                        [lam_att[i, j], lam_att[i, j] - lam_stab[i, j]],
                    ]
                )
        return cls(
            mu_bar=mu0, Lambda=Lam, lam_att=lam_att, lam_stab=lam_stab, **kwargs
        )


@dataclass
class OuterSolution:
    """Backward sweep output; for the market-making layer k holds U."""

    grid: TimeGrid
    k: np.ndarray      # (n_nodes, N)
    f: np.ndarray      # (n_nodes, N, n_f) row strategies / efforts
    g: np.ndarray      # (n_nodes, N, n_g)
    mu: np.ndarray     # (n_nodes, N, N) equilibrium generators
    meta: dict = field(default_factory=dict)


def stability_gaps(k: np.ndarray) -> np.ndarray:
    """Delta_ij = k_j - k_i (antisymmetric by construction)."""
    k = np.asarray(k, dtype=float)
    return k[None, :] - k[:, None]


def _local_games(k, spec: OuterGameSpec) -> np.ndarray:
    """All local games M_i = sum_{j != i} Lambda_ij (k_j - k_i), (N, n_f, n_g)."""
    return np.einsum("ijab,ij->iab", spec.Lambda, stability_gaps(k))


def _rate_rows(f, g, spec: OuterGameSpec, rows: np.ndarray) -> np.ndarray:
    """Rate rows mu*_i. of regimes rows (B,) under strategies f (B, n_f),
    g (B, n_g); the diagonal entry of each row is minus its sum."""
    rates = spec.mu_bar[rows] + np.einsum("ba,bjac,bc->bj", f, spec.Lambda[rows], g)
    diag = (np.arange(rows.size), rows)
    rates[diag] = 0.0
    if rates.min() < -1e-10:
        b, j = np.unravel_index(np.argmin(rates), rates.shape)
        raise NumericalError(
            f"computed rate mu[{rows[b]},{j}] = {rates[b, j]:.3g} < 0; the "
            "OuterGameSpec construction invariant should have precluded this"
        )
    rates = np.maximum(rates, 0.0)
    rates[diag] = -rates.sum(axis=1)
    return rates


def local_game_matrix(k, spec: OuterGameSpec, i: int) -> MatrixGame:
    """M_i = sum_{j != i} Lambda_ij (k_j - k_i)."""
    return MatrixGame(_local_games(k, spec)[i])


def equilibrium_rates(f, g, spec: OuterGameSpec, i: int) -> np.ndarray:
    """Rate row mu*_i. for strategies (f, g); diagonal = -row sum."""
    f = np.asarray(f, dtype=float)[None]
    g = np.asarray(g, dtype=float)[None]
    return _rate_rows(f, g, spec, np.array([i]))[0]


def metzler_apply(mu: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(M(mu) z)_i = sum_{j != i} mu_ij (z_j - z_i); mu diagonal ignored."""
    off = mu - np.diag(np.diag(mu))
    return off @ z - off.sum(axis=1) * z


def outer_rhs(k, phi, mu) -> np.ndarray:
    """Backward-time derivative -dk/dt = phi + M(mu) k."""
    return np.asarray(phi, dtype=float) + metzler_apply(np.asarray(mu), np.asarray(k))


def node_equilibrium(k, spec: OuterGameSpec, saddle=game_core.solve_zero_sum,
                     stats=None):
    """Solve every regime's local game at one time node, all at once.

    The games go to game_core.solve_games, which settles pure saddles, 2x2
    closed forms and full-support equalizers batched and hands only the
    rest to `saddle` (the LP by default).  Returns (f, g, mu) with
    f: (N, n_f), g: (N, n_g), mu: (N, N) generator.  A dict `stats` gains
    the count of games settled by each game_core.SADDLE_PATHS entry and
    keeps the largest best-response gap under "max_gap".
    """
    f, g, path, gap = game_core.solve_games(_local_games(k, spec), saddle)
    mu = _rate_rows(f, g, spec, np.arange(spec.n_regimes))
    if stats is not None:
        counts = np.bincount(path, minlength=len(game_core.SADDLE_PATHS))
        for name, count in zip(game_core.SADDLE_PATHS, counts):
            stats[name] = stats.get(name, 0) + int(count)
        stats["max_gap"] = max(stats.get("max_gap", 0.0), float(gap.max()))
    return f, g, mu


def k_step(k_right, phi_right, phi_left, mu, t_right, h):
    """One RK4 step of -dk/dt = phi(t) + M(mu) k from t_right to t_right - h.

    mu is frozen over the step; phi is interpolated linearly between its
    node values.  Shared by solve_outer and the hierarchy sweep.
    """
    phi_right = np.asarray(phi_right, dtype=float)
    phi_left = np.asarray(phi_left, dtype=float)
    t_left = t_right - h

    def rhs(t, k):
        w = (t - t_left) / h
        phi = phi_left + (phi_right - phi_left) * w
        return -outer_rhs(k, phi, mu)

    return numkit.rk4_step(rhs, t_right, k_right, -h)


def solve_outer(phi: np.ndarray, spec: OuterGameSpec, grid: TimeGrid,
                saddle=game_core.solve_zero_sum) -> OuterSolution:
    """Backward sweep of the switching-value flow with k(T) = 0.

    phi: (n_nodes, N) running cost at every grid node.  At each node the
    local games are solved from the current k, the equilibrium generator is
    frozen over the step, and k is stepped backward.
    """
    phi = np.asarray(phi, dtype=float)
    N = spec.n_regimes
    n_nodes = grid.n_steps + 1
    if phi.shape != (n_nodes, N):
        raise ValueError(f"phi must be (n_nodes, N) = {(n_nodes, N)}, got {phi.shape}")
    nodes = grid.nodes()
    k = np.zeros((n_nodes, N))
    f = np.zeros((n_nodes, N, spec.n_row_actions))
    g = np.zeros((n_nodes, N, spec.n_col_actions))
    mu = np.zeros((n_nodes, N, N))
    for idx in range(grid.n_steps, 0, -1):
        f[idx], g[idx], mu[idx] = node_equilibrium(k[idx], spec, saddle)
        k[idx - 1] = k_step(
            k[idx], phi[idx], phi[idx - 1], mu[idx], nodes[idx], grid.step
        )
    f[0], g[0], mu[0] = node_equilibrium(k[0], spec, saddle)
    return OuterSolution(grid=grid, k=k, f=f, g=g, mu=mu)


def bang_bang_policy(gaps, lam_att, lam_stab, flip: bool = False):
    """Threshold efforts for the affine family, as printed:
    f = 1 iff sum_j lam_att_j * Delta_j < 0, same for g with lam_stab.

    flip=True reverses the trigger orientation (> 0), matching the prose
    reading where effort rises when switching toward costlier regimes.
    """
    gaps = np.asarray(gaps, dtype=float)
    s_att = float(np.asarray(lam_att, dtype=float) @ gaps)
    s_stab = float(np.asarray(lam_stab, dtype=float) @ gaps)
    if flip:
        return (1.0 if s_att > 0 else 0.0), (1.0 if s_stab > 0 else 0.0)
    return (1.0 if s_att < 0 else 0.0), (1.0 if s_stab < 0 else 0.0)


def proportional_policy(gaps, lam_att, lam_stab, rho_f: float, rho_g: float,
                        clamp: bool = True):
    """Variable-gain efforts under quadratic effort costs:
    f = [sum lam_att_j Delta_j]+ / rho_f,  g = [-sum lam_stab_j Delta_j]+ / rho_g.

    With clamp=True (default) efforts are cut to [0, 1] so they remain
    usable as mixing weights.
    """
    if not (rho_f > 0 and rho_g > 0):
        raise ValueError("rho_f and rho_g must be positive")
    gaps = np.asarray(gaps, dtype=float)
    f = max(float(np.asarray(lam_att, dtype=float) @ gaps), 0.0) / rho_f
    g = max(-float(np.asarray(lam_stab, dtype=float) @ gaps), 0.0) / rho_g
    if clamp:
        f, g = min(f, 1.0), min(g, 1.0)
    return f, g


def laplacian_spectral_gap(mu: np.ndarray):
    """Smallest strictly positive real part in the spectrum of L = -mu.

    mu must be a generator (zero row sums, nonnegative off-diagonal), or a
    stack (..., N, N) of them, solved with one batched eigenvalue call.
    Returns 0.0 where no eigenvalue has real part above 1e-12: a float for
    one generator, an array of the stack's shape for a stack.
    """
    lam = numkit.eigenvalues(-np.asarray(mu, dtype=float)).real
    smallest = np.where(lam > 1e-12, lam, np.inf).min(axis=-1)
    gap = np.where(np.isfinite(smallest), smallest, 0.0)
    return float(gap) if gap.ndim == 0 else gap
