"""Outer-layer switching game: scalar value flow and per-regime rate games.

The switching rates are bilinear in the players' mixed actions,
mu_ij(f, g) = mu_bar_ij + f' Lambda_ij g, with the row player f pushing
toward costly regimes (maximizer) and the column player g stabilizing
(minimizer).  With the state-independent value ansatz k_i(t) the flow is

    -dk_i/dt = phi_i(t) + sum_{j != i} mu*_ij(t) (k_j(t) - k_i(t)),
    k_i(T) = 0,

where mu*(t) comes from a mixed saddle of the local game
M_i(t) = sum_{j != i} Lambda_ij (k_j(t) - k_i(t)) solved at each node.
:func:`k_step` is the one RK4 step of this flow, with mu* frozen over the
step and phi given at the step's start, midpoint and end; the LQ hierarchy
feeds it tr P_i, and the market-making macro game its short-horizon
inventory penalty, with the effort costs as `penalty` in the quadratic modes.

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
    bilinearity it suffices to check at the vertex pairs.  The macro game's
    policy is the `mode` of as_game.solve_macro_as, not a field here.
    """

    mu_bar: np.ndarray
    Lambda: np.ndarray
    lam_att: np.ndarray = None  # affine attacker profile (N, N), optional
    lam_stab: np.ndarray = None
    rho_f: float = 1.0
    rho_g: float = 1.0

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
        if not (self.rho_f > 0 and self.rho_g > 0):
            raise ValueError("effort costs rho_f, rho_g must be positive")
        worst = self.mu_bar + self.Lambda.min(axis=(2, 3))
        bad = ~np.eye(N, dtype=bool) & ((self.mu_bar < 0) | (worst < -1e-12))
        if bad.any():  # the first offending pair, row-major
            i, j = np.argwhere(bad)[0]
            if self.mu_bar[i, j] < 0:
                raise ValueError(f"mu_bar[{i},{j}] must be nonnegative")
            raise ValueError(
                f"rate mu[{i},{j}] can reach {worst[i, j]:.3g} < 0 at a "
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
        mu0, lam_att, lam_stab = (np.asarray(M, float) for M in (mu0, lam_att, lam_stab))
        if not (np.isfinite(lam_att).all() and np.isfinite(lam_stab).all()):
            raise ValueError("lam_att and lam_stab must be finite")
        Lam = np.zeros(mu0.shape + (2, 2))
        Lam[..., 0, 1] = -lam_stab
        Lam[..., 1, 0] = lam_att
        Lam[..., 1, 1] = lam_att - lam_stab
        Lam[np.diag_indices(mu0.shape[0])] = 0.0
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


def _rate_rows(f, g, spec: OuterGameSpec) -> np.ndarray:
    """The generator mu* (N, N) of every regime's rate row under its
    strategies f (N, n_f), g (N, n_g)."""
    rates = spec.mu_bar + np.einsum("ia,ijac,ic->ij", f, spec.Lambda, g)
    np.fill_diagonal(rates, 0.0)
    if rates.min() < -1e-10:
        i, j = np.unravel_index(np.argmin(rates), rates.shape)
        raise NumericalError(
            f"computed rate mu[{i},{j}] = {rates[i, j]:.3g} < 0; the "
            "OuterGameSpec construction invariant should have precluded this"
        )
    return numkit.generator(np.maximum(rates, 0.0))


def local_game_matrix(k, spec: OuterGameSpec, i: int) -> MatrixGame:
    """M_i = sum_{j != i} Lambda_ij (k_j - k_i)."""
    return MatrixGame(_local_games(k, spec)[i])


def node_equilibrium(k, spec: OuterGameSpec, saddle=game_core.solve_lp):
    """Solve every regime's local game at one time node, all at once.

    The games go to game_core.solve_games, which settles pure saddles and
    full-support equalizers batched and hands only the rest to `saddle`
    (the verified LP by default).  Returns (f, g, mu, path,
    gap) with f: (N, n_f), g: (N, n_g), mu: (N, N) generator, and per
    regime the index into game_core.SADDLE_PATHS of the path that settled
    its game and its best-response gap.
    """
    f, g, path, gap = game_core.solve_games(_local_games(k, spec), saddle)
    return f, g, _rate_rows(f, g, spec), path, gap


def k_step(k, phi, mu, h, penalty=0.0):
    """One classical RK4 step of size h (h < 0 steps backward) of the
    switching-value flow -dk_i/dt = phi_i + sum_j mu_ij (k_j - k_i) - penalty_i.

    phi holds the forcing at the step's start, midpoint (read by both middle
    stages) and end; mu, frozen over the step, may be a generator or its
    off-diagonal part.
    """
    def slope(phi_s, k_s):
        return -(phi_s + np.vecdot(mu, stability_gaps(k_s)) - penalty)

    k1 = slope(phi[0], k)
    k2 = slope(phi[1], k + (0.5 * h) * k1)
    k3 = slope(phi[1], k + (0.5 * h) * k2)
    k4 = slope(phi[2], k + h * k3)
    return k + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def bang_bang_policy(gaps, lam_att, lam_stab, flip: bool = False):
    """Threshold efforts for the affine family, as printed:
    f = 1 iff sum_j lam_att_j * Delta_j < 0, same for g with lam_stab.
    gaps and profiles hold one row (..., N) per regime; f, g are (...).

    flip=True reverses the trigger orientation (> 0), matching the prose
    reading where effort rises when switching toward costlier regimes.
    """
    s_att, s_stab = np.vecdot(lam_att, gaps), np.vecdot(lam_stab, gaps)
    if flip:
        s_att, s_stab = -s_att, -s_stab
    return np.where(s_att < 0, 1.0, 0.0), np.where(s_stab < 0, 1.0, 0.0)


def proportional_policy(gaps, lam_att, lam_stab, rho_f: float, rho_g: float,
                        clamp: bool = True):
    """Variable-gain efforts under quadratic effort costs, rows as in
    bang_bang_policy:
    f = [sum lam_att_j Delta_j]+ / rho_f,  g = [-sum lam_stab_j Delta_j]+ / rho_g.

    With clamp=True (default) efforts are cut to [0, 1] so they remain
    usable as mixing weights.
    """
    if not (rho_f > 0 and rho_g > 0):
        raise ValueError("rho_f and rho_g must be positive")
    s_att, s_stab = np.vecdot(lam_att, gaps), -np.vecdot(lam_stab, gaps)
    # [x]+ keeps x unless 0 > x, so a -0.0 sum stays -0.0
    f = np.where(s_att < 0.0, 0.0, s_att) / rho_f
    g = np.where(s_stab < 0.0, 0.0, s_stab) / rho_g
    if clamp:
        f, g = np.where(f > 1.0, 1.0, f), np.where(g > 1.0, 1.0, g)
    return f, g


def laplacian_spectral_gap(mu: np.ndarray):
    """Smallest strictly positive real part in the spectrum of L = -mu.

    mu must be a generator (zero row sums, nonnegative off-diagonal), or a
    stack (..., N, N) of them, solved with one batched eigenvalue call.
    Returns 0.0 where no eigenvalue has real part above 1e-12: a float for
    one generator, an array of the stack's shape for a stack.
    """
    lam = np.linalg.eigvals(-np.asarray(mu, dtype=float)).real
    smallest = np.where(lam > 1e-12, lam, np.inf).min(axis=-1)
    gap = np.where(np.isfinite(smallest), smallest, 0.0)
    return float(gap) if gap.ndim == 0 else gap
