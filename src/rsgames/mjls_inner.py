"""Inner-layer Markov-jump LQ game.

Per regime i the state follows dX = (A_i X + B_i u + D_i w) dt + Sigma_i dW
with quadratic running cost x'Q_i x + u'R_i u - w'S_i w and terminal cost
x'Q_Ti x.  The quadratic value ansatz V_i(t, x) = x' P_i(t) x + r_i(t) turns
the game into the coupled Riccati flow

    -dP_i/dt = Q_i + A_i'P_i + P_i A_i - P_i Sctrl_i P_i
               + sum_{j != i} mu_ij (P_j - P_i),        P_i(T) = Q_Ti,
    -dr_i/dt = tr(Sigma_i Sigma_i' P_i) + sum_{j != i} mu_ij (r_j - r_i),

with Sctrl_i = B_i R_i^{-1} B_i' - D_i S_i^{-1} D_i'.  Saddle feedback is
u = -R^{-1} B' P x, w = S^{-1} D' P x; the closed-loop cost of those gains
reproduces x' P x exactly, which pins the normalization (see tests).

Rates mu(t) are taken per grid node and held constant over each backward
step, matching the synchronized sweep in :mod:`rsgames.hierarchy`.
"""

from dataclasses import dataclass, field

import numpy as np

from . import numkit
from .numkit import BlowupError, TimeGrid


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def _check_sym_psd(M, name, regime, strict=False):
    if not np.allclose(M, M.T, atol=1e-10):
        raise ValueError(f"{name}[{regime}] is not symmetric")
    w = np.linalg.eigvalsh(_sym(M))
    if strict and w.min() <= 0:
        raise ValueError(f"{name}[{regime}] must be positive definite")
    if not strict and w.min() < -1e-10:
        raise ValueError(f"{name}[{regime}] must be positive semidefinite")


@dataclass
class RegimeLQModel:
    """Per-regime LQ data stacked along axis 0 (shape (N, ...))."""

    A: np.ndarray
    B: np.ndarray
    D: np.ndarray
    Sigma: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    S: np.ndarray
    Q_T: np.ndarray
    mu_bar: np.ndarray = None  # baseline switching rates, off-diagonal >= 0

    def __post_init__(self):
        for name in ("A", "B", "D", "Sigma", "Q", "R", "S", "Q_T"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        N, n = self.A.shape[0], self.A.shape[1]
        if self.A.shape != (N, n, n):
            raise ValueError(f"A must be (N, n, n), got {self.A.shape}")
        for name in ("B", "D", "Sigma"):
            M = getattr(self, name)
            if M.shape[0] != N or M.shape[1] != n:
                raise ValueError(f"{name} must be (N, n, .), got {M.shape}")
        d1, d2 = self.B.shape[2], self.D.shape[2]
        if self.R.shape != (N, d1, d1) or self.S.shape != (N, d2, d2):
            raise ValueError("R/S dimensions inconsistent with B/D")
        if self.Q.shape != (N, n, n) or self.Q_T.shape != (N, n, n):
            raise ValueError("Q/Q_T must be (N, n, n)")
        for i in range(N):
            _check_sym_psd(self.Q[i], "Q", i)
            _check_sym_psd(self.Q_T[i], "Q_T", i)
            _check_sym_psd(self.R[i], "R", i, strict=True)
            _check_sym_psd(self.S[i], "S", i, strict=True)
        if self.mu_bar is None:
            self.mu_bar = np.zeros((N, N))
        self.mu_bar = np.asarray(self.mu_bar, dtype=float)
        if self.mu_bar.shape != (N, N):
            raise ValueError(f"mu_bar must be (N, N), got {self.mu_bar.shape}")
        off = self.mu_bar[~np.eye(N, dtype=bool)]
        if np.any(off < 0):
            raise ValueError("baseline rates must be nonnegative off-diagonal")

    @property
    def n_regimes(self) -> int:
        return self.A.shape[0]

    @property
    def n_states(self) -> int:
        return self.A.shape[1]

    def control_matrix(self, i: int) -> np.ndarray:
        """Sctrl_i = B R^{-1} B' - D S^{-1} D' (symmetric by construction)."""
        B, D = self.B[i], self.D[i]
        gain_u = B @ np.linalg.solve(self.R[i], B.T)
        gain_w = D @ np.linalg.solve(self.S[i], D.T)
        return _sym(gain_u - gain_w)

    def control_matrices(self) -> np.ndarray:
        return np.stack([self.control_matrix(i) for i in range(self.n_regimes)])


@dataclass
class RiccatiSolution:
    grid: TimeGrid
    P: np.ndarray  # (n_nodes, N, n, n)
    r: np.ndarray  # (n_nodes, N)
    rates: np.ndarray = field(repr=False, default=None)  # (n_nodes, N, N)


class _FlowWorkspace:
    """Precomputed per-regime arrays for the vectorized Riccati flow."""

    def __init__(self, model: RegimeLQModel):
        self.A = model.A
        self.At = np.ascontiguousarray(np.swapaxes(model.A, 1, 2))
        self.Q = model.Q
        self.sctrl = model.control_matrices()
        self.noise = np.matmul(model.Sigma, np.swapaxes(model.Sigma, 1, 2))
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


def riccati_step(P_right, r_right, rates, model, t_right, h, workspace=None):
    """One RK4 step of the joint (P, r) flow from t_right to t_right - h.

    `rates` is held constant over the step.  Shared verbatim by the
    standalone solver and the hierarchy sweep so their flows agree exactly.
    """
    ws = workspace if workspace is not None else _FlowWorkspace(model)
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


def _rates_at_nodes(rates, n_nodes, N):
    rates = np.asarray(rates, dtype=float)
    if rates.shape == (N, N):
        return np.broadcast_to(rates, (n_nodes, N, N)).copy()
    if rates.shape == (n_nodes, N, N):
        return rates
    raise ValueError(
        f"rates must be (N, N) or (n_nodes, N, N); got {rates.shape}"
    )


def terminal_value(model: RegimeLQModel) -> np.ndarray:
    """P(T) = Q_T, symmetrized, stacked (N, n, n)."""
    return 0.5 * (model.Q_T + np.swapaxes(model.Q_T, 1, 2))


def check_escape(P: np.ndarray, t: float, norm_bound: float) -> None:
    """Raise BlowupError when some entry of P (N, n, n) at time t leaves
    [-norm_bound, norm_bound]; NaN and inf both count as an escape.  The
    reported regime is the one with the largest Frobenius norm."""
    peak = np.abs(P).max()
    if not peak <= norm_bound:
        norms = np.linalg.norm(P, axis=(1, 2))
        worst = int(np.argmax(np.where(np.isfinite(norms), norms, np.inf)))
        raise BlowupError(
            f"Riccati flow escaped (|P| > {norm_bound:g}) in regime {worst} "
            f"at t={t:.6g}",
            time=t,
            regime=worst,
        )


def solve_coupled_riccati(model: RegimeLQModel, rates, grid: TimeGrid,
                          norm_bound: float = 1e8) -> RiccatiSolution:
    """Backward sweep of the coupled Riccati flow with P(T)=Q_T, r(T)=0.

    Rates may be a constant (N, N) matrix or per-node (n_nodes, N, N); the
    value at the right node of each step is frozen over that step.  An
    entry of P above `norm_bound` in absolute value aborts with the
    finite-escape time (see check_escape).
    """
    N, n = model.n_regimes, model.n_states
    n_nodes = grid.n_steps + 1
    rates = _rates_at_nodes(rates, n_nodes, N)
    workspace = _FlowWorkspace(model)
    nodes = grid.nodes()
    P = np.empty((n_nodes, N, n, n))
    r = np.zeros((n_nodes, N))
    P[-1] = terminal_value(model)
    for k in range(grid.n_steps - 1, -1, -1):
        P[k], r[k] = riccati_step(
            P[k + 1], r[k + 1], rates[k + 1], model, nodes[k + 1], grid.step,
            workspace,
        )
        check_escape(P[k], nodes[k], norm_bound)
    return RiccatiSolution(grid=grid, P=P, r=r, rates=rates)


def hamiltonian_matrix(model: RegimeLQModel, i: int) -> np.ndarray:
    """Block matrix [[A, -Sctrl], [-Q, -A']] of regime i."""
    n = model.n_states
    H = np.zeros((2 * n, 2 * n))
    H[:n, :n] = model.A[i]
    H[:n, n:] = -model.control_matrix(i)
    H[n:, :n] = -model.Q[i]
    H[n:, n:] = -model.A[i].T
    return H


def hamiltonian_spectral_gap(model: RegimeLQModel) -> float:
    """min over regimes of min |Re lambda| over the Hamiltonian spectrum."""
    gaps = []
    for i in range(model.n_regimes):
        lam = numkit.eigenvalues(hamiltonian_matrix(model, i))
        gaps.append(np.abs(lam.real).min())
    return float(min(gaps))
