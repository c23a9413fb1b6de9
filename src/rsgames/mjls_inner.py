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
step of backward_sweep, the one loop of the flow, which the standalone
solver and the synchronized sweep in :mod:`rsgames.hierarchy` share.

The right-hand side costs two batched matmuls per RK4 stage.  With
W_i = A_i - Sctrl_i P_i / 2,

    A_i'P_i + P_i A_i - P_i Sctrl_i P_i = P_i W_i + (P_i W_i)',

which holds because P_i and Sctrl_i are symmetric.  The step keeps P
exactly symmetric: P(T) is symmetrized, every slope is assembled from
exactly symmetric terms (Y + Y', the symmetrized Q, a coupling that is
linear in P), and stage values are sums of those.  The same symmetry turns
tr(Sigma Sigma' P_i) into one row-wise dot product.
"""

from dataclasses import dataclass

import numpy as np

from . import numkit
from .numkit import BlowupError, TimeGrid

# an entry of P beyond this in absolute value is a finite escape (check_escape)
NORM_BOUND = 1e8


def _sym(M: np.ndarray) -> np.ndarray:
    """Symmetric part of M, or of each matrix of a stack (..., n, n)."""
    return 0.5 * (M + np.swapaxes(M, -1, -2))


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

    def __post_init__(self):
        for name in ("A", "B", "D", "Sigma", "Q", "R", "S", "Q_T"):
            M = np.asarray(getattr(self, name), dtype=float)
            if M.ndim != 3:
                raise ValueError(f"{name} must be a stack (N, ., .), got {M.shape}")
            if not np.all(np.isfinite(M)):
                raise ValueError(f"{name} must be finite")
            setattr(self, name, M)
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
        # symmetric to 1e-10 and positive (semi)definite, per regime; the first
        # failure in regime-major order is raised
        names, failures = ("Q", "Q_T", "R", "S"), []
        for name in names:
            M = getattr(self, name)
            low = np.linalg.eigvalsh(_sym(M)).min(axis=-1)
            definite = name in ("R", "S")  # Q and Q_T may be singular
            bad = np.where(low <= 0 if definite else low < -1e-10,
                           f"must be positive {'' if definite else 'semi'}definite", "")
            asym = ~np.isclose(M, np.swapaxes(M, 1, 2), atol=1e-10).all(axis=(1, 2))
            failures.append(np.where(asym, "is not symmetric", bad))
        failed = np.argwhere(np.stack(failures, axis=1) != "")
        if failed.size:
            i, k = failed[0]
            raise ValueError(f"{names[k]}[{i}] {failures[k][i]}")

    @property
    def n_regimes(self) -> int:
        return self.A.shape[0]

    @property
    def n_states(self) -> int:
        return self.A.shape[1]

    def control_matrices(self) -> np.ndarray:
        """Sctrl_i = B_i R_i^{-1} B_i' - D_i S_i^{-1} D_i', stacked (N, n, n)
        and symmetric by construction."""
        gain_u = self.B @ np.linalg.solve(self.R, np.swapaxes(self.B, 1, 2))
        gain_w = self.D @ np.linalg.solve(self.S, np.swapaxes(self.D, 1, 2))
        return _sym(gain_u - gain_w)


@dataclass
class RiccatiSolution:
    grid: TimeGrid
    P: np.ndarray  # (n_nodes, N, n, n)
    r: np.ndarray  # (n_nodes, N)


class _FlowWorkspace:
    """Per-regime arrays of the Riccati flow and the RK4 stage buffers.

    Every stage writes into these buffers, so a step allocates no array of
    the size of P.
    """

    def __init__(self, model: RegimeLQModel):
        N, n = model.n_regimes, model.n_states
        self.A = model.A
        self.Q = _sym(model.Q)
        self.half_sctrl = 0.5 * model.control_matrices()
        self.noise = np.matmul(model.Sigma, np.swapaxes(model.Sigma, 1, 2)).reshape(N, -1)
        self.W = np.empty((N, n, n))       # A - Sctrl P / 2, then G P
        self.Y = np.empty((N, n, n))       # P W
        self.P = np.empty((N, n, n))       # stage value of P
        self.r = np.empty(N)               # stage value of r
        self.kP = tuple(np.empty((N, n, n)) for _ in range(4))  # RK4 slopes
        self.kr = np.empty((4, N))
        self.kr_rows = tuple(self.kr)

    def derivative(self, P, r, G, dP, dr):
        """Write (-dP/dt, -dr/dt) at the symmetric P into dP and dr.

        G is the generator of the rates (numkit.generator), so that
        (G P)_i = sum_{j != i} mu_ij (P_j - P_i), or None for uncoupled
        regimes.
        """
        N = len(dr)
        np.matmul(self.half_sctrl, P, out=self.W)
        np.subtract(self.A, self.W, out=self.W)
        np.matmul(P, self.W, out=self.Y)
        np.add(self.Y, self.Y.transpose(0, 2, 1), out=dP)
        dP += self.Q
        np.vecdot(self.noise, P.reshape(N, -1), out=dr)
        if G is not None:
            np.matmul(G, P.reshape(N, -1), out=self.W.reshape(N, -1))
            dP += self.W
            dr += G @ r


_RK4_WEIGHTS = np.array([1.0, 2.0, 2.0, 1.0])


def riccati_step(ws, P_right, r_right, G, h, P_out, r_out):
    """One RK4 step of the joint (P, r) flow from the right node of a step
    of length h to its left node, written into P_out and r_out.

    The generator G (N, N) of the rates is held constant over the step;
    when it is all zero the regimes are uncoupled and the coupling terms
    are skipped.  Both solvers step through it, in backward_sweep.
    """
    if not G.any():
        G = None
    kP, kr, P, r = ws.kP, ws.kr_rows, ws.P, ws.r
    # classical RK4 in backward time tau = T - t, step +h, rhs = -d/dt
    ws.derivative(P_right, r_right, G, kP[0], kr[0])
    for s, c in ((1, 0.5 * h), (2, 0.5 * h), (3, h)):
        np.multiply(kP[s - 1], c, out=P)
        P += P_right
        if G is not None:  # the uncoupled slope of r does not read r
            np.multiply(kr[s - 1], c, out=r)
            r += r_right
        ws.derivative(P, r, G, kP[s], kr[s])
    # P_out = P_right + h/6 (k1 + 2 k2 + 2 k3 + k4)
    acc = kP[1]
    acc += kP[2]
    acc *= 2.0
    acc += kP[0]
    acc += kP[3]
    acc *= h / 6.0
    np.add(P_right, acc, out=P_out)
    np.add(r_right, (h / 6.0) * (_RK4_WEIGHTS @ ws.kr), out=r_out)


def _rates_at_nodes(rates, n_nodes, N):
    rates = np.asarray(rates, dtype=float)
    if rates.shape == (N, N):
        return np.broadcast_to(rates, (n_nodes, N, N))
    if rates.shape == (n_nodes, N, N):
        return rates
    raise ValueError(
        f"rates must be (N, N) or (n_nodes, N, N); got {rates.shape}"
    )


def terminal_value(model: RegimeLQModel) -> np.ndarray:
    """P(T) = Q_T, symmetrized, stacked (N, n, n)."""
    return _sym(model.Q_T)


def check_escape(P: np.ndarray, t: float) -> None:
    """Raise BlowupError when some entry of P (N, n, n) at time t leaves
    [-NORM_BOUND, NORM_BOUND]; NaN and inf both count as an escape.  The
    reported regime is the one with the largest Frobenius norm."""
    if not (P.max() <= NORM_BOUND and P.min() >= -NORM_BOUND):
        norms = np.linalg.norm(P, axis=(1, 2))
        worst = int(np.argmax(np.where(np.isfinite(norms), norms, np.inf)))
        raise BlowupError(
            f"Riccati flow escaped (|P| > {NORM_BOUND:g}) in regime {worst} "
            f"at t={t:.6g}",
            time=t,
            regime=worst,
        )


def backward_sweep(model: RegimeLQModel, grid: TimeGrid, node_rates) -> RiccatiSolution:
    """The one backward RK4 sweep of the Riccati flow from P(T) = Q_T, r(T) = 0.

    node_rates(idx, P), called right to left once P[idx] is known, returns
    node idx's generator (N, N), frozen over the step to idx - 1.  An escape
    of P (check_escape), and a finished sweep, are first judged by
    numkit.check_step_growth over the generators frozen so far.
    """
    N, n = model.n_regimes, model.n_states
    nodes = grid.nodes()
    workspace = _FlowWorkspace(model)
    P = np.empty((len(nodes), N, n, n))
    r = np.zeros((len(nodes), N))
    G = np.empty((len(nodes), N, N))
    P[-1] = terminal_value(model)
    G[-1] = node_rates(grid.n_steps, P)
    for idx in range(grid.n_steps, 0, -1):
        riccati_step(workspace, P[idx], r[idx], G[idx], grid.step, P[idx - 1], r[idx - 1])
        try:
            check_escape(P[idx - 1], nodes[idx - 1])
        except BlowupError:
            numkit.check_step_growth(G[idx:], grid.step, nodes[idx:], "grid.n_steps")
            raise
        G[idx - 1] = node_rates(idx - 1, P)
    numkit.check_step_growth(G[1:], grid.step, nodes[1:], "grid.n_steps")
    return RiccatiSolution(grid=grid, P=P, r=r)


def solve_coupled_riccati(model: RegimeLQModel, rates, grid: TimeGrid) -> RiccatiSolution:
    """backward_sweep under rates (N, N), or per node (n_nodes, N, N), each
    node's value frozen over the step to its left."""
    G = numkit.generator(_rates_at_nodes(rates, grid.n_steps + 1, model.n_regimes))
    return backward_sweep(model, grid, lambda idx, P: G[idx])


def hamiltonian_matrices(model: RegimeLQModel) -> np.ndarray:
    """Block matrices [[A_i, -Sctrl_i], [-Q_i, -A_i']], stacked (N, 2n, 2n)."""
    return np.block([[model.A, -model.control_matrices()],
                     [-model.Q, -np.swapaxes(model.A, 1, 2)]])


def hamiltonian_spectral_gap(model: RegimeLQModel) -> float:
    """min over regimes of min |Re lambda| over the Hamiltonian spectrum."""
    return float(np.abs(np.linalg.eigvals(hamiltonian_matrices(model)).real).min())
