"""Dense linear-algebra and ODE primitives shared by the solver modules."""

from dataclasses import dataclass

import numpy as np
import scipy.linalg


class NumericalError(RuntimeError):
    """A numerical routine could not meet its accuracy contract."""


class BlowupError(NumericalError):
    """A backward flow left the finite range (finite-escape detected)."""

    def __init__(self, message, time=None, regime=None):
        super().__init__(message)
        self.time = time
        self.regime = regime


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [t0, T] with n_steps intervals (n_steps + 1 nodes)."""

    t0: float
    T: float
    n_steps: int

    def __post_init__(self):
        if not self.T > self.t0:
            raise ValueError(f"need T > t0, got t0={self.t0}, T={self.T}")
        if self.n_steps < 1:
            raise ValueError(f"need n_steps >= 1, got {self.n_steps}")

    @property
    def step(self) -> float:
        return (self.T - self.t0) / self.n_steps

    def nodes(self) -> np.ndarray:
        return np.linspace(self.t0, self.T, self.n_steps + 1)


def _as_square(M, stack: bool = False) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or (M.ndim > 2 and not stack) or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    return M


def matrix_exponential(M) -> np.ndarray:
    """exp(M) for a square matrix (scaling-and-squaring via scipy)."""
    return scipy.linalg.expm(_as_square(M))


def expm_action(M, v, t: float) -> np.ndarray:
    """exp(M*t) @ v."""
    M = _as_square(M)
    v = np.asarray(v, dtype=float)
    if v.shape[0] != M.shape[0]:
        raise ValueError(f"dimension mismatch: M is {M.shape}, v is {v.shape}")
    return scipy.linalg.expm(M * t) @ v


def eigenvalues(M) -> np.ndarray:
    """All eigenvalues of M (with multiplicity), as a complex array.

    M may also be a stack (..., n, n); the result is then (..., n), from
    one batched call.
    """
    M = _as_square(M, stack=True)
    try:
        return np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration did not converge: {exc}") from exc


def rk4_step(rhs, t: float, y: np.ndarray, h: float) -> np.ndarray:
    """One classical Runge-Kutta step of size h (h may be negative)."""
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + (0.5 * h) * k1)
    k3 = rhs(t + 0.5 * h, y + (0.5 * h) * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_backward(rhs, terminal, grid: TimeGrid) -> np.ndarray:
    """Integrate y' = rhs(t, y) from y(T) = terminal back to t0 with RK4.

    Returns the trajectory at all grid nodes, index 0 = t0, index n_steps = T.
    Raises BlowupError at the first node where the state leaves the finite
    range.
    """
    terminal = np.asarray(terminal, dtype=float)
    if not np.all(np.isfinite(terminal)):
        raise ValueError("terminal state has non-finite entries")
    nodes = grid.nodes()
    traj = np.empty((grid.n_steps + 1,) + terminal.shape, dtype=float)
    traj[-1] = terminal
    h = grid.step
    for k in range(grid.n_steps - 1, -1, -1):
        y = rk4_step(rhs, nodes[k + 1], traj[k + 1], -h)
        if not np.all(np.isfinite(y)):
            raise BlowupError(
                f"state became non-finite at t={nodes[k]:.6g}", time=nodes[k]
            )
        traj[k] = y
    return traj
