"""Dense linear-algebra and ODE primitives shared by the solver modules."""

from dataclasses import dataclass

import numpy as np


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
        if not (np.isfinite(self.T) and np.isfinite(self.t0) and self.T > self.t0):
            raise ValueError(f"need finite T > t0, got t0={self.t0}, T={self.T}")
        if self.n_steps < 1:
            raise ValueError(f"need n_steps >= 1, got {self.n_steps}")

    @property
    def step(self) -> float:
        return (self.T - self.t0) / self.n_steps

    def nodes(self) -> np.ndarray:
        return np.linspace(self.t0, self.T, self.n_steps + 1)


def eigenvalues(M) -> np.ndarray:
    """All eigenvalues of M (with multiplicity), as a complex array.

    M may also be a stack (..., n, n); the result is then (..., n), from
    one batched call.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    try:
        return np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration did not converge: {exc}") from exc


def rk4_stage_times(t: float, h: float) -> tuple:
    """The distinct times at which rk4_step(rhs, t, y, h) evaluates rhs:
    the start, the midpoint (used by two stages) and the end."""
    return t, t + 0.5 * h, t + h


def rk4_step(rhs, t: float, y: np.ndarray, h: float) -> np.ndarray:
    """One classical Runge-Kutta step of size h (h may be negative)."""
    t_start, t_mid, t_end = rk4_stage_times(t, h)
    k1 = rhs(t_start, y)
    k2 = rhs(t_mid, y + (0.5 * h) * k1)
    k3 = rhs(t_mid, y + (0.5 * h) * k2)
    k4 = rhs(t_end, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
