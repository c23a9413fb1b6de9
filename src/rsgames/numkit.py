"""Numerical primitives shared by the solver modules: the time grid, the
error types, the one rule that turns switching rates into a generator, the
RK4 step verdict of the backward sweeps, and the Student t tail of the
simulation report's test."""

import math
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


def generator(rates) -> np.ndarray:
    """The generator of rates (..., N, N): their off-diagonal entries, and
    on the diagonal 0.0 minus the off-diagonal row sum (a row with no exits
    gets +0.0).  The diagonal of rates is ignored."""
    G = np.array(rates, dtype=float)
    diag = np.arange(G.shape[-1])
    G[..., diag, diag] = 0.0
    G[..., diag, diag] = 0.0 - G.sum(axis=-1)
    return G


def check_step_growth(mu, h, nodes, setting: str) -> None:
    """Raise NumericalError when an RK4 step of size h > 0 grows a mode of a
    generator mu[j] (frozen at node nodes[j]) by more than rounding: its
    growth per step is max |1 + z + z^2/2 + z^3/6 + z^4/24| over z = h eig(mu[j]).
    The exact flow damps every mode, so the step is too long for the
    switching rates; the message names `setting`, the step count to raise.
    A non-finite mu[j] counts as no rates, so the steps before it judge."""
    mu = np.where(np.isfinite(mu).all(axis=(-2, -1), keepdims=True), mu, 0.0)
    z = h * np.linalg.eigvals(mu)
    growth = np.abs(1.0 + z + z**2 / 2 + z**3 / 6 + z**4 / 24).max(axis=-1)
    worst = int(np.argmax(growth))
    if growth[worst] > 1.0 + 1e-9:
        raise NumericalError(f"step too long for the switching rates at t = "
                             f"{nodes[worst]:.6g}: RK4 amplifies the switching flow "
                             f"by {growth[worst]:.4g} per step; raise {setting}")


# largest t^2 at which student_t_sf sums the series: where the worst errors
# of the series and of the continued fraction meet, for nu <= 1e4
SF_SERIES_T2 = 7.5


def _log_gamma_ratio(b: float) -> float:
    """log(Gamma(b + 1/2) / (Gamma(b) sqrt(b))), from its asymptotic series
    at b + k >= 25 (error below 5e-16) and the recurrence down to b; a
    difference of lgammas would lose about b log b ulps."""
    top, shift = b, 0.0
    while top < 25.0:
        shift += math.log1p(0.5 / top)
        top += 1.0
    return (0.5 * math.log(top / b) - shift - 1 / (8 * top) + 1 / (192 * top**3)
            - 1 / (640 * top**5) + 17 / (14336 * top**7))


def student_t_sf(t: float, nu: float) -> float:
    """P(T > t) for Student's t with nu >= 1 degrees of freedom.

    For t > 0 that is I_x(nu/2, 1/2) / 2 with x = nu / (nu + t^2).  When
    t^2 <= SF_SERIES_T2 it is 1/2 - I_y(1/2, nu/2) / 2, y = 1 - x, from the
    positive-term series of DLMF 8.17.22, whose difference from 1/2 loses
    digits as t grows; otherwise the continued fraction of Numerical Recipes
    6.4 (modified Lentz), which is ill-conditioned as x -> 1.  Their common
    front factor x^(nu/2) y^(1/2) / B(nu/2, 1/2) is formed from t directly.
    Against scipy.special.stdtr the relative error measured at most 6.5e-13
    for nu <= 1e4 and 6.6e-11 for nu <= 1e6.
    """
    if not nu >= 1:
        raise ValueError(f"need nu >= 1, got {nu}")
    if not 0.0 < abs(t) < math.inf:  # 0, +-inf or NaN
        return math.nan if math.isnan(t) else 0.5 if t == 0.0 else float(t < 0.0)
    a, t2 = 0.5 * nu, t * t
    front = math.exp(-(a + 0.5) * math.log1p(t2 / nu) + math.log(abs(t))
                     - 0.5 * math.log(2.0 * math.pi) + _log_gamma_ratio(a))
    if t2 <= SF_SERIES_T2:
        y, term, total, n = t2 / (nu + t2), 1.0, 1.0, 0
        while term > 1e-17 * total:
            term *= (a + 0.5 + n) / (1.5 + n) * y
            total += term
            n += 1
        upper = 0.5 - front * total  # I_y(1/2, a) = 2 front total
    else:
        x, h, c, d = nu / (nu + t2), 1.0, 1.0, 0.0
        for m in range(200):
            for step in (-(a + m) * (a + m + 0.5) * x / ((a + 2 * m) * (a + 2 * m + 1)),
                         -(m + 1) * (m + 0.5) * x / ((a + 2 * m + 1) * (a + 2 * m + 2))):
                d = 1.0 / ((1.0 + step * d) or 1e-300)
                c = (1.0 + step / c) or 1e-300
                h *= c * d
            if abs(c * d - 1.0) < 1e-16:
                break
        else:
            raise NumericalError(f"t survival: no convergence at t={t}, nu={nu}")
        upper = front / (2.0 * a * h)
    return upper if t > 0 else 1.0 - upper
