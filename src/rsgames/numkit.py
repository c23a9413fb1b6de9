"""Numerical primitives shared by the solver modules: the time grid, the
error types, the one rule that turns switching rates into a generator, the
RK4 step verdict of the backward sweeps, the matrix exponential and
logarithm, and the Student t tail of the simulation report's test.

The matrix functions use numpy alone, so no command loads scipy:
- expm is scaling and squaring with the [13/13] Pade approximant (Higham,
  "The scaling and squaring method for the matrix exponential revisited",
  SIMAX 2005), its scaling chosen per matrix of a stack;
- logm is inverse scaling and squaring (Cheng, Higham, Kenney & Laub,
  "Approximating the logarithm of a matrix to specified accuracy", SIMAX
  2001): Denman-Beavers square roots, then Gauss-Legendre quadrature of
  log(I + E).
"""

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
    gets +0.0).  The diagonal of rates is ignored; a negative off-diagonal
    rate is a ValueError.  NaN passes, so a sweep that overflowed is judged
    after it ends."""
    G = np.array(rates, dtype=float)
    diag = np.arange(G.shape[-1])
    G[..., diag, diag] = 0.0
    if np.any(G < 0.0):
        raise ValueError("switching rates must be nonnegative off-diagonal")
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


# [13/13] Pade coefficients b_0..b_13 of exp (Higham 2005), divided by b_0
# so that a zero matrix gives exactly I, and theta_13, the largest 1-norm at
# which that approximant is accurate to unit roundoff
PADE13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0))
PADE13_THETA = 5.371920351148152


@np.errstate(over="ignore", invalid="ignore")
def expm(A) -> np.ndarray:
    """exp(A) for every matrix of the stack A (..., n, n), by scaling and
    squaring with the [13/13] Pade approximant.

    Each matrix is scaled by 2^-s with the least s >= 0 that brings its
    1-norm to at most PADE13_THETA, and its approximant squared s times, so
    a slice of a stack comes out bitwise as it would alone.  A zero matrix
    gives exactly I.  A matrix with a non-finite entry gives all NaN; one
    whose exponential overflows gives inf or NaN entries, without a warning.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[-1]
    stack = A.reshape(-1, n, n)
    norm = np.abs(stack).sum(axis=-2).max(axis=-1)
    finite = np.isfinite(norm)
    s = np.zeros(norm.shape, dtype=int)
    big = finite & (norm > PADE13_THETA)
    s[big] = np.ceil(np.log2(norm[big] / PADE13_THETA))
    X = np.where(finite[:, None, None], np.ldexp(stack, -s[:, None, None]), 0.0)
    b, eye = PADE13, np.eye(n)
    X2 = X @ X
    X4 = X2 @ X2
    X6 = X4 @ X2
    U = X @ (X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2)
             + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * eye)
    V = (X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2)
         + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * eye)
    R = np.linalg.solve(V - U, V + U)
    for k in range(s.max(initial=0)):
        more = s > k
        R[more] = R[more] @ R[more]
    R[~finite] = np.nan
    return R.reshape(A.shape)


# Gauss-Legendre nodes and weights on [0, 1], 8 points: sum_j w_j E (I +
# x_j E)^-1 is the [8/8] Pade approximant of log(I + E), within 1e-18
# relative of log(1 + x) for every scalar |x| <= LOGM_RADIUS
LOGM_NODES = (0.019855071751231884, 0.10166676129318664, 0.2372337950418355,
              0.4082826787521751, 0.591717321247825, 0.7627662049581645,
              0.8983332387068134, 0.9801449282487681)
LOGM_WEIGHTS = (0.05061426814518813, 0.11119051722668724, 0.15685332293894363,
                0.181341891689181, 0.181341891689181, 0.15685332293894363,
                0.11119051722668724, 0.05061426814518813)
LOGM_RADIUS = 0.25  # largest |X - I|_1 handed to the quadrature
MAX_SQUARE_ROOTS = 64  # |log lambda| up to 2^64 / 4: any finite eigenvalue
DB_MAX_STEPS = 100  # Denman-Beavers steps per square root, far above need


def _sqrtm(A: np.ndarray) -> np.ndarray:
    """Principal square root of A (n, n), by the product form of the
    Denman-Beavers iteration (Higham, "Functions of Matrices", 2008):
    Y -> Y (I + M^-1) / 2 and M -> (I + (M + M^-1) / 2) / 2 from Y = M = A
    keep Y^2 = A M while M -> I quadratically.  Stops after the step from an
    M within 1e-8 of I, which leaves M - I at rounding."""
    eye = np.eye(A.shape[-1])
    M = Y = A
    for _ in range(DB_MAX_STEPS):
        gap = np.abs(M - eye).sum(axis=0).max()
        try:
            M_inv = np.linalg.inv(M)
        except np.linalg.LinAlgError:
            break
        Y = 0.5 * (Y @ (eye + M_inv))
        M = 0.5 * (eye + 0.5 * (M + M_inv))
        if gap <= 1e-8:
            return Y
    raise NumericalError("matrix square root: the Denman-Beavers iteration did "
                         "not converge (an eigenvalue at 0 or on the negative axis?)")


def logm(A) -> np.ndarray:
    """Real principal logarithm of every matrix of the stack A (..., n, n),
    by inverse scaling and squaring.

    Each matrix X is replaced by its square root k times, until |X - I|_1
    <= LOGM_RADIUS, and log A = 2^k log(I + E), E = X - I, from the
    Gauss-Legendre form of log(I + E) at LOGM_NODES.  Needs every eigenvalue
    off the closed negative real axis; raises NumericalError for a
    non-finite entry or when the square roots do not converge.
    """
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise NumericalError("matrix logarithm of a matrix with a non-finite entry")
    n = A.shape[-1]
    eye = np.eye(n)
    nodes, weights = np.array(LOGM_NODES), np.array(LOGM_WEIGHTS)
    out = np.empty(A.shape).reshape(-1, n, n)
    for b, X in enumerate(A.reshape(-1, n, n)):
        k = 0
        while np.abs(X - eye).sum(axis=0).max() > LOGM_RADIUS:
            if k == MAX_SQUARE_ROOTS:
                raise NumericalError("matrix logarithm: no square root came "
                                     f"within {LOGM_RADIUS} of I")
            X, k = _sqrtm(X), k + 1
        E = X - eye
        terms = np.linalg.solve(eye + nodes[:, None, None] * E,
                                np.broadcast_to(E, (len(nodes), n, n)))
        out[b] = np.ldexp(np.tensordot(weights, terms, axes=1), k)
    return out.reshape(A.shape)


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
