"""Zero-sum matrix games: exact saddle points in mixed strategies.

Orientation is fixed throughout the package: the row player (f) maximizes
f @ payoff @ g, the column player (g) minimizes.  `solve_games` is the one
place that decides how a game is settled: stacks of same-shape games go
through a pure saddle and the full-support equalizer of square games at
once, and whatever is left goes to `solve_lp`, a self-contained dense
simplex on the classical LP formulation whose answer is verified.  The
equalizer and every gap work on the game minus its smallest payoff, and a
gap is judged against the game's payoff spread.  `solve_zero_sum` is the
one-game entry point to the same rules; `solve_lp` cross-checks them.

Tie-breaking is deterministic: among pure saddles the lowest (row, col)
index pair wins, so degenerate games (e.g. the all-zero matrix) resolve to
the first action of each player and leave baseline behaviour untouched.
"""

import contextlib
from dataclasses import dataclass

import numpy as np

from .numkit import NumericalError

SADDLE_GAP_TOL = 1e-9
# the ways solve_games settles a game, in the order it tries them
SADDLE_PATHS = ("pure", "equalizer", "lp")


@dataclass(frozen=True)
class MatrixGame:
    """Payoff matrix, row maximizer vs column minimizer."""

    payoff: np.ndarray

    def __post_init__(self):
        payoff = np.asarray(self.payoff, dtype=float)
        if payoff.ndim != 2 or payoff.shape[0] < 1 or payoff.shape[1] < 1:
            raise ValueError(f"payoff must be a 2-D matrix, got shape {payoff.shape}")
        if not np.all(np.isfinite(payoff)):
            raise ValueError("payoff has non-finite entries")
        object.__setattr__(self, "payoff", payoff)


@dataclass(frozen=True)
class SaddlePoint:
    row_strategy: np.ndarray
    col_strategy: np.ndarray
    value: float

    def __post_init__(self):
        f = np.asarray(self.row_strategy, dtype=float)
        g = np.asarray(self.col_strategy, dtype=float)
        for name, p in (("row_strategy", f), ("col_strategy", g)):
            if np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-12:
                raise ValueError(f"{name} is not a probability vector: {p}")
        if not np.isfinite(self.value):
            raise ValueError("value is not finite")
        object.__setattr__(self, "row_strategy", f)
        object.__setattr__(self, "col_strategy", g)


def _pure_saddles(M: np.ndarray):
    """First (row-major) entry of each game in the stack M (B, m, n) that is
    a column max and a row min: (found, row, col), each of shape (B,)."""
    cells = (M == M.max(axis=1, keepdims=True)) & (M == M.min(axis=2, keepdims=True))
    cells = cells.reshape(M.shape[0], -1)
    first = cells.argmax(axis=1)
    return cells.any(axis=1), first // M.shape[2], first % M.shape[2]


def _equalizers(M: np.ndarray):
    """Full-support equalizer strategies (f, g) of square games M (B, m, m).

    g solves M g = v 1 and f solves f' M = v 1', each summing to 1, as one
    stacked solve of the bordered systems.  When one system is exactly
    singular the systems are solved one at a time, and a game with a
    singular system gets NaN strategies, so the others' strategies do not
    depend on it.  The result is a saddle only where both strategies come
    out nonnegative; the caller checks that.
    """
    B, m, _ = M.shape
    A = np.zeros((2 * B, m + 1, m + 1))
    A[:B, :m, :m] = M
    A[B:, :m, :m] = np.swapaxes(M, 1, 2)
    A[:, :m, m] = -1.0
    A[:, m, :m] = 1.0
    rhs = np.zeros((2 * B, m + 1, 1))
    rhs[:, m] = 1.0
    try:
        x = np.linalg.solve(A, rhs)[:, :m, 0]
    except np.linalg.LinAlgError:
        x = np.full((2 * B, m), np.nan)
        for b in range(2 * B):
            with contextlib.suppress(np.linalg.LinAlgError):
                x[b] = np.linalg.solve(A[b], rhs[b])[:m, 0]
    return x[B:], x[:B]


def _gaps(M: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """best_response_gap of each game in the stack M (B, m, n), on the game
    minus its smallest payoff so that rounding scales with the spread."""
    M = M - M.min(axis=(1, 2), keepdims=True)
    Mg = np.einsum("bij,bj->bi", M, g)
    fM = np.einsum("bi,bij->bj", f, M)
    value = np.einsum("bi,bi->b", f, Mg)
    return np.maximum(np.maximum(Mg.max(axis=1) - value, value - fM.min(axis=1)), 0.0)


def _simplex_max(A: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Maximize c@x s.t. A@x <= b, x >= 0 with b >= 0 (slack start).

    Returns (x, duals), duals read off the slack columns at optimality.
    Dantzig entering rule with lowest-index ties; switches to Bland's rule
    after 100 pivots to rule out cycling.
    """
    m, n = A.shape
    # tableau rows: [A | I | b]
    T = np.hstack([A, np.eye(m), b.reshape(-1, 1)])
    cost = np.concatenate([c, np.zeros(m)])
    basis = list(range(n, n + m))
    for it in range(1000):
        reduced = cost - cost[basis] @ T[:, :-1]
        reduced[basis] = 0.0
        if it < 100:
            enter = int(np.argmax(reduced))
        else:  # Bland: first improving index
            improving = np.nonzero(reduced > 1e-11)[0]
            enter = int(improving[0]) if improving.size else int(np.argmax(reduced))
        if reduced[enter] <= 1e-11:
            x = np.zeros(n + m)
            x[basis] = T[:, -1]
            duals = cost[basis] @ T[:, n : n + m]
            return x[:n], duals
        col = T[:, enter]
        ratios = np.full(m, np.inf)
        pos = col > 1e-11
        ratios[pos] = T[pos, -1] / col[pos]
        leave = int(np.argmin(ratios))
        if not np.isfinite(ratios[leave]):
            raise NumericalError("unbounded linear program in matrix-game solve")
        T[leave] /= T[leave, enter]
        for r in range(m):
            if r != leave and T[r, enter] != 0.0:
                T[r] -= T[r, enter] * T[leave]
        basis[leave] = enter
    raise NumericalError("simplex did not terminate on matrix-game LP")


def solve_lp(game: MatrixGame) -> SaddlePoint:
    """Any m x n game via the LP and its duals, on payoffs mapped to [1, 2]
    so that the simplex tolerances are relative to the payoff spread.  The
    answer is verified: a gap above 1e-7 of that spread is a NumericalError."""
    M = game.payoff
    low = M.min()
    scale = (M.max() - low) or 1.0
    Mp = 1.0 + (M - low) / scale
    m, n = Mp.shape
    # column player: max 1@z  s.t.  Mp@z <= 1, z >= 0; duals give the row player
    z, duals = _simplex_max(Mp, np.ones(m), np.ones(n))
    total = z.sum()
    if total <= 0:
        raise NumericalError("degenerate LP solution in matrix-game solve")
    g = np.clip(z, 0.0, None)
    g /= g.sum()
    f = np.clip(duals, 0.0, None)
    if f.sum() <= 0:
        raise NumericalError("degenerate dual solution in matrix-game solve")
    f /= f.sum()
    gap = best_response_gap(game, f, g)
    if gap > 1e-7 * scale:
        raise NumericalError(f"matrix-game LP left a saddle gap of {gap:.3e}")
    return SaddlePoint(f, g, float(low + (1.0 / total - 1.0) * scale))


def solve_games(M: np.ndarray, fallback=solve_lp):
    """Mixed saddles of a stack of same-shape games M (B, m, n) at once.

    Each game is settled by the first path that applies, in the order of
    SADDLE_PATHS: a pure saddle (row-major, lowest index first, exact ties
    of the payoffs as given), the full-support equalizer of a square game,
    solved on the game minus its smallest payoff, and last `fallback`
    (MatrixGame -> SaddlePoint, the verified LP by default) on the game as
    given, one game at a time.  An equalizer is accepted only if both
    strategies are strictly positive, sum to 1 and leave a best-response gap
    <= SADDLE_GAP_TOL of the game's payoff spread; strict positivity makes
    that saddle the game's only one, so it is the one the LP would find.

    Returns (f, g, path, gap): strategies (B, m) and (B, n), the index into
    SADDLE_PATHS of the path that settled each game, and each game's
    best-response gap.
    """
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise NumericalError("a game in the stack has non-finite payoffs")
    B, m, n = M.shape
    rows = np.arange(B)
    f = np.zeros((B, m))
    g = np.zeros((B, n))
    equalizer, lp = SADDLE_PATHS.index("equalizer"), SADDLE_PATHS.index("lp")
    path = np.full(B, lp)

    found, r, c = _pure_saddles(M)
    f[rows[found], r[found]] = 1.0
    g[rows[found], c[found]] = 1.0
    path[found] = SADDLE_PATHS.index("pure")
    rest = rows[~found]
    if rest.size and m == n:
        fe, ge = _equalizers(M[rest] - M[rest].min(axis=(1, 2), keepdims=True))
        ok = ((fe > 0.0).all(axis=1) & (ge > 0.0).all(axis=1)
              & (np.abs(fe.sum(axis=1) - 1.0) <= 1e-12)
              & (np.abs(ge.sum(axis=1) - 1.0) <= 1e-12))
        f[rest[ok]], g[rest[ok]] = fe[ok], ge[ok]
        path[rest[ok]] = equalizer
    gap = _gaps(M, f, g)
    # an equalizer that is not a saddle goes to the LP with the rest
    path[(path == equalizer) & (gap > SADDLE_GAP_TOL * np.ptp(M, axis=(1, 2)))] = lp
    to_lp = np.nonzero(path == lp)[0]
    for b in to_lp:
        sp = fallback(MatrixGame(M[b]))
        f[b], g[b] = sp.row_strategy, sp.col_strategy
    if to_lp.size:
        gap[to_lp] = _gaps(M[to_lp], f[to_lp], g[to_lp])
    return f, g, path, gap


def solve_zero_sum(game: MatrixGame) -> SaddlePoint:
    """Mixed saddle point of one game by the rules of solve_games, with the
    value f @ payoff @ g."""
    f, g, _, _ = solve_games(game.payoff[None])
    return SaddlePoint(f[0], g[0], float(f[0] @ game.payoff @ g[0]))


def best_response_gap(game: MatrixGame, f, g) -> float:
    """Largest improvement available to either player by a pure deviation.

    Zero exactly at a saddle point; used as the universal solution check.
    """
    M = game.payoff
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != (M.shape[0],) or g.shape != (M.shape[1],):
        raise ValueError(
            f"strategy shapes {f.shape}/{g.shape} do not match game {M.shape}"
        )
    return float(_gaps(M[None], f[None], g[None])[0])
