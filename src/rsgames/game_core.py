"""Zero-sum matrix games: exact saddle points in mixed strategies.

Orientation is fixed throughout the package: the row player (f) maximizes
f @ payoff @ g, the column player (g) minimizes.  2x2 games without a pure
saddle are solved in closed form; everything else goes through a
self-contained dense simplex on the classical LP formulation.  Stacks of
same-shape games are solved at once by `solve_games`, which also tries the
full-support equalizer of square games and keeps the LP as a verified
fallback.

Tie-breaking is deterministic: among pure saddles the lowest (row, col)
index pair wins, so degenerate games (e.g. the all-zero matrix) resolve to
the first action of each player and leave baseline behaviour untouched.
"""

from dataclasses import dataclass

import numpy as np

from .numkit import NumericalError

SADDLE_GAP_TOL = 1e-9
# the ways solve_games settles a game, in the order it tries them
SADDLE_PATHS = ("pure", "2x2", "equalizer", "lp")


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

    @property
    def shape(self):
        return self.payoff.shape


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


def _mixed_2x2(M: np.ndarray):
    """Closed-form saddles (f, g, value) of 2x2 games M (B, 2, 2).

    Valid only for games without a pure saddle, where the denominator is
    nonzero.
    """
    a, b, c, d = M[:, 0, 0], M[:, 0, 1], M[:, 1, 0], M[:, 1, 1]
    den = a - b - c + d
    f = np.clip(np.stack([(d - c) / den, (a - b) / den], axis=1), 0.0, 1.0)
    g = np.clip(np.stack([(d - b) / den, (a - c) / den], axis=1), 0.0, 1.0)
    f /= f.sum(axis=1, keepdims=True)
    g /= g.sum(axis=1, keepdims=True)
    return f, g, (a * d - b * c) / den


def _equalizers(M: np.ndarray):
    """Full-support equalizer strategies (f, g) of square games M (B, m, m).

    g solves M g = v 1 and f solves f' M = v 1', each summing to 1, as one
    stacked solve of the bordered systems.  Returns None when any system is
    exactly singular.  The result is a saddle only where both strategies
    come out nonnegative; the caller checks that.
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
        return None
    return x[B:], x[:B]


def _gaps(M: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """best_response_gap of each game in the stack M (B, m, n)."""
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


def _solve_lp(M: np.ndarray) -> SaddlePoint:
    """General m x n game via the positive-shift LP and its duals."""
    shift = 1.0 - M.min()
    Mp = M + shift
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
    value = 1.0 / total - shift
    return SaddlePoint(f, g, float(value))


def solve_zero_sum(game: MatrixGame, method: str = "auto") -> SaddlePoint:
    """Mixed saddle point of a finite zero-sum game.

    method="auto" tries pure-saddle detection, then the 2x2 closed form,
    then the LP; method="lp" forces the LP path (used to cross-check the
    closed form).
    """
    M = game.payoff
    if method == "auto":
        found, r, c = _pure_saddles(M[None])
        if found[0]:
            f = np.zeros(M.shape[0])
            g = np.zeros(M.shape[1])
            f[r[0]] = 1.0
            g[c[0]] = 1.0
            return SaddlePoint(f, g, float(M[r[0], c[0]]))
        if M.shape == (2, 2):
            f, g, value = _mixed_2x2(M[None])
            return SaddlePoint(f[0], g[0], float(value[0]))
    elif method != "lp":
        raise ValueError(f"unknown method {method!r}")
    sp = _solve_lp(M)
    gap = best_response_gap(game, sp.row_strategy, sp.col_strategy)
    if gap > 1e-7:
        raise NumericalError(f"matrix-game LP left a saddle gap of {gap:.3e}")
    return sp


def solve_games(M: np.ndarray, fallback=solve_zero_sum):
    """Mixed saddles of a stack of same-shape games M (B, m, n) at once.

    Each game is settled by the first path that applies, in the order of
    SADDLE_PATHS: a pure saddle (row-major, lowest index first, as in
    solve_zero_sum), the 2x2 closed form, the full-support equalizer of a
    square game, and last `fallback` (MatrixGame -> SaddlePoint, the LP by
    default) one game at a time.  An equalizer is accepted only if both
    strategies are strictly positive, sum to 1 and leave a best-response
    gap <= SADDLE_GAP_TOL; strict positivity makes that saddle the game's
    only one, so it is the one the LP would find.

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
    path = np.full(B, SADDLE_PATHS.index("lp"))

    found, r, c = _pure_saddles(M)
    f[rows[found], r[found]] = 1.0
    g[rows[found], c[found]] = 1.0
    path[found] = SADDLE_PATHS.index("pure")
    rest = rows[~found]
    if rest.size and (m, n) == (2, 2):
        f[rest], g[rest], _ = _mixed_2x2(M[rest])
        path[rest] = SADDLE_PATHS.index("2x2")
    elif rest.size and m == n:
        solved = _equalizers(M[rest])
        if solved is not None:
            fe, ge = solved
            ok = ((fe > 0.0).all(axis=1) & (ge > 0.0).all(axis=1)
                  & (np.abs(fe.sum(axis=1) - 1.0) <= 1e-12)
                  & (np.abs(ge.sum(axis=1) - 1.0) <= 1e-12))
            ok[ok] = _gaps(M[rest[ok]], fe[ok], ge[ok]) <= SADDLE_GAP_TOL
            f[rest[ok]], g[rest[ok]] = fe[ok], ge[ok]
            path[rest[ok]] = SADDLE_PATHS.index("equalizer")
    for b in np.nonzero(path == SADDLE_PATHS.index("lp"))[0]:
        sp = fallback(MatrixGame(M[b]))
        f[b], g[b] = sp.row_strategy, sp.col_strategy
    return f, g, path, _gaps(M, f, g)


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
