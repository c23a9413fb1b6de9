"""Differential tests of the batched outer_layer.node_equilibrium against the
per-regime loop it replaced, which lives on here as the oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from rsgames import game_core, outer_layer
from rsgames.game_core import MatrixGame
from rsgames.numkit import NumericalError
from rsgames.outer_layer import OuterGameSpec

CYCLIC = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])
PENNIES = np.array([[1.0, -1.0], [-1.0, 1.0]])


def summed_game(k, spec, i):
    """M_i = sum_{j != i} Lambda_ij (k_j - k_i), one term at a time."""
    M = np.zeros((spec.n_row_actions, spec.n_col_actions))
    for j in range(spec.n_regimes):
        if j != i:
            M = M + spec.Lambda[i, j] * (k[j] - k[i])
    return M


def oracle_pure_saddle(M):
    """First (row-major) entry that is a column max and a row min, or None."""
    col_max = M.max(axis=0)
    row_min = M.min(axis=1)
    for r in range(M.shape[0]):
        for c in range(M.shape[1]):
            if M[r, c] == col_max[c] and M[r, c] == row_min[r]:
                return r, c
    return None


def oracle_node_equilibrium(k, spec, saddle=game_core.solve_zero_sum):
    """One saddle solve and one rate row per regime, as before batching."""
    N = spec.n_regimes
    f = np.zeros((N, spec.n_row_actions))
    g = np.zeros((N, spec.n_col_actions))
    mu = np.zeros((N, N))
    for i in range(N):
        sp = saddle(outer_layer.local_game_matrix(k, spec, i))
        f[i], g[i] = sp.row_strategy, sp.col_strategy
        for j in range(N):
            if j != i:
                rate = spec.mu_bar[i, j] + sp.row_strategy @ spec.Lambda[i, j] @ sp.col_strategy
                assert rate >= -1e-10
                mu[i, j] = max(rate, 0.0)
        mu[i, i] = -mu[i].sum()
    return f, g, mu


def off_diagonal(N):
    return ~np.eye(N, dtype=bool)


def spec_from(Lam, extra):
    """Spec whose baseline rates just cover Lambda's most negative vertex."""
    N = Lam.shape[0]
    mu_bar = np.maximum(-Lam.min(axis=(2, 3)), 0.0) + extra
    mu_bar[~off_diagonal(N)] = 0.0
    return OuterGameSpec(mu_bar=mu_bar, Lambda=Lam)


@st.composite
def node_cases(draw):
    """(k, spec): integer tensors with ties, all-zero, positive rank-one and
    perturbed rock-paper-scissors (or matching-pennies) Lambda, 2-6
    regimes, 1-4 actions each."""
    N = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["integer", "zero", "rank_one", "cyclic"]))
    if kind == "cyclic":
        m = n = draw(st.sampled_from([2, 3]))
    else:
        m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    extra = draw(hnp.arrays(np.int64, (N, N), elements=st.integers(0, 2))).astype(float)
    weight = draw(hnp.arrays(float, (N, N), elements=st.floats(0.2, 0.4)))
    if kind == "integer":
        Lam = draw(hnp.arrays(np.int64, (N, N, m, n), elements=st.integers(-3, 3)))
        Lam = Lam.astype(float)
    elif kind == "zero":
        Lam = np.zeros((N, N, m, n))
    else:
        Lam = np.zeros((N, N, m, n))
        for i in range(N):
            if kind == "rank_one":
                u = draw(hnp.arrays(float, m, elements=st.floats(0.5, 1.5)))
                v = draw(hnp.arrays(float, n, elements=st.floats(0.5, 1.5)))
                base = np.outer(u, v)
            else:
                base = (PENNIES if m == 2 else CYCLIC) + draw(
                    hnp.arrays(float, (m, m), elements=st.floats(-0.3, 0.3)))
            Lam[i] = weight[i][:, None, None] * base
    Lam[~off_diagonal(N)] = 0.0
    # half-integer values keep the integer games exact, so their ties survive
    k = 0.5 * draw(hnp.arrays(np.int64, N, elements=st.integers(-6, 6)))
    return k, spec_from(Lam, extra)


def lp_resolves(M):
    """Whether the LP pins the saddle of M to 1e-9: its strategies carry an
    error of about 1e-16 of its unit-shifted tableau over the payoff spread,
    while the equalizer's do not depend on the scale."""
    return np.ptp(M) > 1e-5 * (1.0 + np.abs(M).max())


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(node_cases())
    def test_batched_matches_oracle_loop(self, case):
        k, spec = case
        N = spec.n_regimes
        stats = {}
        f, g, mu = outer_layer.node_equilibrium(k, spec, stats=stats)
        f_ref, g_ref, mu_ref = oracle_node_equilibrium(k, spec)

        for i in range(N):
            M = outer_layer.local_game_matrix(k, spec, i).payoff
            summed = summed_game(k, spec, i)
            np.testing.assert_allclose(M, summed, rtol=0,
                                       atol=1e-14 * max(1.0, np.abs(summed).max()))
            pick = oracle_pure_saddle(M)
            if pick is not None:
                r, c = pick
                assert f[i, r] == 1.0 and f[i].sum() == 1.0
                assert g[i, c] == 1.0 and g[i].sum() == 1.0
            assert game_core.best_response_gap(MatrixGame(M), f[i], g[i]) <= 1e-9
            if pick is not None or lp_resolves(M):
                np.testing.assert_allclose(f[i], f_ref[i], rtol=0, atol=1e-9)
                np.testing.assert_allclose(g[i], g_ref[i], rtol=0, atol=1e-9)
                np.testing.assert_allclose(mu[i], mu_ref[i], rtol=0, atol=1e-9)

        assert mu[off_diagonal(N)].min() >= 0.0
        assert np.abs(mu.sum(axis=1)).max() <= 1e-12 * max(1.0, np.abs(mu).max())
        assert sum(stats[name] for name in game_core.SADDLE_PATHS) == N
        assert stats["max_gap"] <= 1e-9


def rps_spec(N=5, seed=0):
    rng = np.random.default_rng(seed)
    Lam = np.zeros((N, N, 3, 3))
    for i in range(N):
        base = CYCLIC + rng.uniform(-0.3, 0.3, (3, 3))
        Lam[i] = rng.uniform(0.2, 0.4, (N, 1, 1)) * base
    Lam[~off_diagonal(N)] = 0.0
    return spec_from(Lam, 0.6)


class TestSaddlePaths:
    def test_rps_games_take_the_equalizer(self):
        spec = rps_spec()
        k = np.random.default_rng(1).normal(size=5) * 10.0
        stats = {}
        f, g, mu = outer_layer.node_equilibrium(k, spec, stats=stats)
        assert stats["equalizer"] == 5 and stats["lp"] == 0
        assert (f > 0).all() and (g > 0).all()
        f_ref, g_ref, mu_ref = oracle_node_equilibrium(k, spec)
        np.testing.assert_allclose(f, f_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(g, g_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(mu, mu_ref, rtol=0, atol=1e-12)

    def test_non_square_mixed_games_fall_back_to_saddle(self):
        # matching pennies plus a dominated third column: no pure saddle,
        # not square, so the fallback solver settles it
        Lam = np.zeros((2, 2, 2, 3))
        Lam[0, 1] = [[1.0, -1.0, 2.0], [-1.0, 1.0, 2.0]]
        Lam[1, 0] = -Lam[0, 1]  # the same game for the opposite gap
        spec = spec_from(Lam, 0.5)
        calls = []

        def counting_saddle(game):
            calls.append(game.shape)
            return game_core.solve_zero_sum(game)

        stats = {}
        f, g, _ = outer_layer.node_equilibrium(np.array([0.0, 1.0]), spec,
                                               counting_saddle, stats=stats)
        assert calls == [(2, 3), (2, 3)]
        assert stats["lp"] == 2
        np.testing.assert_allclose(f, 0.5, atol=1e-12)
        np.testing.assert_allclose(g[:, :2], 0.5, atol=1e-12)

    def test_singular_equalizer_falls_back(self):
        # matching pennies padded with an all-zero action for each player:
        # the bordered systems are singular, the LP settles the games
        Lam = np.zeros((2, 2, 3, 3))
        Lam[0, 1, :2, :2] = [[1.0, -1.0], [-1.0, 1.0]]
        Lam[1, 0] = -Lam[0, 1]
        spec = spec_from(Lam, 1.0)
        k = np.array([0.0, 1.0])
        stats = {}
        f, g, mu = outer_layer.node_equilibrium(k, spec, stats=stats)
        assert stats["equalizer"] == 0
        f_ref, g_ref, mu_ref = oracle_node_equilibrium(k, spec)
        np.testing.assert_allclose(f, f_ref, atol=1e-12)
        np.testing.assert_allclose(g, g_ref, atol=1e-12)
        np.testing.assert_allclose(mu, mu_ref, atol=1e-12)

    def test_negative_rate_breach_is_numerical(self):
        spec = rps_spec(N=3)
        spec.Lambda[0, 1] -= 10.0  # break the invariant the constructor checked
        with pytest.raises(NumericalError):
            outer_layer.node_equilibrium(np.array([0.0, 1.0, 2.0]), spec)

    def test_non_finite_values_are_numerical(self):
        spec = rps_spec(N=3)
        with pytest.raises(NumericalError), np.errstate(invalid="ignore"):
            outer_layer.node_equilibrium(np.array([0.0, np.inf, 1.0]), spec)
