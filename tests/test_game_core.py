import inspect

import numpy as np
import pytest

from rsgames import game_core, hierarchy, outer_layer
from rsgames.game_core import (MatrixGame, SaddlePoint, best_response_gap, solve_lp,
                               solve_zero_sum)


def closed_form_2x2(M):
    """Independent oracle: pure-saddle scan, else the textbook formula."""
    M = np.asarray(M, dtype=float)
    for r in range(2):
        for c in range(2):
            if M[r, c] == M[:, c].max() and M[r, c] == M[r, :].min():
                return float(M[r, c])
    a, b = M[0]
    c, d = M[1]
    return float((a * d - b * c) / (a - b - c + d))


def perturbed_rps():
    """Rock-paper-scissors plus U(-0.3, 0.3) noise (seed 25) and its
    row equalizer; the unique saddle is fully mixed at every scale."""
    rng = np.random.default_rng(25)
    M = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])
    M += rng.uniform(-0.3, 0.3, (3, 3))
    bordered = np.block([[M.T, -np.ones((3, 1))], [np.ones((1, 3)), 0.0]])
    f_eq = np.linalg.solve(bordered, [0.0, 0.0, 0.0, 1.0])[:3]
    assert np.all(f_eq > 0.0)
    return M, f_eq


def perturbed_pennies():
    """Matching pennies plus U(-0.3, 0.3) noise (seed 26): no pure saddle,
    so its unique saddle is fully mixed."""
    rng = np.random.default_rng(26)
    return np.array([[1.0, -1.0], [-1.0, 1.0]]) + rng.uniform(-0.3, 0.3, (2, 2))


class TestSolveZeroSum:
    def test_matching_pennies(self):
        sp = solve_zero_sum(MatrixGame([[1.0, -1.0], [-1.0, 1.0]]))
        np.testing.assert_allclose(sp.row_strategy, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(sp.col_strategy, [0.5, 0.5], atol=1e-12)
        assert abs(sp.value) <= 1e-12

    def test_singleton(self):
        sp = solve_zero_sum(MatrixGame([[5.0]]))
        assert sp.value == 5.0
        np.testing.assert_allclose(sp.row_strategy, [1.0])
        np.testing.assert_allclose(sp.col_strategy, [1.0])

    def test_2x2_mixed(self):
        sp = solve_zero_sum(MatrixGame([[3.0, 1.0], [0.0, 2.0]]))
        assert abs(sp.value - 1.5) <= 1e-12
        np.testing.assert_allclose(sp.row_strategy, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(sp.col_strategy, [0.25, 0.75], atol=1e-12)

    def test_2x2_epsilon_grid_cross_check(self):
        # exhaustive mixed-strategy grid bounds the value from both sides
        M = np.array([[3.0, 1.0], [0.0, 2.0]])
        ps = np.linspace(0.0, 1.0, 401)
        F = np.stack([1.0 - ps, ps], axis=1)
        payoff = F @ M @ F.T
        upper = payoff.max(axis=0).min()  # min over g of max over f
        lower = payoff.min(axis=1).max()
        sp = solve_zero_sum(MatrixGame(M))
        assert lower - 1e-9 <= sp.value <= upper + 1e-9

    def test_lp_matches_closed_form(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            M = rng.normal(size=(2, 2)) * 5.0
            via_lp = solve_lp(MatrixGame(M))
            assert abs(via_lp.value - closed_form_2x2(M)) <= 1e-12

    @pytest.mark.parametrize("s", [10.0**-e for e in range(2, 13)])
    def test_lp_accurate_on_small_spread(self, s):
        # the unique saddle is the fully mixed equalizer, the same for every
        # positive scale s
        M, f_eq = perturbed_rps()
        sp = solve_lp(MatrixGame(s * M))
        assert np.abs(sp.row_strategy - f_eq).max() <= 1e-12

    @pytest.mark.parametrize("s", [10.0**e for e in range(-12, 13, 2)])
    def test_saddle_verdict_is_relative_to_the_spread(self, s):
        # catches: an absolute gap bound, under which the equalizer's gap of
        # ~1e-16 of the spread failed it at s = 1e8 and the LP then raised
        # "left a saddle gap of 9.537e-07" at s = 1e10
        M, f_eq = perturbed_rps()
        f, g, path, gap = game_core.solve_games((s * M)[None])
        assert path.tolist() == [game_core.SADDLE_PATHS.index("equalizer")]
        assert gap[0] <= game_core.SADDLE_GAP_TOL * s * np.ptp(M)
        assert np.abs(f[0] - f_eq).max() <= 1e-12
        if s >= 1e10:  # the verified LP alone passes as well
            sp = solve_lp(MatrixGame(s * M))
            assert np.abs(sp.row_strategy - f_eq).max() <= 1e-12

    @pytest.mark.parametrize("c", [1e3, 1e6])
    @pytest.mark.parametrize("s", [1e-6, 1e-9])
    @pytest.mark.parametrize("base", ["rps", "pennies"])
    def test_a_constant_offset_changes_no_verdict(self, base, s, c):
        # a game of spread ~s offset by c: adding a constant changes no
        # saddle, so it changes no verdict; catches: the equalizer or a gap
        # taken on the raw payoffs, whose rounding of ~c * 1e-16 sent
        # rock-paper-scissors to the LP, which raised "left a saddle gap"
        M = s * (perturbed_rps()[0] if base == "rps" else perturbed_pennies()) + c
        f, g, path, gap = game_core.solve_games(M[None])
        assert path.tolist() == [game_core.SADDLE_PATHS.index("equalizer")]
        assert gap[0] <= game_core.SADDLE_GAP_TOL * np.ptp(M)
        sp = solve_lp(MatrixGame(M))
        assert np.abs(sp.row_strategy - f[0]).max() <= 1e-12
        assert np.abs(sp.col_strategy - g[0]).max() <= 1e-12

    def test_random_games_saddle_gap(self):
        rng = np.random.default_rng(22)
        for _ in range(150):
            m, n = rng.integers(2, 7, size=2)
            game = MatrixGame(rng.normal(size=(m, n)) * 10.0)
            sp = solve_zero_sum(game)
            assert best_response_gap(game, sp.row_strategy, sp.col_strategy) <= 1e-8

    def test_transposition_negation(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            M = rng.normal(size=(3, 4))
            v = solve_zero_sum(MatrixGame(M)).value
            v_swapped = solve_zero_sum(MatrixGame(-M.T)).value
            assert abs(v_swapped + v) <= 1e-9

    def test_constant_shift(self):
        rng = np.random.default_rng(24)
        M = rng.normal(size=(4, 3))
        base = solve_zero_sum(MatrixGame(M))
        shifted_game = MatrixGame(M + 7.25)
        shifted = solve_zero_sum(shifted_game)
        assert abs(shifted.value - base.value - 7.25) <= 1e-9
        gap = best_response_gap(shifted_game, base.row_strategy, base.col_strategy)
        assert gap <= 1e-9

    def test_deterministic_tie_break(self):
        # all strategies optimal; lowest action indices win
        sp = solve_zero_sum(MatrixGame(np.zeros((3, 3))))
        np.testing.assert_allclose(sp.row_strategy, [1.0, 0.0, 0.0])
        np.testing.assert_allclose(sp.col_strategy, [1.0, 0.0, 0.0])
        again = solve_zero_sum(MatrixGame(np.zeros((3, 3))))
        np.testing.assert_array_equal(sp.row_strategy, again.row_strategy)

    def test_dominated_rows_not_pruned(self):
        # row 0 dominated; solver must still satisfy the gap bound
        game = MatrixGame([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [3.0, 1.0, 2.0]])
        sp = solve_zero_sum(game)
        assert best_response_gap(game, sp.row_strategy, sp.col_strategy) <= 1e-8

    def test_rejects_bad_payoff(self):
        with pytest.raises(ValueError):
            MatrixGame(np.array([[np.inf, 0.0]]))
        with pytest.raises(ValueError):
            MatrixGame(np.zeros((0, 2)))


class TestOneSaddlePath:
    @pytest.mark.parametrize("seed", range(5))
    def test_auto_is_solve_games_on_one_game(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            m, n = rng.integers(1, 6, size=2)
            M = rng.normal(size=(m, n)) * 10.0
            sp = solve_zero_sum(MatrixGame(M))
            f, g, _, _ = game_core.solve_games(M[None])
            np.testing.assert_array_equal(sp.row_strategy, f[0])
            np.testing.assert_array_equal(sp.col_strategy, g[0])
            assert sp.value == f[0] @ M @ g[0]

    @pytest.mark.parametrize("twin_first", [False, True])
    def test_singular_stack_mate_leaves_the_equalizer_alone(self, twin_first):
        # a perturbed rock-paper-scissors game is settled by the equalizer;
        # stacked with a mixed game whose two equal rows make its bordered
        # systems singular, it keeps the same strategies and only the
        # singular game reaches the LP
        rng = np.random.default_rng(11)
        rps = (np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])
               + rng.uniform(-0.3, 0.3, (3, 3)))
        twin = np.array([[1.0, -1.0, 0.5], [1.0, -1.0, 0.5], [-1.0, 1.0, 0.0]])
        lp_games = []

        def counting_lp(game):
            lp_games.append(game.payoff)
            return game_core.solve_lp(game)

        equalizer = game_core.SADDLE_PATHS.index("equalizer")
        f_alone, g_alone, path_alone, _ = game_core.solve_games(rps[None], counting_lp)
        assert path_alone.tolist() == [equalizer] and lp_games == []

        at = int(twin_first)
        stack = np.stack([twin, rps] if twin_first else [rps, twin])
        f, g, path, gap = game_core.solve_games(stack, counting_lp)
        assert path[at] == equalizer
        np.testing.assert_array_equal(f[at], f_alone[0])
        np.testing.assert_array_equal(g[at], g_alone[0])
        assert len(lp_games) == 1 and np.array_equal(lp_games[0], twin)
        assert gap.max() <= 1e-7

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (2, 4)])
    def test_one_gap_pass_without_lp_games(self, monkeypatch, shape):
        # pure saddles plus equalizer games; catches: a second
        # best-response-gap pass when no game reaches the LP
        rng = np.random.default_rng(5)
        m, n = shape
        pure = np.add.outer(np.arange(m, 0, -1.0), np.arange(n, 0, -1.0))
        stack = [pure + rng.uniform(0.0, 0.1) for _ in range(3)]
        if m == n:  # perturbed matching pennies and rock-paper-scissors
            base = np.array([[1.0, -1.0], [-1.0, 1.0]]) if m == 2 else (
                np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]]))
            stack += [base + rng.uniform(-0.2, 0.2, shape) for _ in range(3)]
        calls = []
        real_gaps = game_core._gaps

        def counting_gaps(M, f, g):
            calls.append(len(M))
            return real_gaps(M, f, g)

        monkeypatch.setattr(game_core, "_gaps", counting_gaps)
        _, _, path, gap = game_core.solve_games(np.stack(stack))
        assert (path != game_core.SADDLE_PATHS.index("lp")).all()
        assert calls == [len(stack)]
        assert gap.max() <= game_core.SADDLE_GAP_TOL

    def test_pure_saddle_value_is_the_entry(self):
        M = np.array([[3.0, 1.0, 4.0], [0.5, 0.25, 9.0]])
        assert solve_zero_sum(MatrixGame(M)).value == 1.0

    def test_last_resort_is_the_verified_lp(self):
        for fn, name in ((game_core.solve_games, "fallback"),
                         (outer_layer.node_equilibrium, "saddle"),
                         (hierarchy.solve_hierarchy, "saddle")):
            assert inspect.signature(fn).parameters[name].default is game_core.solve_lp

    def test_lp_is_verified(self, monkeypatch):
        # a simplex answer that is not a saddle must not come back
        monkeypatch.setattr(game_core, "_simplex_max",
                            lambda A, b, c: (np.array([1.0, 0.0]), np.array([1.0, 0.0])))
        with pytest.raises(game_core.NumericalError, match="saddle gap"):
            game_core.solve_lp(MatrixGame([[1.0, -1.0], [-1.0, 1.0]]))


def test_simplex_escapes_beales_cycle():
    # Beale's (1955) LP cycles under the Dantzig rule with lowest-index
    # ties; catches: dropping the switch to Bland's rule after 100 pivots,
    # which made this call raise "simplex did not terminate"
    A = np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]])
    c = np.array([0.75, -20.0, 0.5, -6.0])
    x, duals = game_core._simplex_max(A, np.array([0.0, 0.0, 1.0]), c)
    np.testing.assert_allclose(x, [1.0, 0.0, 1.0, 0.0], atol=1e-12)
    assert abs(c @ x - 1.25) <= 1e-12
    assert abs(duals @ [0.0, 0.0, 1.0] - 1.25) <= 1e-12  # strong duality


class TestBestResponseGap:
    def test_saddle_has_zero_gap(self):
        game = MatrixGame([[1.0, -1.0], [-1.0, 1.0]])
        assert best_response_gap(game, [0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_unilateral_deviation(self):
        game = MatrixGame([[1.0, -1.0], [-1.0, 1.0]])
        # row cannot improve against the mixed column, but the column can
        assert abs(best_response_gap(game, [1.0, 0.0], [0.5, 0.5]) - 1.0) <= 1e-12

    def test_singleton(self):
        assert best_response_gap(MatrixGame([[5.0]]), [1.0], [1.0]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            best_response_gap(MatrixGame([[1.0, 0.0]]), [1.0, 0.0], [1.0, 0.0])


class TestSaddlePoint:
    def test_validates_probabilities(self):
        with pytest.raises(ValueError):
            SaddlePoint(np.array([0.7, 0.7]), np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            SaddlePoint(np.array([-0.1, 1.1]), np.array([1.0]), 0.0)
