import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from oracles import equilibrium_rates, k_step_oracle, solve_outer
from rsgames import game_core, numkit, outer_layer
from rsgames.numkit import TimeGrid
from rsgames.outer_layer import (
    OuterGameSpec,
    bang_bang_policy,
    laplacian_spectral_gap,
    local_game_matrix,
    proportional_policy,
    stability_gaps,
)


def affine_spec(mu0=0.3, att=0.6, stab=0.25):
    off = np.array([[0.0, 1.0], [1.0, 0.0]])
    return OuterGameSpec.from_affine(mu0 * off, att * off, stab * off)


def mixed_saddle_spec():
    """Local games with interior mixed saddles for both gap signs."""
    Lam = np.zeros((2, 2, 2, 2))
    Lam[0, 1] = np.array([[0.8, -0.5], [-0.5, 0.6]])
    Lam[1, 0] = np.array([[0.5, -0.2], [-0.45, 0.85]])
    return OuterGameSpec(mu_bar=np.array([[0.0, 0.9], [0.9, 0.0]]), Lambda=Lam)


class TestSpec:
    def test_affine_mapping_is_exact(self):
        spec = affine_spec()
        rng = np.random.default_rng(41)
        for _ in range(20):
            fa, ga = rng.random(2)
            f = np.array([1.0 - fa, fa])
            g = np.array([1.0 - ga, ga])
            row = equilibrium_rates(f, g, spec, 0)
            expected = 0.3 + fa * 0.6 - ga * 0.25
            assert row[1] == pytest.approx(expected, abs=1e-14)
            assert row[0] == pytest.approx(-expected, abs=1e-14)

    def test_vertex_nonnegativity_enforced(self):
        off = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            # stabilizer can push the rate to 0.1 - 0.5 < 0
            OuterGameSpec.from_affine(0.1 * off, 0.0 * off, 0.5 * off)

    @pytest.mark.parametrize("profile", ["lam_att", "lam_stab"])
    @pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
    def test_non_finite_affine_profile_rejected(self, profile, where):
        # catches: a NaN on the diagonal, zeroed in Lambda before its
        # finiteness check, reaching solve_macro_as's expm and its triggers
        off = np.array([[0.0, 1.0], [1.0, 0.0]])
        mats = {"mu0": 0.3 * off, "lam_att": 0.6 * off, "lam_stab": 0.25 * off}
        mats[profile][(0, 0) if where == "diagonal" else (0, 1)] = np.nan
        with pytest.raises(ValueError, match=f"{profile}.* must be finite"):
            OuterGameSpec.from_affine(**mats)

    @pytest.mark.parametrize("profile", ["lam_att", "lam_stab"])
    def test_affine_profile_of_another_shape_rejected(self, profile):
        # catches: a (1, 1) profile broadcast into Lambda's (2, 2) pairs,
        # while spec.lam_att and spec.lam_stab keep the shape they were given
        off = np.array([[0.0, 1.0], [1.0, 0.0]])
        mats = {"mu0": 0.3 * off, "lam_att": 0.6 * off, "lam_stab": 0.25 * off}
        mats[profile] = np.array([[0.6]])
        with pytest.raises(ValueError, match=rf"{profile} has shape \(1, 1\), "
                                             r"mu0 has \(2, 2\)"):
            OuterGameSpec.from_affine(**mats)

    def test_negative_baseline_rejected(self):
        with pytest.raises(ValueError):
            OuterGameSpec(mu_bar=np.array([[0.0, -1.0], [1.0, 0.0]]),
                          Lambda=np.zeros((2, 2, 1, 1)))


class TestLocalGame:
    def test_equal_values_give_zero_game(self):
        spec = mixed_saddle_spec()
        game = local_game_matrix(np.array([3.0, 3.0]), spec, 0)
        assert np.abs(game.payoff).max() == 0.0

    def test_single_term(self):
        Lam = np.zeros((2, 2, 2, 2))
        Lam[0, 1] = np.array([[0.0, 0.0], [0.0, 1.0]])
        spec = OuterGameSpec(mu_bar=np.zeros((2, 2)), Lambda=Lam)
        game = local_game_matrix(np.array([0.0, 5.0]), spec, 0)
        np.testing.assert_allclose(game.payoff, [[0.0, 0.0], [0.0, 5.0]])

    def test_three_regime_sum_against_loop(self):
        rng = np.random.default_rng(42)
        Lam = rng.normal(size=(3, 3, 2, 3)) * 0.1
        spec = OuterGameSpec(mu_bar=np.ones((3, 3)), Lambda=Lam)
        k = rng.normal(size=3)
        game = local_game_matrix(k, spec, 1)
        brute = np.zeros((2, 3))
        for j in range(3):
            if j != 1:
                brute += Lam[1, j] * (k[j] - k[1])
        np.testing.assert_allclose(game.payoff, brute, atol=1e-14)


class TestEquilibriumRates:
    def test_zero_perturbation(self):
        spec = OuterGameSpec(mu_bar=np.array([[0.0, 2.0], [3.0, 0.0]]),
                             Lambda=np.zeros((2, 2, 2, 2)))
        row = equilibrium_rates(np.array([1.0, 0.0]), np.array([0.5, 0.5]), spec, 0)
        np.testing.assert_allclose(row, [-2.0, 2.0])

    def test_pure_strategies_pick_entry(self):
        spec = mixed_saddle_spec()
        f = np.array([1.0, 0.0])
        g = np.array([0.0, 1.0])
        row = equilibrium_rates(f, g, spec, 0)
        assert row[1] == pytest.approx(0.9 + spec.Lambda[0, 1][0, 1])

    def test_uniform_mixing_averages(self):
        spec = mixed_saddle_spec()
        f = np.array([0.5, 0.5])
        g = np.array([0.5, 0.5])
        row = equilibrium_rates(f, g, spec, 0)
        assert row[1] == pytest.approx(0.9 + spec.Lambda[0, 1].mean())

    def test_row_sums_to_zero(self):
        spec = mixed_saddle_spec()
        row = equilibrium_rates(np.array([0.3, 0.7]), np.array([0.6, 0.4]), spec, 1)
        assert row.sum() == pytest.approx(0.0, abs=1e-14)


class TestKStepHandValues:
    def test_uniform_values_no_cost(self):
        mu = np.array([[-1.0, 1.0], [2.0, -2.0]])
        out = outer_layer.k_step(np.array([4.0, 4.0]), (0.0,) * 3, mu, -0.3)
        assert out.tolist() == [4.0, 4.0]

    def test_pure_cost(self):
        phi = (np.array([1.0, 4.0]),) * 3
        out = outer_layer.k_step(np.zeros(2), phi, np.zeros((2, 2)), -0.5)
        assert out.tolist() == [0.5, 2.0]

    def test_hand_value(self):
        # -dk0/dt = 1 + 2 (k1 - k0) with k1 = 10 frozen: RK4 is the quartic
        # Taylor polynomial of the exact flow, 10.5 - 10.5 * 0.375
        mu = np.array([[-2.0, 2.0], [0.0, 0.0]])
        phi = (np.array([1.0, 0.0]),) * 3
        out = outer_layer.k_step(np.array([0.0, 10.0]), phi, mu, -0.5)
        assert out.tolist() == [6.5625, 10.0]

    def test_fourth_order_on_a_coupled_flow(self):
        # with constant forcing, -dk/dt = phi + mu k from k(1) = k_T has
        # (k(0), 1) = expm(A) (k_T, 1), A = [[mu, phi], [0, 0]]; a third
        # stage started from k1 gives order 2, weights (1, 2, 1, 2) order 1
        mu = numkit.generator([[0.0, 2.0, 0.5], [1.0, 0.0, 3.0], [0.2, 1.5, 0.0]])
        phi, k_T = np.array([1.0, -2.0, 0.5]), np.array([3.0, 0.0, -1.0])
        A = np.zeros((4, 4))
        A[:3, :3], A[:3, 3] = mu, phi
        exact = scipy.linalg.expm(A)[:3] @ np.append(k_T, 1.0)

        def solve(n):
            k = k_T
            for _ in range(n):
                k = outer_layer.k_step(k, (phi,) * 3, mu, -1.0 / n)
            return k

        errs = [np.abs(solve(n) - exact).max() for n in (8, 16, 32, 64)]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all((orders > 3.7) & (orders < 4.3)), orders


EPS = np.finfo(float).eps


@st.composite
def step_cases(draw):
    """(k, phi_right, phi_left, mu, t_right, h) for 1-5 regimes: a generator
    with exponentially spread rates, some of them zero, values and forcing
    of mixed scales, and a step of either sign with |h| * (largest exit
    rate) <= 2."""
    N = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rates = np.exp(rng.uniform(-3.0, 3.0, (N, N))) * (rng.random((N, N)) < 0.7)
    mu = numkit.generator(rates)
    k = rng.normal(size=N) * np.exp(rng.uniform(-2.0, 4.0, N))
    phi_right, phi_left = rng.normal(size=(2, N)) * np.exp(rng.uniform(-2.0, 4.0, 2))[:, None]
    exit_rate = max(1.0, -mu.diagonal().min())
    h = draw(st.floats(0.01, 2.0)) / exit_rate * draw(st.sampled_from([-1.0, 1.0]))
    return k, phi_right, phi_left, mu, draw(st.floats(-5.0, 5.0)), h


def step_bound(k, k_new, phi_right, phi_left, mu, t_right, h):
    """Rounding bound of k_step against k_step_oracle on one step: C eps
    (|k_new| + |h| S growth).  S bounds the rounding scale of a slope entry:
    the largest forcing, plus the largest value times |mu| (the largest
    absolute row sum), plus the forcing jump |phi_right - phi_left| times
    (|t_right| + |h|) / |h|, the relative error of the oracle's
    interpolation weight w = (t - t_left) / h.  growth = (1 + |h| |mu|)^3
    bounds how the stages carry a slope error forward, and C = 4 (N + 8)
    counts the roundings of a slope entry (the N-term sum over regimes, the
    forcing) and of the step's final sum."""
    N = k.size
    mu_norm = np.abs(mu).sum(axis=1).max()
    S = (max(np.abs(phi_right).max(), np.abs(phi_left).max())
         + np.abs(phi_right - phi_left).max() * (abs(t_right) + abs(h)) / abs(h)
         + mu_norm * max(np.abs(k).max(), np.abs(k_new).max()))
    growth = (1.0 + abs(h) * mu_norm) ** 3
    return 4 * (N + 8) * EPS * (np.abs(k_new) + abs(h) * S * growth)


class TestKStep:
    """k_step against k_step_oracle, the Metzler-form step with linearly
    interpolated forcing that the hierarchy ran before the macro game's step
    took its place.  The differential test catches midpoint and end forcing
    swapped, start and end swapped, a penalty with the wrong sign, a stage
    that drops the switching term, mu transposed (the draws' generators are
    not symmetric) and a step taken with -h.  The cubic test catches a
    midpoint forcing that is ignored or misplaced, which a forcing linear
    in time would not show."""

    @settings(max_examples=300, deadline=None)
    @given(step_cases(), st.booleans())
    def test_matches_the_oracle(self, case, with_penalty):
        k, phi_right, phi_left, mu, t_right, h = case
        penalty = (np.linspace(0.5, 2.0, k.size) * np.abs(phi_right).max()
                   if with_penalty else 0.0)
        forcing = (phi_right, 0.5 * (phi_right + phi_left), phi_left)
        got = outer_layer.k_step(k, forcing, mu, h, penalty)
        phi_right, phi_left = phi_right - penalty, phi_left - penalty
        want = k_step_oracle(k, phi_right, phi_left, mu, t_right, -h)
        bound = step_bound(k, want, phi_right, phi_left, mu, t_right, h)
        assert np.all(np.abs(got - want) <= bound), (got - want, bound)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 2**32 - 1),
           st.floats(0.01, 3.0), st.sampled_from([-1.0, 1.0]))
    def test_cubic_forcing_is_simpson_exact(self, N, seed, step, sign):
        # with mu = 0 the step is Simpson's rule, exact for a cubic in time
        rng = np.random.default_rng(seed)
        a, b, c, d = rng.normal(size=(4, N))
        h = sign * step
        cubic = lambda s: a + b * s + c * s**2 + d * s**3  # noqa: E731
        k = rng.normal(size=N)
        got = outer_layer.k_step(k, [cubic(0.0), cubic(0.5 * h), cubic(h)],
                                 np.zeros((N, N)), h)
        want = k - (a * h + b * h**2 / 2 + c * h**3 / 3 + d * h**4 / 4)
        scale = np.abs(a) + np.abs(b * h) + np.abs(c * h**2) + np.abs(d * h**3)
        bound = 16 * EPS * (np.abs(want) + np.abs(k) + abs(h) * scale)
        assert np.all(np.abs(got - want) <= bound), (got - want, bound)


class TestSolveOuter:
    def test_zero_cost_keeps_baseline(self):
        spec = affine_spec()
        grid = TimeGrid(0.0, 1.0, 50)
        phi = np.zeros((51, 2))
        sol = solve_outer(phi, spec, grid)
        assert np.abs(sol.k).max() == 0.0
        # zero local games resolve to the first actions, so rates stay put
        np.testing.assert_allclose(sol.mu[:, 0, 1], 0.3, atol=1e-14)
        np.testing.assert_allclose(sol.mu[:, 1, 0], 0.3, atol=1e-14)

    def test_decoupled_linear(self):
        spec = OuterGameSpec(mu_bar=np.zeros((2, 2)), Lambda=np.zeros((2, 2, 2, 2)))
        grid = TimeGrid(0.0, 2.0, 80)
        phi = np.tile([1.0, 0.0], (81, 1))
        sol = solve_outer(phi, spec, grid)
        np.testing.assert_allclose(sol.k[:, 0], 2.0 - grid.nodes(), atol=1e-12)
        np.testing.assert_allclose(sol.k[:, 1], 0.0, atol=1e-12)

    def test_regime_uniform_cost_keeps_gaps_zero(self):
        spec = mixed_saddle_spec()
        grid = TimeGrid(0.0, 1.0, 60)
        phi = np.tile([2.5, 2.5], (61, 1))
        sol = solve_outer(phi, spec, grid)
        assert np.abs(sol.k[:, 0] - sol.k[:, 1]).max() <= 1e-12
        for idx in (0, 30, 60):
            game = local_game_matrix(sol.k[idx], spec, 0)
            assert np.abs(game.payoff).max() <= 1e-12

    def test_generator_validity_and_saddle_quality(self):
        spec = mixed_saddle_spec()
        grid = TimeGrid(0.0, 1.5, 120)
        phi = np.tile([1.0, 0.0], (121, 1))
        sol = solve_outer(phi, spec, grid)
        assert np.abs(sol.mu.sum(axis=2)).max() <= 1e-12
        off_mask = ~np.eye(2, dtype=bool)
        assert sol.mu[:, off_mask].min() >= 0.0
        worst = 0.0
        for idx in range(0, 121, 10):
            for i in range(2):
                game = local_game_matrix(sol.k[idx], spec, i)
                worst = max(worst, game_core.best_response_gap(
                    game, sol.f[idx, i], sol.g[idx, i]))
        assert worst <= 1e-8

    def test_brute_force_grid_oracle(self):
        spec = mixed_saddle_spec()
        grid = TimeGrid(0.0, 1.5, 150)
        phi = np.tile([1.0, 0.0], (151, 1))
        sol = solve_outer(phi, spec, grid)
        k_bf = brute_force_outer_sweep(phi, spec, grid, resolution=200)
        rel = np.max(np.abs(sol.k[0] - k_bf) / np.maximum(np.abs(k_bf), 1e-9))
        assert rel <= 1e-3

    def test_disagreement_contracts_at_lambda2(self):
        # homogeneous flow from a non-uniform terminal value: the
        # disagreement decays at the Laplacian gap of the frozen generator
        mu = np.array([[-0.6, 0.6], [0.4, -0.4]])
        lam2 = laplacian_spectral_gap(mu)
        h = 0.01
        k = np.array([1.0, 0.0])
        taus, resid = [], []
        for step in range(1200):
            k = outer_layer.k_step(k, np.zeros((3, 2)), mu, -h)
            taus.append((step + 1) * h)
            resid.append(np.linalg.norm(k - k.mean()))
        taus = np.array(taus)
        resid = np.array(resid)
        mask = (taus > 2.0) & (taus < 8.0)
        slope = np.polyfit(taus[mask], np.log(resid[mask]), 1)[0]
        assert abs(-slope - lam2) <= 0.2 * lam2


def brute_force_outer_sweep(phi, spec, grid, resolution=200):
    """Independent oracle: grid both strategy simplices, take the exact
    min-max over the grid per node (maximin row, minimax column), then step
    with the same frozen-rate RK4 scheme written out by hand."""
    N = spec.n_regimes
    nodes, h = grid.nodes(), grid.step
    fgrid = np.linspace(0.0, 1.0, resolution + 1)
    F = np.stack([1.0 - fgrid, fgrid], axis=1)
    k = np.zeros(N)
    for idx in range(grid.n_steps, 0, -1):
        mu = np.zeros((N, N))
        for i in range(N):
            M = sum(spec.Lambda[i, j] * (k[j] - k[i])
                    for j in range(N) if j != i)
            payoff = F @ M @ F.T
            fi = int(np.argmax(payoff.min(axis=1)))
            gi = int(np.argmin(payoff.max(axis=0)))
            for j in range(N):
                if j != i:
                    mu[i, j] = spec.mu_bar[i, j] + F[fi] @ spec.Lambda[i, j] @ F[gi]
            mu[i, i] = -mu[i].sum()
        t_r = nodes[idx]
        phi_r, phi_l = phi[idx], phi[idx - 1]

        def rhs(t, kk):
            w = (t - (t_r - h)) / h
            p = phi_l + (phi_r - phi_l) * w
            off = mu - np.diag(np.diag(mu))
            return -(p + off @ kk - off.sum(axis=1) * kk)

        k1 = rhs(t_r, k)
        k2 = rhs(t_r - h / 2, k - h / 2 * k1)
        k3 = rhs(t_r - h / 2, k - h / 2 * k2)
        k4 = rhs(t_r - h, k - h * k3)
        k = k - (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return k


class TestPolicies:
    def test_gaps_antisymmetric(self):
        gaps = stability_gaps(np.array([1.0, -2.0, 0.5]))
        np.testing.assert_array_equal(gaps, -gaps.T)

    def test_bang_bang_zero_gaps(self):
        f, g = bang_bang_policy(np.zeros(2), np.ones(2), np.ones(2))
        assert (f, g) == (0.0, 0.0)

    def test_bang_bang_sign(self):
        f, _ = bang_bang_policy(np.array([-2.0]), np.array([1.0]), np.array([0.0]))
        assert f == 1.0

    def test_bang_bang_hand_sum(self):
        f, _ = bang_bang_policy(np.array([3.0, -5.0]), np.array([1.0, 1.0]),
                                np.zeros(2))
        assert f == 1.0  # sum = -2 < 0 triggers as printed

    def test_bang_bang_flip(self):
        # bang_bang_flipped plays the policy on -gaps: the trigger reverses
        f, _ = bang_bang_policy(-np.array([3.0, -5.0]), np.array([1.0, 1.0]),
                                np.zeros(2))
        assert f == 0.0

    def test_proportional_zero_gaps(self):
        assert proportional_policy(np.zeros(3), np.ones(3), np.ones(3),
                                   1.0, 1.0) == (0.0, 0.0)

    def test_proportional_scaling(self):
        f, _ = proportional_policy(np.array([4.0]), np.array([1.0]),
                                   np.array([0.0]), 2.0, 1.0)
        assert f == pytest.approx(2.0)  # not cut at 1

    def test_proportional_clipping(self):
        _, g = proportional_policy(np.array([4.0]), np.array([0.0]),
                                   np.array([1.0]), 1.0, 1.0)
        assert g == 0.0  # [-4]+ = 0

    def test_proportional_clamp(self):
        # quadratic mode cuts the efforts at 1 with this expression
        f, _ = proportional_policy(np.array([4.0]), np.array([1.0]),
                                   np.array([0.0]), 2.0, 1.0)
        assert np.where(f > 1.0, 1.0, f) == 1.0


class TestPoliciesOnTheGapMatrix:
    # the macro sweep passes the full stability_gaps matrix; each regime's
    # efforts must be exactly those of its own row, down to the sign of zero
    @pytest.mark.parametrize("seed", range(20))
    def test_rows_match_one_regime_at_a_time(self, seed):
        rng = np.random.default_rng(seed)
        N = int(rng.integers(1, 6))
        gaps = stability_gaps(rng.normal(size=N) * rng.choice([0.0, 1.0, 50.0]))
        lam_att, lam_stab = rng.uniform(-1.0, 3.0, (2, N, N))
        rho_f, rho_g = rng.uniform(0.1, 2.0, 2)
        # on gaps and on -gaps, the matrix bang_bang_flipped passes
        for signed in (gaps, -gaps):
            rows = [proportional_policy(signed[i], lam_att[i], lam_stab[i], rho_f, rho_g)
                    for i in range(N)]
            full = proportional_policy(signed, lam_att, lam_stab, rho_f, rho_g)
            rows_bb = [bang_bang_policy(signed[i], lam_att[i], lam_stab[i])
                       for i in range(N)]
            full_bb = bang_bang_policy(signed, lam_att, lam_stab)
            for got, want in ((full, rows), (full_bb, rows_bb)):
                for player in range(2):
                    expected = np.array([r[player] for r in want])
                    assert got[player].tobytes() == expected.tobytes()

    def test_zero_gaps_keep_the_sign_of_zero(self):
        # [x]+ of a -0.0 sum is -0.0, as max(x, 0.0) gives it
        _, g = proportional_policy(np.zeros((2, 2)), np.ones((2, 2)), np.ones((2, 2)),
                                   1.0, 1.0)
        assert np.all(g == 0.0) and np.all(np.signbit(g))


class TestLaplacianGap:
    def test_two_state(self):
        mu = np.array([[-30.0, 30.0], [30.0, -30.0]])
        assert laplacian_spectral_gap(mu) == pytest.approx(60.0)

    def test_zero_generator(self):
        assert laplacian_spectral_gap(np.zeros((3, 3))) == 0.0

    def test_complete_graph(self):
        mu = np.ones((3, 3)) - 3.0 * np.eye(3)
        assert laplacian_spectral_gap(mu) == pytest.approx(3.0)
