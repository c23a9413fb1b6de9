import numpy as np
import pytest

from rsgames import numkit
from rsgames.numkit import BlowupError, TimeGrid


class TestMatrixExponential:
    def test_zero_matrix(self):
        np.testing.assert_allclose(
            numkit.matrix_exponential(np.zeros((3, 3))), np.eye(3), atol=1e-14
        )

    def test_diagonal(self):
        out = numkit.matrix_exponential(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(out, np.diag([np.e, 1.0 / np.e]), rtol=1e-12)

    def test_nilpotent(self):
        out = numkit.matrix_exponential(np.array([[0.0, 1.0], [0.0, 0.0]]))
        np.testing.assert_allclose(out, [[1.0, 1.0], [0.0, 1.0]], atol=1e-14)

    def test_inverse_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            M = rng.normal(size=(5, 5))
            prod = numkit.matrix_exponential(M) @ numkit.matrix_exponential(-M)
            np.testing.assert_allclose(prod, np.eye(5), atol=1e-9)

    def test_spectral_mapping(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            X = rng.normal(size=(4, 4))
            M = X + X.T  # symmetric, hence diagonalizable
            lam = np.sort(numkit.eigenvalues(M).real)
            lam_exp = np.sort(numkit.eigenvalues(numkit.matrix_exponential(M)).real)
            np.testing.assert_allclose(lam_exp, np.exp(lam), rtol=1e-7)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            numkit.matrix_exponential(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            numkit.matrix_exponential(np.array([[np.nan, 0.0], [0.0, 0.0]]))


class TestExpmAction:
    def test_zero_matrix(self):
        v = np.ones(4)
        np.testing.assert_allclose(
            numkit.expm_action(np.zeros((4, 4)), v, 5.0), v, atol=1e-14
        )

    def test_diagonal(self):
        out = numkit.expm_action(np.diag([-1.0, -2.0]), np.ones(2), 1.0)
        np.testing.assert_allclose(out, [np.exp(-1.0), np.exp(-2.0)], rtol=1e-12)

    def test_cross_oracle(self):
        rng = np.random.default_rng(13)
        M = rng.normal(size=(6, 6))
        v = rng.normal(size=6)
        t = 0.7
        direct = numkit.matrix_exponential(M * t) @ v
        out = numkit.expm_action(M, v, t)
        np.testing.assert_allclose(out, direct, rtol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            numkit.expm_action(np.eye(3), np.ones(2), 1.0)


class TestEigenvalues:
    def test_diagonal(self):
        lam = numkit.eigenvalues(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(sorted(lam.real), [1.0, 2.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(lam.imag, 0.0, atol=1e-12)

    def test_rotation_generator(self):
        lam = numkit.eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        np.testing.assert_allclose(sorted(lam.imag), [-1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(lam.real, 0.0, atol=1e-12)

    def test_two_state_chain_laplacian(self):
        # generator with symmetric rate 30; L = -generator has spectrum {0, 60}
        gen = np.array([[-30.0, 30.0], [30.0, -30.0]])
        lam = np.sort(numkit.eigenvalues(-gen).real)
        np.testing.assert_allclose(lam, [0.0, 60.0], atol=1e-10)

    def test_residual_bound(self):
        rng = np.random.default_rng(14)
        M = rng.normal(size=(6, 6))
        lams = numkit.eigenvalues(M)
        for lam in lams:
            # each eigenvalue admits a unit eigenvector with small residual
            sigma = np.linalg.svd(M - lam * np.eye(6), compute_uv=False)[-1]
            assert sigma <= 1e-8 * np.linalg.norm(M)


class TestIntegrateBackward:
    def test_zero_rhs(self):
        grid = TimeGrid(0.0, 1.0, 16)
        terminal = np.array([2.0, -3.0])
        traj = numkit.integrate_backward(lambda t, y: 0.0 * y, terminal, grid)
        np.testing.assert_allclose(traj, np.tile(terminal, (17, 1)), atol=0.0)

    def test_linear_exact(self):
        # -y' = 1 with y(1) = 0 has y(t) = 1 - t
        grid = TimeGrid(0.0, 1.0, 10)
        traj = numkit.integrate_backward(
            lambda t, y: -np.ones_like(y), np.zeros(1), grid
        )
        np.testing.assert_allclose(traj[:, 0], 1.0 - grid.nodes(), atol=1e-12)

    def test_scalar_riccati_tanh(self):
        # -p' = 1 - p^2 with p(1) = 0 gives p(0) = tanh(1)
        grid = TimeGrid(0.0, 1.0, 1000)
        traj = numkit.integrate_backward(
            lambda t, y: -(1.0 - y**2), np.zeros(1), grid
        )
        assert abs(traj[0, 0] - np.tanh(1.0)) <= 1e-8

    def test_convergence_order(self):
        def solve(n):
            grid = TimeGrid(0.0, 1.0, n)
            traj = numkit.integrate_backward(
                lambda t, y: -(1.0 - y**2), np.zeros(1), grid
            )
            return traj[0, 0]

        errs = [abs(solve(n) - np.tanh(1.0)) for n in (8, 16, 32, 64)]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 3.7) and np.all(orders < 4.3)

    def test_blowup_reports_time(self):
        # dy/dtau = y^2 from y=1 escapes at tau = 1
        grid = TimeGrid(0.0, 2.0, 64)
        with pytest.raises(BlowupError) as err, np.errstate(over="ignore"):
            numkit.integrate_backward(lambda t, y: -(y**2), np.ones(1), grid)
        assert err.value.time is not None
        assert 0.0 <= err.value.time <= 2.0

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 1.0, 10)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 0)

    def test_rk4_evaluates_at_stage_times(self):
        for t, h in ((0.7, -0.1), (0.0, 1.0 / 3.0)):
            seen = []
            numkit.rk4_step(lambda s, y: seen.append(s) or y, t, np.ones(1), h)
            start, mid, end = numkit.rk4_stage_times(t, h)
            assert seen == [start, mid, mid, end]
