"""The buffered Riccati step against the step it replaced.

`mjls_inner.riccati_step` assembles the right-hand side from two batched
matmuls per RK4 stage (P W + (P W)' with W = A - Sctrl P / 2) and writes
every stage into preallocated buffers.  `oracles.riccati_step_oracle` is
the four-matmul step with a fresh array per operation; on random models,
coupled and uncoupled, with rates that change from node to node, both
sweeps must give the same (P, r) to rounding and escape at the same node
in the same regime.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import oracles
from rsgames import mjls_inner
from rsgames.mjls_inner import RegimeLQModel
from rsgames.numkit import BlowupError, TimeGrid

REL_TOL = 1e-13


@st.composite
def riccati_flows(draw):
    """(model, per-node rates, grid, norm bound).  Blow-up cases give the
    disturbance the upper hand (Sctrl indefinite) and a low norm bound, so
    many of them escape before t0.  Steps are short enough for RK4 to
    resolve the flow: on a step of h = 0.5 a flow can swing from O(1) to
    O(1e4) in two steps, and rounding grows with it in both sweeps."""
    N = draw(st.integers(1, 4))
    n = draw(st.integers(1, 8))
    n_steps = draw(st.integers(16, 40))
    blowup = draw(st.booleans())
    coupled = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d_u, d_w, d_s = rng.integers(1, 4, size=3)
    X = rng.normal(size=(N, n, n))
    Y = rng.normal(size=(N, n, n))
    model = RegimeLQModel(
        A=rng.normal(size=(N, n, n)),
        B=rng.normal(size=(N, n, d_u)),
        D=(3.0 if blowup else 0.2) * rng.normal(size=(N, n, d_w)),
        Sigma=rng.normal(size=(N, n, d_s)),
        Q=X @ np.swapaxes(X, 1, 2) / n,
        R=rng.uniform(0.5, 2.0, (N, 1, 1)) * np.eye(d_u),
        S=rng.uniform(0.5, 2.0, (N, 1, 1)) * np.eye(d_w),
        Q_T=Y @ np.swapaxes(Y, 1, 2) / n,
    )
    # the diagonal is ignored by both steps; give it junk to prove it
    rates = rng.uniform(0.0, 5.0, (n_steps + 1, N, N)) if coupled else np.zeros((N, N))
    grid = TimeGrid(0.0, 2.0 if blowup else 1.0, n_steps)
    return model, rates, grid, 1e3 if blowup else 1e8


def rel_diff(new, old):
    scale = np.abs(old).max()
    return np.abs(new - old).max() / scale if scale > 0 else np.abs(new).max()


class TestBufferedStepMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(flow=riccati_flows())
    def test_random_models(self, flow):
        model, rates, grid, bound = flow
        try:
            P_old, r_old = oracles.riccati_sweep_oracle(model, rates, grid, bound)
        except BlowupError as old:
            event("blow-up")
            with mock.patch.object(mjls_inner, "NORM_BOUND", bound), \
                    pytest.raises(BlowupError) as new:
                mjls_inner.solve_coupled_riccati(model, rates, grid)
            assert (new.value.time, new.value.regime) == (old.time, old.regime)
            return
        event("bounded")
        with mock.patch.object(mjls_inner, "NORM_BOUND", bound):
            sol = mjls_inner.solve_coupled_riccati(model, rates, grid)
        assert np.array_equal(sol.P, np.swapaxes(sol.P, 2, 3))
        assert rel_diff(sol.P, P_old) <= REL_TOL
        assert rel_diff(sol.r, r_old) <= REL_TOL

    @pytest.mark.parametrize("rates", [np.zeros((2, 2)), [[-3.0, 3.0], [0.5, 9.0]]],
                             ids=["uncoupled", "coupled"])
    def test_one_step_from_an_asymmetric_q(self, rates):
        # Q passes the model's symmetry check at 1e-10 but is not exactly
        # symmetric; both steps act on its symmetric part
        rng = np.random.default_rng(4)
        n = 5
        X = rng.normal(size=(2, n, n))
        Q = X @ np.swapaxes(X, 1, 2)
        Q[:, 0, 1] += 1e-12
        model = RegimeLQModel(
            A=rng.normal(size=(2, n, n)), B=rng.normal(size=(2, n, 2)),
            D=0.3 * rng.normal(size=(2, n, 1)), Sigma=rng.normal(size=(2, n, 2)),
            Q=Q, R=np.broadcast_to(np.eye(2), (2, 2, 2)), S=np.ones((2, 1, 1)),
            Q_T=Q,
        )
        P = mjls_inner.terminal_value(model)
        r = np.array([0.5, -1.0])
        P_old, r_old = oracles.riccati_step_oracle(P, r, np.asarray(rates), model,
                                                   1.0, 0.01)
        G, coupled = mjls_inner.coupling_generators(rates)
        P_new, r_new = np.empty_like(P), np.empty_like(r)
        mjls_inner.riccati_step(mjls_inner._FlowWorkspace(model), P, r,
                                G if coupled else None, 0.01, P_new, r_new)
        assert np.array_equal(P_new, np.swapaxes(P_new, 1, 2))
        assert rel_diff(P_new, P_old) <= REL_TOL
        assert rel_diff(r_new, r_old) <= REL_TOL


class TestCouplingGenerators:
    def test_rows_sum_to_zero_and_diagonal_is_ignored(self):
        rates = np.array([[7.0, 1.0, 2.0], [0.5, -4.0, 0.0], [3.0, 3.0, 0.0]])
        G, coupled = mjls_inner.coupling_generators(rates)
        np.testing.assert_array_equal(G.sum(axis=1), 0.0)
        np.testing.assert_array_equal(G - np.diag(np.diag(G)),
                                      rates - np.diag(np.diag(rates)))
        assert coupled

    def test_diagonal_only_rates_are_uncoupled(self):
        G, coupled = mjls_inner.coupling_generators(
            np.stack([np.diag([2.0, -1.0]), [[0.0, 1.0], [0.0, 0.0]]]))
        assert coupled.tolist() == [False, True]
        np.testing.assert_array_equal(G[0], 0.0)


class TestCheckEscape:
    @pytest.fixture(autouse=True)
    def unit_bound(self, monkeypatch):
        monkeypatch.setattr(mjls_inner, "NORM_BOUND", 1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 2.0, -2.0])
    def test_escape_values(self, value):
        P = np.zeros((3, 2, 2))
        P[1, 0, 1] = value
        with pytest.raises(BlowupError) as err:
            mjls_inner.check_escape(P, 0.25)
        assert (err.value.time, err.value.regime) == (0.25, 1)

    def test_bound_itself_is_inside(self):
        P = np.full((2, 2, 2), -1.0)
        P[0] = 1.0
        mjls_inner.check_escape(P, 0.0)

    def test_worst_regime_is_the_largest_norm(self):
        P = np.zeros((3, 2, 2))
        P[0, 0, 0] = 5.0
        P[2] = 4.0  # Frobenius norm 8
        with pytest.raises(BlowupError) as err:
            mjls_inner.check_escape(P, 0.0)
        assert err.value.regime == 2
