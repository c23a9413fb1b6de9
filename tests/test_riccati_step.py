"""The buffered Riccati step against the step it replaced.

`mjls_inner.riccati_step` assembles the right-hand side from two batched
matmuls per RK4 stage (P W + (P W)' with W = A - Sctrl P / 2) and writes
every stage into preallocated buffers.  `oracles.riccati_step_oracle` is
the four-matmul step with a fresh array per operation.  On random models,
coupled and uncoupled, with rates that change from node to node, both
sweeps escape at the same node in the same regime, or every step of the
buffered sweep is the oracle's step, run in long double from the same
right node, to within a rounding bound (step_rounding_ratio).

Two float64 sweeps of a stiff flow (P near 1e5) may differ by far more
than the rounding of one step: on one N=2, n=8 draw they differ by 6.8e-13
relative after 20 steps while each is within 3.5e-13 of the same sweep in
long double.  So the check is made step by step, where no error carried
from earlier steps enters it, and not on the whole sweep.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

import oracles
from rsgames import mjls_inner, numkit
from rsgames.mjls_inner import RegimeLQModel
from rsgames.numkit import BlowupError, TimeGrid

REL_TOL = 1e-13
EPS = np.finfo(float).eps
# x87 extended precision on x86-64 Linux; plain float64 on some platforms
LONG_DOUBLE_IS_WIDER = np.finfo(np.longdouble).eps < EPS


def make_flow(N, n, n_steps, blowup, coupled, seed):
    """(model, per-node rates, grid, norm bound).  Blow-up cases give the
    disturbance the upper hand (Sctrl indefinite) and a low norm bound, so
    many of them escape before t0.  Steps are short enough for RK4 to
    resolve the flow: on a step of h = 0.5 a flow can swing from O(1) to
    O(1e4) in two steps, and rounding grows with it in both sweeps."""
    rng = np.random.default_rng(seed)
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


@st.composite
def riccati_flows(draw):
    return make_flow(N=draw(st.integers(1, 4)), n=draw(st.integers(1, 8)),
                     n_steps=draw(st.integers(16, 40)), blowup=draw(st.booleans()),
                     coupled=draw(st.booleans()),
                     seed=draw(st.integers(0, 2**32 - 1)))


def rel_diff(new, old):
    scale = np.abs(old).max()
    return np.abs(new - old).max() / scale if scale > 0 else np.abs(new).max()


def step_rounding_ratio(model, rates, grid, P, r):
    """Largest ratio, over every step of a float64 sweep (P, r) and every
    entry, of the step's local error to its rounding bound.

    Each step is redone by the oracle in long double from the sweep's own
    right node.  The bound of an entry of P is C eps (|P| + h |slope|),
    where |slope| is the slope rebuilt from absolute values
    (FlowWorkspaceOracle.slope_magnitudes), the larger at the step's two
    ends, and C = 2n + N + 12 counts the roundings in one slope entry (two
    n-term matmul sums, N coupling terms and a few additions) and in the RK4
    combination.  The bound of r adds what errors of that size in the P
    stages feed into the slope of r.  On 2000 bounded draws of
    riccati_flows the worst ratio was 0.07 for the buffered sweep and 0.11
    for the oracle's float64 sweep; one wrong RK4 weight, even 1 + 1e-9 for
    the last slope of P, gives above 1e4.
    """
    N, n = model.n_regimes, model.n_states
    C = 2 * n + N + 12
    rates = np.asarray(mjls_inner._rates_at_nodes(rates, grid.n_steps + 1, N),
                       dtype=np.longdouble)
    ws = oracles.FlowWorkspaceOracle(model, np.longdouble)
    nodes, h = grid.nodes(), grid.step
    worst = 0.0
    for k in range(grid.n_steps - 1, -1, -1):
        P_right = P[k + 1].astype(np.longdouble)
        r_right = r[k + 1].astype(np.longdouble)
        P_exact, r_exact = oracles.riccati_step_oracle(
            P_right, r_right, rates[k + 1], model, nodes[k + 1], h, ws)
        (mP_right, mr_right), (mP_left, mr_left) = (
            ws.slope_magnitudes(P_right, r_right, rates[k + 1]),
            ws.slope_magnitudes(P_exact, r_exact, rates[k + 1]))
        bound_P = C * EPS * (np.abs(P_right) + h * np.maximum(mP_right, mP_left))
        bound_r = C * EPS * np.abs(r_right) + h * (
            C * EPS * np.maximum(mr_right, mr_left)
            + (np.abs(ws.noise) * bound_P).sum(axis=(1, 2)))
        for err, bound in ((np.abs(P[k] - P_exact), bound_P),
                           (np.abs(r[k] - r_exact), bound_r)):
            if err.any():
                worst = max(worst, float((err / bound).max()))
    return worst


class TestBufferedStepMatchesOracle:
    @pytest.mark.skipif(not LONG_DOUBLE_IS_WIDER,
                        reason="np.longdouble is float64 here, so there is no "
                               "reference more precise than the sweeps")
    @settings(max_examples=200, deadline=None)
    @given(flow=riccati_flows())
    # the draw on which the two sweeps differ by 6.8e-13 relative
    @example(flow=make_flow(N=2, n=8, n_steps=20, blowup=False, coupled=False,
                            seed=3465899661))
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
        assert step_rounding_ratio(model, rates, grid, sol.P, sol.r) <= 1.0
        # the bound is one that the oracle's own sweep meets
        assert step_rounding_ratio(model, rates, grid, P_old, r_old) <= 1.0

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
        P_new, r_new = np.empty_like(P), np.empty_like(r)
        mjls_inner.riccati_step(mjls_inner._FlowWorkspace(model), P, r,
                                numkit.generator(rates), 0.01, P_new, r_new)
        assert np.array_equal(P_new, np.swapaxes(P_new, 1, 2))
        assert rel_diff(P_new, P_old) <= REL_TOL
        assert rel_diff(r_new, r_old) <= REL_TOL


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
