"""Invariants of the regime generator and of the penalty system's matrix.

`numkit.generator` is the one rule that turns switching rates into a
generator Q: zero row sums, nonnegative off-diagonal, nonpositive diagonal.
It ignores the diagonal of the rates, lets NaN through and refuses a
negative off-diagonal rate, for every caller that takes rates.  `as_game.
build_generator` assembles M = diag(risk q^2) - Q (x) I + fill terms: a
Z-matrix with a nonnegative diagonal whose row sums carry only the risk and
fill terms, and which `diag(sqrt pi) M diag(sqrt pi)^-1` makes symmetric
when the chain obeys detailed balance (the spectral theta-table rests on
that).  Each test names a mutation it catches.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from rsgames import as_game, mjls_inner, numkit
from rsgames.as_game import ASModel
from rsgames.numkit import TimeGrid

NEGATIVE_RATE = "switching rates must be nonnegative off-diagonal"


@st.composite
def rate_stacks(draw):
    """Rates (B, N, N): nonnegative off-diagonal, many of them exactly zero,
    and any finite diagonal (the generator ignores it)."""
    N = draw(st.integers(1, 4))
    B = draw(st.integers(1, 3))
    rates = draw(hnp.arrays(float, (B, N, N),
                            elements=st.sampled_from([0.0]) | st.floats(0.0, 50.0)))
    diagonal = draw(hnp.arrays(float, (B, N), elements=st.floats(-50.0, 50.0)))
    rates[:, np.arange(N), np.arange(N)] = diagonal
    return rates


@st.composite
def negative_rates(draw):
    """Rates (N, N), N >= 2, with one off-diagonal entry below zero."""
    N = draw(st.integers(2, 4))
    rates = draw(hnp.arrays(float, (N, N), elements=st.floats(0.0, 50.0)))
    i, j = draw(st.sampled_from([(i, j) for i in range(N) for j in range(N) if i != j]))
    rates[i, j] = -draw(st.floats(5e-324, 50.0))
    return rates
@st.composite
def models(draw, reversible=False):
    """(model, pi): pi is the stationary law when reversible, else None.
    Reversible rates are Q_ij = K_ij / pi_i with K symmetric."""
    N = draw(st.integers(1, 4))
    if reversible:
        pi = draw(hnp.arrays(float, N, elements=st.floats(0.05, 1.0)))
        K = draw(hnp.arrays(float, (N, N), elements=st.floats(0.01, 20.0)))
        rates = (np.triu(K, 1) + np.triu(K, 1).T) / pi[:, None]
        pi = pi / pi.sum()
    else:
        pi = None
        rates = draw(hnp.arrays(float, (N, N), elements=st.floats(0.0, 50.0)))
    sigmas = draw(hnp.arrays(float, N, elements=st.floats(0.1, 1.0)))
    model = ASModel(gamma=draw(st.floats(0.05, 1.0)), xi=draw(st.floats(0.0, 1.0)),
                    A=draw(st.floats(1.0, 50.0)), k=draw(st.floats(1.0, 10.0)),
                    sigmas=sigmas, q_max=draw(st.integers(1, 6)), horizon=1.0,
                    rates=rates)
    return model, pi


def risk_and_fill(model):
    """Per-state risk term and the count of active fill sides, (N * nq,)."""
    qs = model.q_levels()
    risk = 0.5 * model.gamma**2 * (model.sigmas[:, None] ** 2 + model.xi * model.gamma)
    sides = 2 - (np.abs(qs) == model.q_max)
    return (risk * qs**2).ravel(), np.tile(sides, model.n_regimes)


def lq_model(N):
    """A scalar LQ model of N regimes, for the rates that the Riccati sweep takes."""
    one, zero = np.ones((N, 1, 1)), np.zeros((N, 1, 1))
    return mjls_inner.RegimeLQModel(A=zero, B=one, D=zero, Sigma=zero, Q=one,
                                    R=one, S=one, Q_T=zero)


class TestRegimeGenerator:
    @settings(max_examples=150, deadline=None)
    @given(rates=rate_stacks())
    def test_rows_sum_to_zero(self, rates):
        # catches: the diagonal as -rates.sum(axis=-1), which keeps the
        # input's own diagonal in the row sum; and a check of rates <= 0,
        # which refuses a zero rate
        Q = numkit.generator(rates)
        scale = max(1.0, np.abs(Q).max())
        assert np.abs(Q.sum(axis=-1)).max() <= 1e-13 * scale
        for b in range(rates.shape[0]):  # a stack is its slices, one by one
            np.testing.assert_array_equal(Q[b], numkit.generator(rates[b]))

    @settings(max_examples=150, deadline=None)
    @given(rates=rate_stacks())
    def test_sign_pattern(self, rates):
        # catches: the diagonal as +row sum (off + eye * off.sum(...))
        N = rates.shape[-1]
        Q = numkit.generator(rates)
        off = ~np.eye(N, dtype=bool)
        assert (Q[:, off] >= 0.0).all()
        assert (Q[:, ~off] <= 0.0).all()
        np.testing.assert_array_equal(Q[:, off], rates[:, off])

    @settings(max_examples=100, deadline=None)
    @given(rates=rate_stacks(), nan=st.data())
    def test_any_diagonal_and_nan_pass(self, rates, nan):
        # a negative or NaN diagonal, and NaN anywhere off it, are not
        # refused; NaN stays in its row.  catches: the sign checked before
        # the diagonal is zeroed, and a check that refuses NaN
        B, N, _ = rates.shape
        rates[:, np.arange(N), np.arange(N)] = -np.abs(rates.diagonal(axis1=1, axis2=2)) - 1.0
        mask = nan.draw(hnp.arrays(bool, rates.shape))
        rates[mask] = np.nan
        Q = numkit.generator(rates)
        off = ~np.eye(N, dtype=bool)
        np.testing.assert_array_equal(np.isnan(Q[:, off]), mask[:, off])
        row_nan = (mask & off).any(axis=-1)
        assert np.array_equal(np.isnan(Q.diagonal(axis1=1, axis2=2)), row_nan)


class TestNegativeRateIsRefused:
    """A negative off-diagonal rate is refused by numkit.generator, the one
    rule, wherever the rates come in."""

    @settings(max_examples=60, deadline=None)
    @given(rates=negative_rates())
    def test_generator(self, rates):
        with pytest.raises(ValueError, match=NEGATIVE_RATE):
            numkit.generator(rates)
        with pytest.raises(ValueError, match=NEGATIVE_RATE):
            numkit.generator(np.stack([np.zeros_like(rates), rates]))

    @settings(max_examples=30, deadline=None)
    @given(rates=negative_rates())
    def test_as_model(self, rates):
        N = rates.shape[0]
        with pytest.raises(ValueError, match=NEGATIVE_RATE):
            ASModel(gamma=0.1, xi=0.5, A=10.0, k=2.0, sigmas=np.full(N, 0.3),
                    q_max=2, horizon=1.0, rates=rates)

    @settings(max_examples=30, deadline=None)
    @given(rates=negative_rates())
    def test_penalty_system_and_risk_factors(self, rates):
        N = rates.shape[0]
        model = ASModel(gamma=0.1, xi=0.5, A=10.0, k=2.0, sigmas=np.full(N, 0.3),
                        q_max=2, horizon=1.0)
        with pytest.raises(ValueError, match=NEGATIVE_RATE):
            as_game.build_generator(model, rates)
        with pytest.raises(ValueError, match=NEGATIVE_RATE):
            as_game.risk_factors(model, rates, [0.0, 0.5])

    @settings(max_examples=30, deadline=None)
    @given(rates=negative_rates(), per_node=st.booleans())
    def test_riccati_sweep(self, rates, per_node):
        # catches: solve_coupled_riccati taking rates unchecked, which a
        # negative rate fails as a step too long for the switching rates
        N = rates.shape[0]
        grid = TimeGrid(0.0, 1.0, 4)
        if per_node:  # the negative rate at one node of five
            rates = np.stack([np.abs(rates)] * 4 + [rates])
        with pytest.raises(ValueError, match=NEGATIVE_RATE):
            mjls_inner.solve_coupled_riccati(lq_model(N), rates, grid)


class TestPenaltyMatrix:
    @settings(max_examples=100, deadline=None)
    @given(case=models())
    def test_m_matrix_sign_pattern(self, case):
        # catches: +Q[i, j] for the regime entries of build_generator
        model, _ = case
        M = as_game.build_generator(model)
        off = ~np.eye(M.shape[0], dtype=bool)
        assert (M[off] <= 0.0).all()
        assert (np.diag(M) >= 0.0).all()

    @settings(max_examples=100, deadline=None)
    @given(case=models())
    def test_switching_adds_nothing_to_row_sums(self, case):
        # catches: dropping "- Q[i, i]" from the diagonal of build_generator,
        # which leaves the sign pattern and the symmetry intact
        model, _ = case
        M = as_game.build_generator(model)
        risk, sides = risk_and_fill(model)
        want = risk - model.A * model.fill_constant * sides
        scale = max(1.0, np.abs(M).max())
        assert np.abs(M.sum(axis=1) - want).max() <= 1e-12 * scale

    @settings(max_examples=100, deadline=None)
    @given(case=models(reversible=True))
    def test_symmetric_under_detailed_balance(self, case):
        # catches: -Q[j, i] for the regime entries of build_generator (the
        # transposed chain), which keeps the sign pattern
        model, pi = case
        d = np.repeat(np.sqrt(pi), model.n_levels)
        S = d[:, None] * as_game.build_generator(model) / d[None, :]
        assert np.abs(S - S.T).max() <= 1e-12 * np.abs(S).max()
        dq = np.sqrt(pi)
        SQ = dq[:, None] * model.rates / dq[None, :]
        assert np.abs(SQ - SQ.T).max() <= 1e-12 * max(np.abs(SQ).max(), 1e-300)
