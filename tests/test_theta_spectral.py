"""The spectral penalty table against the dense propagator it replaces.

`as_game.build_theta_table` evaluates a reversible chain's table from one
symmetric eigendecomposition and falls back to `_propagate` when the chain
is not reversible, its stationary law is near-degenerate, or the
eigenvector sum may have cancelled.  `oracles.theta_table_oracle` is the
dense node-by-node table; each fallback is forced here once.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from oracles import theta_table_oracle
from rsgames import as_game, cli
from rsgames.as_game import ASModel


def rel_err(table, want):
    return np.abs(table.theta - want).max() / max(np.abs(want).max(), 1e-300)


@st.composite
def reversible_models(draw):
    """Random models whose chain obeys detailed balance by construction:
    Q_ij = K_ij / pi_i with K symmetric and pi positive; every rate is
    positive, so the chain is irreducible."""
    N = draw(st.integers(1, 4))
    pi = draw(hnp.arrays(float, N, elements=st.floats(0.05, 1.0)))
    K = draw(hnp.arrays(float, (N, N), elements=st.floats(0.01, 20.0)))
    rates = np.triu(K, 1) + np.triu(K, 1).T
    rates /= pi[:, None]
    sigmas = draw(hnp.arrays(float, N, elements=st.floats(0.1, 1.0)))
    return ASModel(gamma=draw(st.floats(0.05, 1.0)), xi=draw(st.floats(0.0, 1.0)),
                   A=draw(st.floats(1.0, 50.0)), k=5.0, sigmas=sigmas,
                   q_max=draw(st.integers(1, 40)), horizon=draw(st.floats(0.1, 2.0)),
                   rates=rates)


class TestSpectralMatchesPropagator:
    @settings(max_examples=60, deadline=None)
    @given(model=reversible_models(), n_steps=st.integers(1, 16))
    def test_random_reversible_models(self, model, n_steps):
        table = as_game.build_theta_table(model, n_steps)
        event(table.method)
        assert rel_err(table, theta_table_oracle(model, n_steps)) <= 1e-9
        assert np.abs(table.theta[0]).max() == 0.0

    @pytest.mark.parametrize("rates", [
        np.zeros((1, 1)),
        [[0.0, 4.0], [4.0, 0.0]],
        [[0.0, 50.0], [0.5, 0.0]],
        [[0.0, 2.0, 1.0], [4.0, 0.0, 3.0], [1.0, 1.5, 0.0]],
        [[0.0, 3.0, 0.0, 0.0], [1.0, 0.0, 2.0, 0.0],
         [0.0, 5.0, 0.0, 0.5], [0.0, 0.0, 4.0, 0.0]],
    ], ids=["N1", "N2", "N2-lopsided", "N3-reversible", "N4-birth-death"])
    def test_reversible_chains_take_the_spectral_path(self, rates):
        N = np.shape(rates)[0]
        m = ASModel(gamma=0.5, xi=0.5, A=10.0, k=8.0,
                    sigmas=np.linspace(0.2, 0.8, N), q_max=6, horizon=1.0,
                    rates=rates)
        table = as_game.build_theta_table(m, 32)
        assert table.method == "spectral"
        assert rel_err(table, theta_table_oracle(m, 32)) <= 1e-12

    def test_large_exponent_needs_the_shift(self):
        # the smallest eigenvalue times the horizon is about -2e4 here, so
        # exp(-lambda tau) without the shift by lambda_0 would overflow
        m = ASModel(gamma=0.5, xi=0.5, A=3e4, k=8.0, sigmas=[0.3, 0.8], q_max=5,
                    horizon=1.0, rates=[[0.0, 4.0], [4.0, 0.0]])
        table = as_game.build_theta_table(m, 16)
        assert table.method == "spectral"
        assert rel_err(table, theta_table_oracle(m, 16)) <= 1e-12

    def test_reference_market_tables(self):
        model = cli.build_as_model(cli.load_config(None, "mm")["as_model"])
        for n_steps in (16, 512):
            table = as_game.build_theta_table(model, n_steps)
            assert table.method == "spectral"
            assert rel_err(table, theta_table_oracle(model, n_steps)) <= 1e-12

    def test_one_table_sized_buffer(self):
        # many more nodes than states: the table is the only (n_nodes x dim)
        # array, the exponentials come in blocks of SPECTRAL_CHUNK_NODES
        model = cli.build_as_model(cli.load_config(None, "mm")["as_model"])
        as_game.build_theta_table(model, 8)
        tracemalloc.start()
        try:
            table = as_game.build_theta_table(model, 2880)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.method == "spectral"
        assert peak < 1.5 * table.theta.nbytes


class TestForcedFallbacks:
    def check_fallback(self, model, n_steps):
        # the fallback steps the folded system of half the dimension, the
        # oracle the full one: the same propagator on different matrices, so
        # they agree to rounding, not bitwise
        table = as_game.build_theta_table(model, n_steps)
        assert table.method == "propagate"
        assert rel_err(table, theta_table_oracle(model, n_steps)) <= 1e-13

    def test_non_reversible_cycle(self):
        # 0 -> 1 -> 2 -> 0 only: the flow never balances
        m = ASModel(gamma=0.5, xi=0.5, A=10.0, k=8.0, sigmas=[0.2, 0.5, 0.9],
                    q_max=4, horizon=1.0,
                    rates=[[0.0, 6.0, 0.0], [0.0, 0.0, 6.0], [6.0, 0.0, 0.0]])
        assert as_game._reversible_weights(m.rates) is None
        self.check_fallback(m, 16)

    @pytest.mark.parametrize("rates", [[[0.0, 1.6e-254], [5.0, 0.0]],
                                       [[0.0, 2.0**-25], [1.0, 0.0]],
                                       [[0.0, 0.0], [0.0, 0.0]]],
                             ids=["tiny-rate", "tiny-weight", "reducible"])
    def test_near_degenerate_stationary_law(self, rates):
        # at 2^-25 detailed balance holds to rounding and only the weight
        # bound fires; a reducible chain has no unique stationary law
        m = ASModel(gamma=0.5, xi=0.5, A=10.0, k=5.0, sigmas=[0.3, 0.8],
                    q_max=3, horizon=1.0, rates=rates)
        assert as_game._reversible_weights(m.rates) is None
        self.check_fallback(m, 8)

    @pytest.mark.parametrize("q_max,A", [(40, 2000.0), (30, 1000.0), (32, 1000.0)])
    def test_stiff_cancellation(self, q_max, A):
        # the eigenvector sum cancels in the tails at large |q|; where it
        # stays positive it can still be off by order 1 in theta
        m = ASModel(gamma=1.0, xi=2.0, A=A, k=8.0, sigmas=[1.0, 2.0],
                    q_max=q_max, horizon=5.0, rates=[[0.0, 50.0], [20.0, 0.0]])
        assert as_game._reversible_weights(m.rates) is not None
        self.check_fallback(m, 16)
