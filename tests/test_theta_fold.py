"""The reflection symmetry q -> -q that the folded penalty table rests on.

The risk term goes as q^2, both sides fill at the same rate, and the
inactive sides at -+q_max mirror each other, so the generator M of
`as_game.build_generator` commutes with the reflection J: J M J = M.  With
v(0) = 1 even, theta is even in q, and `as_game.build_theta_table` solves
only the even half m = 0..q_max (`as_game._fold`) and mirrors it
(`as_game._mirror`).  These tests pin the symmetry, the fold and the mirror
against the full-dimension dense table `oracles.theta_table_oracle`, on
reversible and non-reversible chains.  Each test names a mutation of
`as_game` it catches.
"""

import numpy as np
from hypothesis import event, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from oracles import theta_table_oracle
from rsgames import as_game
from rsgames.as_game import ASModel


@st.composite
def models(draw, max_q=40):
    """Random models with N in 1..4 and q_max in 1..max_q.  Reversible
    chains have Q_ij = K_ij / pi_i with K symmetric; the others draw every
    rate on its own, so detailed balance generically fails."""
    N = draw(st.integers(1, 4))
    if draw(st.booleans()):
        pi = draw(hnp.arrays(float, N, elements=st.floats(0.05, 1.0)))
        K = draw(hnp.arrays(float, (N, N), elements=st.floats(0.01, 20.0)))
        rates = (np.triu(K, 1) + np.triu(K, 1).T) / pi[:, None]
    else:
        rates = draw(hnp.arrays(float, (N, N), elements=st.floats(0.0, 50.0)))
    sigmas = draw(hnp.arrays(float, N, elements=st.floats(0.1, 1.0)))
    return ASModel(gamma=draw(st.floats(0.05, 1.0)), xi=draw(st.floats(0.0, 1.0)),
                   A=draw(st.floats(1.0, 50.0)), k=draw(st.floats(1.0, 10.0)),
                   sigmas=sigmas, q_max=draw(st.integers(1, max_q)),
                   horizon=draw(st.floats(0.1, 2.0)), rates=rates)


def reflect(model):
    """Permutation of the state index (i, q) -> (i, -q)."""
    nq = model.n_levels
    return (np.arange(model.n_regimes)[:, None] * nq + np.arange(nq)[::-1]).ravel()


class TestReflectionSymmetry:
    @settings(max_examples=100, deadline=None)
    @given(model=models())
    def test_generator_commutes_with_reflection(self, model):
        # catches: a one-sided fill, e.g. the ask kept active at q = -q_max
        # ("if q >= -model.q_max"), or the risk term taken as q * |q|
        M = as_game.build_generator(model)
        J = reflect(model)
        np.testing.assert_array_equal(M[np.ix_(J, J)], M)

    @settings(max_examples=40, deadline=None)
    @given(model=models(), n_steps=st.integers(1, 8))
    def test_table_is_even_bitwise(self, model, n_steps):
        # catches: the mirror shifted by one level
        # (out[..., :Q] = half[..., Q - 1::-1]), on either path
        table = as_game.build_theta_table(model, n_steps)
        event(table.method)
        np.testing.assert_array_equal(table.theta, table.theta[..., ::-1])

    @settings(max_examples=40, deadline=None)
    @given(model=models(), n_steps=st.integers(1, 8))
    def test_ask_mirrors_bid_bitwise(self, model, n_steps):
        # catches: the bid summed in another order than the ask
        # (np.maximum(th[:, :, 1:] - th[:, :, :-1] + base, 0.0)), which
        # moves a last bit at some level
        table = as_game.build_theta_table(model, n_steps)
        ask, bid = as_game.quote_surfaces(table, model)
        np.testing.assert_array_equal(ask, bid[..., ::-1])


class TestFoldedTable:
    @settings(max_examples=100, deadline=None)
    @given(model=models(), seed=st.integers(0, 2**32 - 1))
    def test_fold_acts_as_the_full_generator_on_even_vectors(self, model, seed):
        # catches: the fold without the -m columns (rows[..., Q:] alone),
        # which drops the doubled fill from m = 0 to m = 1
        N, Q = model.n_regimes, model.q_max
        half = np.random.default_rng(seed).uniform(0.5, 2.0, (N, Q + 1))
        full = np.zeros((N, model.n_levels))
        as_game._mirror(half, full)
        M = as_game.build_generator(model)
        want = (M @ full.ravel()).reshape(N, -1)[:, Q:].ravel()
        got = as_game._fold(M, N, Q) @ half.ravel()
        scale = np.abs(M).sum(axis=1).max() * 2.0
        assert np.abs(got - want).max() <= 1e-14 * scale

    @settings(max_examples=40, deadline=None)
    @given(model=models(), n_steps=st.integers(1, 8))
    def test_matches_the_full_dimension_oracle(self, model, n_steps):
        # catches: c_m = 1 at every level (the sqrt(2) weights missing), so
        # eigh reads a lower triangle that is not the symmetrized fold; and
        # the fold without the -m columns, on either path
        table = as_game.build_theta_table(model, n_steps)
        event(table.method)
        want = theta_table_oracle(model, n_steps)
        err = np.abs(table.theta - want).max() / max(np.abs(want).max(), 1e-300)
        # the spectral tolerance of test_theta_spectral's random models, and
        # the fallback's rounding bound against the same propagator
        assert err <= (1e-9 if table.method == "spectral" else 1e-13)
