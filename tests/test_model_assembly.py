"""The stacked model matrices against the loops they replaced.

`as_game.build_generator` fills the penalty system's block generator by
index assignments on an (N, nq, N, nq) array, and `mjls_inner` forms the
control matrices, the Hamiltonians and the model checks of all regimes at
once.  The loops in `oracles` assemble the same matrices one regime and
one inventory level at a time; the stacks must equal them bitwise (signs
of zero included) and validation must raise the loop's message.  Each test
names a mutation of the stacked code that it catches.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from oracles import (build_generator_oracle, check_lq_stacks_oracle,
                     control_matrix_oracle, hamiltonian_matrix_oracle,
                     hamiltonian_spectral_gap_oracle)
from rsgames import as_game, mjls_inner
from rsgames.as_game import ASModel
from rsgames.mjls_inner import RegimeLQModel


def rate_matrices(N):
    """(N, N) switching rates, many of them exactly zero."""
    return hnp.arrays(float, (N, N), elements=st.sampled_from([0.0]) | st.floats(0.0, 500.0))


@st.composite
def as_models(draw):
    N = draw(st.integers(1, 5))
    return ASModel(
        gamma=draw(st.floats(1e-3, 5.0)),
        xi=draw(st.floats(0.0, 20.0)),
        A=draw(st.floats(1.0, 1e6)),
        k=draw(st.floats(0.1, 50.0)),
        sigmas=draw(hnp.arrays(float, N, elements=st.floats(0.01, 3.0))),
        q_max=draw(st.integers(1, 40)),
        horizon=1.0,
        rates=draw(rate_matrices(N)),
    ), draw(st.none() | rate_matrices(N))


@settings(max_examples=60, deadline=None)
@given(as_models())
def test_generator_equals_loop(case):
    # catches: the ask left active at -q_max (or the bid at +q_max), -Q[j, i]
    # for the regime entries, +Q[i, i] on the diagonal, the risk term on
    # another regime's sigma, and the regime entries written after the
    # diagonal (which would leave -Q[i, i] there)
    model, rates = case
    M = as_game.build_generator(model, rates)
    want = build_generator_oracle(model, rates)
    assert np.array_equal(M, want)
    assert np.array_equal(np.signbit(M), np.signbit(want))


def stack(draw, N, rows, cols, scale=2.0):
    return draw(hnp.arrays(float, (N, rows, cols), elements=st.floats(-scale, scale)))


@st.composite
def lq_stacks(draw):
    """Valid stacks of an LQ model as a dict: Q, Q_T positive semidefinite
    (G G'), R, S positive definite (G G' + c I)."""
    N, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    d1, d2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def psd(d, shift):
        G = stack(draw, N, d, d)
        return G @ np.swapaxes(G, 1, 2) + shift * np.eye(d)

    return dict(A=stack(draw, N, n, n), B=stack(draw, N, n, d1), D=stack(draw, N, n, d2),
                Sigma=stack(draw, N, n, n), Q=psd(n, 0.0), Q_T=psd(n, 0.0),
                R=psd(d1, draw(st.floats(0.1, 2.0))), S=psd(d2, draw(st.floats(0.1, 2.0))))


@settings(max_examples=100, deadline=None)
@given(lq_stacks())
def test_control_and_hamiltonian_equal_loop(stacks):
    # catches: +gain_w in the control matrices, B' in place of B in the solve,
    # +Q or A (not -A') in the Hamiltonian's lower blocks, and a gap taken
    # over the first regime only
    model = RegimeLQModel(**stacks)
    N = model.n_regimes
    want = np.stack([control_matrix_oracle(model, i) for i in range(N)])
    assert np.array_equal(model.control_matrices(), want)
    want = np.stack([hamiltonian_matrix_oracle(model, i) for i in range(N)])
    assert np.array_equal(mjls_inner.hamiltonian_matrices(model), want)
    assert mjls_inner.hamiltonian_spectral_gap(model) == hamiltonian_spectral_gap_oracle(model)


CORRUPTIONS = ("asymmetric", "indefinite", "singular", "borderline")


def corrupt(M, kind, value):
    """Spoil one symmetric matrix: off-diagonal asymmetry (a 1x1 matrix is
    made indefinite instead), a negative eigenvalue, an exact zero
    eigenvalue, or a diagonal with a smallest entry of `value` near the
    semidefinite tolerance -1e-10."""
    d = M.shape[0]
    if kind == "asymmetric" and d > 1:
        M[0, d - 1] += 1.0
    elif kind in ("asymmetric", "indefinite"):
        M -= (np.abs(M).sum() + 1.0) * np.eye(d)
    elif kind == "singular":
        M[:] = np.diag(np.r_[0.0, np.ones(d - 1)])
    else:
        M[:] = np.diag(np.r_[value, np.ones(d - 1)])


@st.composite
def corrupted_stacks(draw):
    stacks = draw(lq_stacks())
    N = stacks["Q"].shape[0]
    for _ in range(draw(st.integers(1, 2))):
        name = draw(st.sampled_from(("Q", "Q_T", "R", "S")))
        kind = draw(st.sampled_from(CORRUPTIONS))
        value = draw(st.sampled_from([-2e-10, -1e-10, -5e-11, 0.0, 1e-300]))
        corrupt(stacks[name][draw(st.integers(0, N - 1))], kind, value)
    return stacks


@settings(max_examples=200, deadline=None)
@given(corrupted_stacks())
def test_validation_raises_loop_message(stacks):
    # catches: a name-major error order (Q of every regime before R), the
    # definiteness check before the symmetry check, < 0 in place of <= 0 for
    # R and S, <= -1e-10 (or < 0) in place of < -1e-10 for Q and Q_T, and
    # "definite" for "semidefinite" in the message
    try:
        check_lq_stacks_oracle(stacks["Q"], stacks["Q_T"], stacks["R"], stacks["S"])
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            RegimeLQModel(**stacks)
        assert str(raised.value) == str(exc)
    else:
        RegimeLQModel(**stacks)
