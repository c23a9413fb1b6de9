"""Solvers for two-layer switching games over regime-modulated diffusions.

Layout:
    numkit       time grids, error types, the generator rule, Student t tail
    game_core    zero-sum matrix games (pure saddle, equalizer, simplex LP)
    mjls_inner   coupled Riccati flows for Markov-jump LQ games
    outer_layer  scalar switching-value flow and local rate games
    hierarchy    synchronized inner/outer backward sweep + diagnostics
    as_game      adversarial market-making model (inventory tables, quotes)
    sim          seeded Monte-Carlo market replay
    calib        OHLCV regime calibration
    cli          command-line front end
"""

__version__ = "0.1.0"

from .numkit import TimeGrid, NumericalError, BlowupError  # noqa: F401
