"""Synchronized backward sweep of the inner Riccati and outer switching layers.

One pass, right to left, of mjls_inner.backward_sweep: at each node the
local rate games are solved from the current outer values k, and the
equilibrium generator is frozen over the step for both flows.  P (and r)
step first, then k through outer_layer.k_step, driven by phi_i = tr(P_i) at
the step's ends and its linear interpolation at the midpoint.  The
instantaneous saddle depends only on the current (k, P), so no fixed-point
iteration between full solves is needed.
"""

from dataclasses import dataclass, field

import numpy as np

from . import game_core, mjls_inner, outer_layer
from .mjls_inner import RegimeLQModel, RiccatiSolution
from .numkit import TimeGrid
from .outer_layer import OuterGameSpec, OuterSolution

# turnpike_report fits log(residual) over taus in [FIT_LO, FIT_HI] * tau_max,
# on residuals above RESIDUAL_FLOOR
FIT_LO = 0.2
FIT_HI = 0.7
RESIDUAL_FLOOR = 1e-13

# turnpike_report takes |P(tau) - P(tau_max)| this many nodes at a time, so
# its temporaries stay small instead of two the size of P
RESIDUAL_BLOCK = 64


@dataclass
class HierarchySolution:
    riccati: RiccatiSolution
    outer: OuterSolution
    diagnostics: dict = field(default_factory=dict)


def solve_hierarchy(model: RegimeLQModel, spec: OuterGameSpec, grid: TimeGrid,
                    saddle=game_core.solve_lp) -> HierarchySolution:
    """Joint equilibrium sweep with terminal P = Q_T, r = 0, k = 0.

    P and r come from mjls_inner.backward_sweep, the loop of the standalone
    solver, with its escape guard and RK4 step verdict; the generator it
    freezes over each step is the node's equilibrium.  diagnostics holds the
    turnpike references (rho_H, the lambda_2 trajectory and its mean), the
    number of local games settled by each game_core.SADDLE_PATHS entry
    ("saddle_paths") and the largest best-response gap over all of them.
    """
    if spec.n_regimes != model.n_regimes:
        raise ValueError("model and spec disagree on the number of regimes")
    N, n_nodes = model.n_regimes, grid.n_steps + 1
    k = np.zeros((n_nodes, N))
    f = np.zeros((n_nodes, N, spec.n_row_actions))
    g = np.zeros((n_nodes, N, spec.n_col_actions))
    mu = np.zeros((n_nodes, N, N))
    paths = np.zeros((n_nodes, N), dtype=int)  # game_core.SADDLE_PATHS indices
    gaps = np.zeros((n_nodes, N))  # best-response gaps

    def node_rates(idx, P):
        if idx < grid.n_steps:  # k steps back to idx with tr P at the step's ends
            phi = np.einsum("tijj->ti", P[idx:idx + 2])
            forcing = (phi[1], 0.5 * (phi[0] + phi[1]), phi[0])
            k[idx] = outer_layer.k_step(k[idx + 1], forcing, mu[idx + 1], -grid.step)
        f[idx], g[idx], mu[idx], paths[idx], gaps[idx] = outer_layer.node_equilibrium(
            k[idx], spec, saddle)
        return mu[idx]

    riccati = mjls_inner.backward_sweep(model, grid, node_rates)
    lam2 = outer_layer.laplacian_spectral_gap(mu)
    diagnostics = {
        "rho_H": mjls_inner.hamiltonian_spectral_gap(model),
        "lambda2_trajectory": lam2,
        "lambda2_mean": float(lam2.mean()),
        "saddle_paths": dict(zip(game_core.SADDLE_PATHS, np.bincount(
            paths.ravel(), minlength=len(game_core.SADDLE_PATHS)).tolist())),
        "max_best_response_gap": float(gaps.max()),
    }
    outer = OuterSolution(grid=grid, k=k, f=f, g=g, mu=mu)
    return HierarchySolution(riccati=riccati, outer=outer, diagnostics=diagnostics)


def _fit_decay_rate(taus, residuals):
    """Minus the slope of log(residual) over the central tau window, or None."""
    taus = np.asarray(taus, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    scale = residuals.max()
    if not np.isfinite(scale) or scale <= RESIDUAL_FLOOR:
        return None
    tau_max = taus.max()
    mask = (
        (taus >= FIT_LO * tau_max)
        & (taus <= FIT_HI * tau_max)
        & (residuals > max(RESIDUAL_FLOOR, scale * 1e-12))
    )
    if mask.sum() < 5:
        return None
    slope = np.polyfit(taus[mask], np.log(residuals[mask]), 1)[0]
    return float(-slope)


def turnpike_report(sol: HierarchySolution) -> dict:
    """Fitted exponential decay rates of both layers, next to their spectral
    references (2 rho_H inner, mean lambda_2 outer), and the saddle health
    of the outer layer's node games from sol.diagnostics.  Diagnostic only.

    These are all the fields of turnpike.json.  The inner residual is
    |P(tau) - P(tau_max)| and the outer residual is the distance of the
    disagreement component of k from its long-horizon limit, both in
    backward time tau = T - t.
    """
    grid = sol.riccati.grid
    taus = grid.T - grid.nodes()[::-1]  # ascending 0 .. T - t0
    P = sol.riccati.P[::-1]
    k = sol.outer.k[::-1]

    e_inner = np.empty(len(P))
    for a in range(0, len(P), RESIDUAL_BLOCK):
        e_inner[a:a + RESIDUAL_BLOCK] = np.linalg.norm(
            P[a:a + RESIDUAL_BLOCK] - P[-1], axis=(2, 3)).max(axis=1)
    disagreement = k - k.mean(axis=1, keepdims=True)
    e_outer = np.linalg.norm(disagreement - disagreement[-1], axis=1)

    inner_rate = _fit_decay_rate(taus, e_inner)
    outer_rate = _fit_decay_rate(taus, e_outer)

    warnings = []
    for name, resid in (("inner", e_inner), ("outer", e_outer)):
        top = resid[taus >= FIT_HI * taus.max()]
        if resid.max() > RESIDUAL_FLOOR and top.size and top.max() > 0.1 * resid.max():
            warnings.append(
                f"{name} residual has not flattened; horizon may be too short"
            )

    return {
        "rho_H": sol.diagnostics["rho_H"],
        "lambda2_mean": sol.diagnostics["lambda2_mean"],
        "inner_fitted_rate": inner_rate,
        "inner_reference_rate": 2.0 * sol.diagnostics["rho_H"],
        "inner_degenerate": inner_rate is None,
        "outer_fitted_rate": outer_rate,
        "outer_reference_rate": sol.diagnostics["lambda2_mean"],
        "outer_degenerate": outer_rate is None,
        "warnings": warnings,
        "saddle_paths": sol.diagnostics["saddle_paths"],
        "max_best_response_gap": sol.diagnostics["max_best_response_gap"],
    }
