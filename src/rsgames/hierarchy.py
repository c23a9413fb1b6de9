"""Synchronized backward sweep of the inner Riccati and outer switching layers.

One pass, right to left: at each node the local rate games are solved from
the current outer values k, the equilibrium generator is frozen over the
step, and both flows advance one step with it -- P (and r) first, then k
driven by phi_i = tr(P_i) at the step's endpoints.  The instantaneous
saddle depends only on the current (k, P), so no fixed-point iteration
between full solves is needed.
"""

from dataclasses import dataclass, field

import numpy as np

from . import game_core, mjls_inner, outer_layer
from .mjls_inner import RegimeLQModel, RiccatiSolution
from .numkit import TimeGrid
from .outer_layer import OuterGameSpec, OuterSolution


@dataclass
class HierarchySolution:
    riccati: RiccatiSolution
    outer: OuterSolution
    diagnostics: dict = field(default_factory=dict)


def solve_hierarchy(model: RegimeLQModel, spec: OuterGameSpec, grid: TimeGrid,
                    saddle=game_core.solve_zero_sum,
                    norm_bound: float = 1e8) -> HierarchySolution:
    """Joint equilibrium sweep with terminal P = Q_T, r = 0, k = 0.

    Shares the step functions and the blow-up guard of the standalone
    solvers.  diagnostics holds the turnpike references (rho_H, the
    lambda_2 trajectory and its mean), the number of local games settled
    by each game_core.SADDLE_PATHS entry ("saddle_paths") and the largest
    best-response gap over all of them.
    """
    if spec.n_regimes != model.n_regimes:
        raise ValueError("model and spec disagree on the number of regimes")
    N, n = model.n_regimes, model.n_states
    n_nodes = grid.n_steps + 1
    nodes = grid.nodes()
    workspace = mjls_inner._FlowWorkspace(model)

    P = np.empty((n_nodes, N, n, n))
    r = np.zeros((n_nodes, N))
    k = np.zeros((n_nodes, N))
    f = np.zeros((n_nodes, N, spec.n_row_actions))
    g = np.zeros((n_nodes, N, spec.n_col_actions))
    mu = np.zeros((n_nodes, N, N))
    P[-1] = mjls_inner.terminal_value(model)

    stats = {}
    phi_right = np.einsum("ijj->i", P[-1])
    for idx in range(grid.n_steps, 0, -1):
        f[idx], g[idx], mu[idx] = outer_layer.node_equilibrium(
            k[idx], spec, saddle, stats=stats
        )
        P[idx - 1], r[idx - 1] = mjls_inner.riccati_step(
            P[idx], r[idx], mu[idx], model, nodes[idx], grid.step, workspace
        )
        mjls_inner.check_escape(P[idx - 1], nodes[idx - 1], norm_bound)
        phi_left = np.einsum("ijj->i", P[idx - 1])
        k[idx - 1] = outer_layer.k_step(
            k[idx], phi_right, phi_left, mu[idx], nodes[idx], grid.step
        )
        phi_right = phi_left
    f[0], g[0], mu[0] = outer_layer.node_equilibrium(k[0], spec, saddle, stats=stats)

    lam2 = outer_layer.laplacian_spectral_gap(mu)
    diagnostics = {
        "rho_H": mjls_inner.hamiltonian_spectral_gap(model),
        "lambda2_trajectory": lam2,
        "lambda2_mean": float(lam2.mean()),
        "saddle_paths": {name: stats[name] for name in game_core.SADDLE_PATHS},
        "max_best_response_gap": stats["max_gap"],
    }
    riccati = RiccatiSolution(grid=grid, P=P, r=r, rates=mu)
    outer = OuterSolution(grid=grid, k=k, f=f, g=g, mu=mu)
    return HierarchySolution(riccati=riccati, outer=outer, diagnostics=diagnostics)


def _fit_decay_rate(taus, residuals, fit_lo, fit_hi, floor):
    """Slope of log(residual) over the central tau window; None if degenerate."""
    taus = np.asarray(taus, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    scale = residuals.max()
    if not np.isfinite(scale) or scale <= floor:
        return None, 0
    tau_max = taus.max()
    mask = (
        (taus >= fit_lo * tau_max)
        & (taus <= fit_hi * tau_max)
        & (residuals > max(floor, scale * 1e-12))
    )
    if mask.sum() < 5:
        return None, int(mask.sum())
    slope = np.polyfit(taus[mask], np.log(residuals[mask]), 1)[0]
    return float(-slope), int(mask.sum())


def turnpike_report(sol: HierarchySolution, fit_lo: float = 0.2,
                    fit_hi: float = 0.7, floor: float = 1e-13) -> dict:
    """Fitted exponential decay rates of both layers, next to their spectral
    references (2 rho_H inner, mean lambda_2 outer).  Diagnostic only.

    The inner residual is |P(tau) - P(tau_max)| and the outer residual is
    the distance of the disagreement component of k from its long-horizon
    limit, both in backward time tau = T - t.
    """
    grid = sol.riccati.grid
    taus = grid.T - grid.nodes()[::-1]  # ascending 0 .. T - t0
    P = sol.riccati.P[::-1]
    k = sol.outer.k[::-1]

    e_inner = np.linalg.norm(P - P[-1], axis=(2, 3)).max(axis=1)
    disagreement = k - k.mean(axis=1, keepdims=True)
    e_outer = np.linalg.norm(disagreement - disagreement[-1], axis=1)

    inner_rate, inner_pts = _fit_decay_rate(taus, e_inner, fit_lo, fit_hi, floor)
    outer_rate, outer_pts = _fit_decay_rate(taus, e_outer, fit_lo, fit_hi, floor)

    warnings = []
    for name, resid in (("inner", e_inner), ("outer", e_outer)):
        top = resid[taus >= fit_hi * taus.max()]
        if resid.max() > floor and top.size and top.max() > 0.1 * resid.max():
            warnings.append(
                f"{name} residual has not flattened; horizon may be too short"
            )

    report = {
        "rho_H": sol.diagnostics.get("rho_H"),
        "lambda2_mean": sol.diagnostics.get("lambda2_mean"),
        "inner_fitted_rate": inner_rate,
        "inner_reference_rate": 2.0 * sol.diagnostics.get("rho_H", np.nan),
        "inner_degenerate": inner_rate is None,
        "inner_fit_points": inner_pts,
        "outer_fitted_rate": outer_rate,
        "outer_reference_rate": sol.diagnostics.get("lambda2_mean"),
        "outer_degenerate": outer_rate is None,
        "outer_fit_points": outer_pts,
        "warnings": warnings,
    }
    return report
