"""Convex program over the stage multipliers.

phi(lambda) = (x'Pi_k(lambda)x + sum_j alpha_j lambda_j) / (2 alpha_bar)
is minimized over the nested feasible set lambda_j >= ||G'Pi_{j+1}G||.
The denominator alpha_bar is always the full-horizon budget, also for
tail programs starting at k > 0.

An active bound's level moves with the tail multipliers, so in the
multipliers themselves the componentwise projected gradient need not
vanish at a constrained optimum. The solver therefore works in the slack
coordinates s_j = lambda_j - b_j - eps_boundary >= 0, where one nested
backward pass of riccati (raw = -inf) sets lambda_j = b_j + eps_boundary
+ s_j stage by stage from b_j = ||G'Pi_{j+1}G|| under the multipliers
already set. There the feasible set is the nonnegative orthant, box
projection is exact and the projected gradient vanishes at the optimum.
One projected-gradient loop (Barzilai-Borwein step, Armijo backtracking)
runs in these coordinates from the start.

Its gradient is exact: the reverse mode of the nested pass, one forward
adjoint pass over the sweep. From X_0 = x x',

    g_j       = alpha_{k+j} - <X_j, J_j'J_j>,
    dphi/ds_j = g_j / (2 alpha_bar),
    X_{j+1}   = Acl_j X_j Acl_j' + g_j (G v_j)(G v_j)',

with Acl_j = A - BK_j - GJ_j and v_j a unit top eigenvector of
G'Pi_{j+1}G. X_j is 2 alpha_bar dphi/dPi_j and g_j is 2 alpha_bar
dphi/dlambda_j with Pi_{j+1} held; the second term of X_{j+1} carries
lambda_j's dependence on Pi_{j+1} through its bound. Where that
eigenvalue is repeated (q > 1) the bound is not smooth and any such v_j
gives a subgradient. Without the second term X_j = x_j x_j' along
x+ = Acl x, and g_j / (2 alpha_bar) is the envelope gradient in the
multipliers,

    dphi/dlambda_j = (alpha_j - ||wbar_j||^2) / (2 alpha_bar),

wbar_j = -J_j x_j the certainty disturbance. The tests check both
gradients against finite differences of phi.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import sym
from .problem import ProblemData, Tolerances
from .riccati import (MultiplierVector, RiccatiSweep, _nested_pass, at_bound,
                      project_feasible, sweep)

__all__ = ["MultiplierSolution", "objective", "solve_multipliers"]

_ARMIJO_C = 1e-4
_ARMIJO_SHRINK = 0.5
_MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class MultiplierSolution:
    """Optimal multipliers of a stage-k tail program.

    sweep is the backward sweep at lam_star that the solve ended on, equal
    bit for bit to sweep(p, lam_star): its K[0] gives the control and its
    Pi[1] and bounds[0] the worst-case disturbance, with no second sweep.
    """

    lam_star: MultiplierVector
    value: float
    grad_norm: float              # final projected-gradient norm in the slacks
    boundary_flags: np.ndarray    # stage multiplier at its nested bound
    iterations: int
    converged: bool
    sweep: RiccatiSweep
    gradient_mode: str = "envelope"  # or "corner" at x = 0


def _wrap(p: ProblemData, lam, k: int) -> MultiplierVector:
    if isinstance(lam, MultiplierVector):
        return lam
    return MultiplierVector(np.asarray(lam, dtype=float), stage_offset=k)


def _phi(p: ProblemData, x: np.ndarray, lam: MultiplierVector,
         Pi0: np.ndarray) -> float:
    tail = float(p.alpha[lam.stage_offset:] @ lam.lambdas)
    return (float(x @ Pi0 @ x) + tail) / (2.0 * p.alpha_bar)


def objective(p: ProblemData, lam, x, k: int = 0,
              tol: Tolerances | None = None) -> float:
    """phi at a feasible multiplier vector for the tail program at stage k."""
    tol = tol or Tolerances()
    x = np.asarray(x, dtype=float).ravel()
    sw = sweep(p, _wrap(p, lam, k), tol)
    return _phi(p, x, sw.lam, sw.Pi[0])


def _reconstruct(p: ProblemData, s: np.ndarray, k: int,
                 tol: Tolerances) -> RiccatiSweep:
    """Sweep at lambda_j = ||G'Pi_{j+1}G|| + eps_boundary + s_j, any s >= 0:
    the slack point s in one nested pass, whose bounds are the
    ||G'Pi_{j+1}G|| the multipliers were built from."""
    return _nested_pass(p, np.full(s.size, -np.inf), k, tol,
                        tol.eps_boundary, s)


def _slack_gradient(p: ProblemData, sw: RiccatiSweep, x: np.ndarray) -> np.ndarray:
    """Exact gradient of phi in the slack coordinates at the sweep sw, by
    the forward adjoint pass of the module docstring."""
    k = sw.stage_offset
    g = np.zeros(sw.horizon())
    X = np.outer(x, x)
    for j in range(g.size):
        J = sw.J[j]
        g[j] = p.alpha[k + j] - float(np.sum((J @ X) * J))
        Acl = p.A - p.B @ sw.K[j] - p.G @ J
        Gv = p.G[:, 0] if p.q == 1 else p.G @ np.linalg.eigh(
            sym(p.G.T @ sw.Pi[j + 1] @ p.G))[1][:, -1]
        X = Acl @ X @ Acl.T + g[j] * np.outer(Gv, Gv)
    return g / (2.0 * p.alpha_bar)


def _bb_step(s_prev, s_cur, g_prev, g_cur, fallback: float) -> float:
    ds = s_cur - s_prev
    dg = g_cur - g_prev
    denom = float(ds @ dg)
    if denom <= 0.0:
        return fallback
    t = float(ds @ ds) / denom
    return float(np.clip(t, 1e-12, 1e12))


def _pg_norm(g: np.ndarray, s: np.ndarray) -> float:
    return float(np.linalg.norm(np.where(s > 0.0, g, np.minimum(g, 0.0))))


def _descend(p: ProblemData, x: np.ndarray, s: np.ndarray, sw: RiccatiSweep,
             tol: Tolerances, max_iter: int):
    """Projected gradient over the slack orthant from s >= 0 with sweep sw.

    Converged when the projected-gradient norm falls to 1e-8 (1 + |phi|),
    or, once no step is accepted, to 1e-6 (1 + |phi|). Returns (sw, phi,
    projected-gradient norm, iterations, converged).
    """
    k = sw.stage_offset
    phi = _phi(p, x, sw.lam, sw.Pi[0])
    g = _slack_gradient(p, sw, x)
    t = 1.0
    s_prev = g_prev = None
    converged = False
    iterations = 0
    while iterations < max_iter:
        pgn = _pg_norm(g, s)
        if pgn <= 1e-8 * (1.0 + abs(phi)):
            converged = True
            break
        if s_prev is not None:
            t = _bb_step(s_prev, s, g_prev, g, t)
        accepted = False
        tt = t
        for _ in range(_MAX_BACKTRACKS):
            cand = np.maximum(s - tt * g, 0.0)
            step = cand - s
            if float(np.abs(step).max()) == 0.0:
                break
            sw_c = _reconstruct(p, cand, k, tol)
            phi_c = _phi(p, x, sw_c.lam, sw_c.Pi[0])
            if phi_c <= phi + _ARMIJO_C * float(g @ step):
                s_prev, g_prev = s, g
                s, phi, sw = cand, phi_c, sw_c
                g = _slack_gradient(p, sw, x)
                accepted = True
                iterations += 1
                break
            tt *= _ARMIJO_SHRINK
        if not accepted:
            converged = pgn <= 1e-6 * (1.0 + abs(phi))
            break
    return sw, phi, _pg_norm(g, s), iterations, converged


def solve_multipliers(p: ProblemData, x, k: int = 0, init=None,
                      tol: Tolerances | None = None,
                      gradient_mode: str = "auto",
                      max_iter: int = 5000) -> MultiplierSolution:
    """Minimize phi over the nested feasible set for the stage-k tail.

    The projected-gradient loop runs in the slack coordinates of the
    module docstring, from init (raw multipliers, projected onto the
    feasible set) or from one above the lower corner, driven by the exact
    adjoint gradient. gradient_mode accepts "auto" and "envelope", which
    both select it, and the solution reports "envelope". At x = 0 the
    objective is minimized at the projected lower corner; that solution is
    returned directly and reports "corner". grad_norm is the
    projected-gradient norm in the slacks. The solution carries the sweep
    at lam_star that the solve built.
    """
    tol = tol or Tolerances()
    x = np.asarray(x, dtype=float).ravel()
    if x.size != p.n:
        raise ValueError(f"state has size {x.size}, expected {p.n}")
    if not 0 <= k < p.N:
        raise ValueError(f"stage {k} outside horizon {p.N}")
    if gradient_mode not in ("auto", "envelope"):
        raise ValueError(f"unknown gradient mode {gradient_mode!r}")
    n_stage = p.N - k

    if float(x @ x) == 0.0:
        sw = _nested_pass(p, np.zeros(n_stage), k, tol, tol.eps_boundary)
        return MultiplierSolution(
            lam_star=sw.lam, value=_phi(p, x, sw.lam, sw.Pi[0]), grad_norm=0.0,
            boundary_flags=np.ones(n_stage, dtype=bool), iterations=0,
            converged=True, sweep=sw, gradient_mode="corner")

    if init is None:
        corner = project_feasible(p, np.zeros(n_stage), stage_offset=k, tol=tol)
        init = corner.lambdas + 1.0
    else:
        init = np.asarray(init, dtype=float).ravel()
        if init.size != n_stage:
            raise ValueError(f"init has size {init.size}, expected {n_stage}")
    sw = _nested_pass(p, init, k, tol, tol.eps_boundary)
    s = np.maximum(sw.lam.lambdas - sw.bounds - tol.eps_boundary, 0.0)
    sw, phi, grad_norm, iterations, converged = _descend(p, x, s, sw, tol, max_iter)
    return MultiplierSolution(lam_star=sw.lam, value=phi, grad_norm=grad_norm,
                              boundary_flags=at_bound(sw.lam.lambdas, sw.bounds, tol),
                              iterations=iterations, converged=converged,
                              sweep=sw)
