"""Convex program over the stage multipliers.

phi(lambda) = (x'Pi_k(lambda)x + sum_j alpha_j lambda_j) / (2 alpha_bar)
is minimized over the nested feasible set lambda_j >= ||G'Pi_{j+1}G||.
The denominator alpha_bar is always the full-horizon budget, also for
tail programs starting at k > 0.

One projected-gradient loop (Barzilai-Borwein step, Armijo backtracking)
runs twice, in two coordinate systems. Every candidate is projected and
swept by one nested backward pass of riccati, which sets
lambda_j = max(raw_j, b_j + margin) + s_j stage by stage with
b_j = ||G'Pi_{j+1}G|| under the multipliers already set.

Phase one works in the multipliers themselves (raw = the candidate,
s = 0) with either the envelope gradient

    dphi/dlambda_j = (alpha_j - ||wbar_j||^2) / (2 alpha_bar),

wbar_j the certainty disturbance along x+ = (A - BK - GJ)x, or central
finite differences. Because an active bound's level moves with the tail
multipliers, the componentwise projected gradient need not vanish at a
constrained optimum; phase two therefore refines in the slack
coordinates s_j = lambda_j - b_j - eps_boundary >= 0 (raw = -inf), where
the feasible set is exactly the nonnegative orthant and box projection
is exact. Finite differences drive phase two.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryTooClose
from .problem import ProblemData, Tolerances
from .riccati import (MultiplierVector, RiccatiSweep, _nested_pass,
                      project_feasible, sweep)

__all__ = ["MultiplierSolution", "objective", "gradient", "solve_multipliers"]

_ARMIJO_C = 1e-4
_ARMIJO_SHRINK = 0.5
_MAX_BACKTRACKS = 60
_GATE_RTOL = 1e-4


@dataclass(frozen=True)
class MultiplierSolution:
    lam_star: MultiplierVector
    value: float
    grad_norm: float              # final projected-gradient norm
    boundary_flags: np.ndarray    # stage multiplier at its nested bound
    iterations: int
    converged: bool
    gradient_mode: str = "fd"


def _wrap(p: ProblemData, lam, k: int) -> MultiplierVector:
    if isinstance(lam, MultiplierVector):
        return lam
    return MultiplierVector(np.asarray(lam, dtype=float), stage_offset=k)


def _phi(p: ProblemData, x: np.ndarray, lam: MultiplierVector,
         Pi0: np.ndarray) -> float:
    abar = p.schedule().alpha_bar
    tail = float(p.alpha[lam.stage_offset:] @ lam.lambdas)
    return (float(x @ Pi0 @ x) + tail) / (2.0 * abar)


def objective(p: ProblemData, lam, x, k: int = 0,
              tol: Tolerances | None = None) -> float:
    """phi at a feasible multiplier vector for the tail program at stage k."""
    tol = tol or Tolerances()
    x = np.asarray(x, dtype=float).ravel()
    sw = sweep(p, _wrap(p, lam, k), tol)
    return _phi(p, x, sw.lam, sw.Pi[0])


def _envelope_gradient(p: ProblemData, sw: RiccatiSweep, x: np.ndarray) -> np.ndarray:
    abar = p.schedule().alpha_bar
    k = sw.stage_offset
    g = np.zeros(p.N - k)
    xj = x.copy()
    for j in range(p.N - k):
        w = -(sw.J[j] @ xj)
        g[j] = (p.alpha[k + j] - float(w @ w)) / (2.0 * abar)
        xj = p.A @ xj - p.B @ (sw.K[j] @ xj) + p.G @ w
    return g


def _fd_gradient(p: ProblemData, sw: RiccatiSweep, x: np.ndarray,
                 phi0: float, tol: Tolerances) -> np.ndarray:
    """Central differences of phi at the multipliers of sw (phi0 there),
    forward ones where a probe's projection moves it."""
    k = sw.stage_offset
    base = sw.lam.lambdas
    g = np.zeros(base.size)
    for i in range(base.size):
        h = max(tol.fd_step, tol.fd_step * abs(base[i]))
        up = base.copy()
        up[i] += h
        sw_up, _ = _nested_pass(p, up, k, tol, tol.eps_boundary)
        dn = base.copy()
        dn[i] -= h
        # a down-probe the projection moved sits on the bound, where its
        # stage-0 step can fail; the pass finishes that step only when the
        # probe is used
        sw_dn, _ = _nested_pass(p, dn, k, tol, tol.eps_boundary, step0=False)
        moved = max(float(np.abs(sw_up.lam.lambdas - up).max()),
                    float(np.abs(sw_dn.lam.lambdas - dn).max()))
        phi_up = _phi(p, x, sw_up.lam, sw_up.Pi[0])
        if moved <= 1e-3 * h:
            stage0, _ = _nested_pass(p, sw_dn.lam.lambdas[:1], k, tol, S=sw_dn.Pi[1])
            g[i] = (phi_up - _phi(p, x, sw_dn.lam, stage0.Pi[0])) / (2.0 * h)
        else:
            g[i] = (phi_up - phi0) / h
    return g


def gradient(p: ProblemData, lam, x, k: int = 0, method: str = "fd",
             tol: Tolerances | None = None, strict: bool = False) -> np.ndarray:
    """Gradient of phi in the multipliers; "envelope" or "fd".

    strict raises BoundaryTooClose when a multiplier sits within ten
    finite-difference steps of its nested bound, where one-sided
    differences lose accuracy.
    """
    tol = tol or Tolerances()
    x = np.asarray(x, dtype=float).ravel()
    lam = _wrap(p, lam, k)
    sw = sweep(p, lam, tol)
    if strict:
        gap = float((lam.lambdas - sw.bounds).min())
        if gap < 10.0 * tol.fd_step:
            raise BoundaryTooClose(
                f"multiplier within {gap:.3e} of its bound; finite differences unreliable")
    if method == "envelope":
        return _envelope_gradient(p, sw, x)
    if method == "fd":
        return _fd_gradient(p, sw, x, _phi(p, x, sw.lam, sw.Pi[0]), tol)
    raise ValueError(f"unknown gradient method {method!r}")


def _reconstruct(p: ProblemData, s: np.ndarray, k: int,
                 tol: Tolerances) -> RiccatiSweep:
    """Sweep at lambda_j = ||G'Pi_{j+1}G|| + eps_boundary + s_j, any s >= 0.

    Its bounds are the ||G'Pi_{j+1}G|| the multipliers were built from.
    """
    sw, rule = _nested_pass(p, np.full(s.size, -np.inf), k, tol,
                            tol.eps_boundary, s)
    return dataclasses.replace(sw, bounds=rule)


def _slack_phi_perturbed(p: ProblemData, s_i: float, i: int,
                         base: RiccatiSweep, x: np.ndarray,
                         tol: Tolerances) -> float:
    """phi with coordinate i of the slack vector replaced by s_i.

    Stages above i are unaffected (the pass runs backward), so the pass
    starts at stage i from the base sweep's Pi_{i+1}, and the slacks below
    i are read back from the base as lambda - bound - eps_boundary.
    """
    k = base.stage_offset
    slack = np.append(base.lam.lambdas[:i] - base.bounds[:i] - tol.eps_boundary, s_i)
    sw, _ = _nested_pass(p, np.full(i + 1, -np.inf), k, tol, tol.eps_boundary,
                         slack, S=base.Pi[i + 1])
    tail = float(p.alpha[k + i + 1:] @ base.lam.lambdas[i + 1:])
    for idx in range(i, -1, -1):
        tail += float(p.alpha[k + idx]) * sw.lam.lambdas[idx]
    return (float(x @ sw.Pi[0] @ x) + tail) / (2.0 * p.schedule().alpha_bar)


def _slack_fd_gradient(p: ProblemData, s: np.ndarray, base: RiccatiSweep,
                       x: np.ndarray, phi0: float, tol: Tolerances) -> np.ndarray:
    g = np.zeros(s.size)
    for i in range(s.size):
        h = max(tol.fd_step, tol.fd_step * abs(s[i]))
        phi_up = _slack_phi_perturbed(p, s[i] + h, i, base, x, tol)
        if s[i] >= h:
            phi_dn = _slack_phi_perturbed(p, s[i] - h, i, base, x, tol)
            g[i] = (phi_up - phi_dn) / (2.0 * h)
        else:
            g[i] = (phi_up - phi0) / h
    return g


def _bb_step(s_prev, s_cur, g_prev, g_cur, fallback: float) -> float:
    ds = s_cur - s_prev
    dg = g_cur - g_prev
    denom = float(ds @ dg)
    if denom <= 0.0:
        return fallback
    t = float(ds @ ds) / denom
    return float(np.clip(t, 1e-12, 1e12))


def _pg_norm(g: np.ndarray, free: np.ndarray) -> float:
    return float(np.linalg.norm(np.where(free, g, np.minimum(g, 0.0))))


def _descend(p: ProblemData, x: np.ndarray, z: np.ndarray, sw: RiccatiSweep,
             project, grad, free, stall_rtol: float, iterations: int,
             max_iter: int):
    """Projected gradient from the feasible point z with sweep sw.

    project(v) returns the feasible point for v and its sweep; grad(z, sw,
    phi) the gradient of phi at z; free(z, sw) the coordinates off their
    bounds, where the projected gradient keeps both signs. Converged when
    the projected-gradient norm falls to 1e-8 (1 + |phi|), or, once no step
    is accepted, to stall_rtol (1 + |phi|). Returns (z, sw, phi,
    projected-gradient norm, iterations, converged).
    """
    phi = _phi(p, x, sw.lam, sw.Pi[0])
    g = grad(z, sw, phi)
    t = 1.0
    z_prev = g_prev = None
    converged = False
    while iterations < max_iter:
        pgn = _pg_norm(g, free(z, sw))
        if pgn <= 1e-8 * (1.0 + abs(phi)):
            converged = True
            break
        if z_prev is not None:
            t = _bb_step(z_prev, z, g_prev, g, t)
        accepted = False
        tt = t
        for _ in range(_MAX_BACKTRACKS):
            cand, sw_c = project(z - tt * g)
            step = cand - z
            if float(np.abs(step).max()) == 0.0:
                break
            phi_c = _phi(p, x, sw_c.lam, sw_c.Pi[0])
            if phi_c <= phi + _ARMIJO_C * float(g @ step):
                z_prev, g_prev = z, g
                z, phi, sw = cand, phi_c, sw_c
                g = grad(z, sw, phi)
                accepted = True
                iterations += 1
                break
            tt *= _ARMIJO_SHRINK
        if not accepted:
            converged = pgn <= stall_rtol * (1.0 + abs(phi))
            break
    return z, sw, phi, _pg_norm(g, free(z, sw)), iterations, converged


def solve_multipliers(p: ProblemData, x, k: int = 0, init=None,
                      tol: Tolerances | None = None,
                      gradient_mode: str = "auto",
                      max_iter: int = 5000) -> MultiplierSolution:
    """Minimize phi over the nested feasible set for the stage-k tail.

    gradient_mode "auto" compares the envelope gradient against finite
    differences at the initial point and keeps the envelope form only
    when they agree to 1e-4 relative. At x = 0 the objective is minimized
    at the projected lower corner; that solution is returned directly.
    """
    tol = tol or Tolerances()
    x = np.asarray(x, dtype=float).ravel()
    if x.size != p.n:
        raise ValueError(f"state has size {x.size}, expected {p.n}")
    if not 0 <= k < p.N:
        raise ValueError(f"stage {k} outside horizon {p.N}")
    n_stage = p.N - k

    def project(v):
        sw, _ = _nested_pass(p, v, k, tol, tol.eps_boundary)
        return sw.lam.lambdas, sw

    if float(x @ x) == 0.0:
        _, sw = project(np.zeros(n_stage))
        return MultiplierSolution(
            lam_star=sw.lam, value=_phi(p, x, sw.lam, sw.Pi[0]), grad_norm=0.0,
            boundary_flags=np.ones(n_stage, dtype=bool), iterations=0,
            converged=True, gradient_mode="corner")

    if init is None:
        corner = project_feasible(p, np.zeros(n_stage), stage_offset=k, tol=tol)
        lam, sw = project(corner.lambdas + 1.0)
    else:
        init = np.asarray(init, dtype=float).ravel()
        if init.size != n_stage:
            raise ValueError(f"init has size {init.size}, expected {n_stage}")
        lam, sw = project(init)

    mode = gradient_mode
    if gradient_mode == "auto":
        g_env = _envelope_gradient(p, sw, x)
        g_fd = _fd_gradient(p, sw, x, _phi(p, x, sw.lam, sw.Pi[0]), tol)
        scale = float(np.linalg.norm(g_fd))
        mode = "envelope" if float(np.linalg.norm(g_env - g_fd)) <= _GATE_RTOL * (1.0 + scale) else "fd"
    elif gradient_mode not in ("envelope", "fd"):
        raise ValueError(f"unknown gradient mode {gradient_mode!r}")

    def grad(lam, sw, phi):
        if mode == "envelope":
            return _envelope_gradient(p, sw, x)
        return _fd_gradient(p, sw, x, phi, tol)

    def free(lam, sw):
        return lam > sw.bounds + 10.0 * tol.eps_boundary

    # Phase one never counts a stalled point as converged: the
    # componentwise projected gradient need not vanish at its optimum.
    lam, sw, phi, grad_norm, iterations, converged = _descend(
        p, x, lam, sw, project, grad, free, 0.0, 0, max_iter)

    # Phase two: verify (and if needed finish) in slack coordinates, where
    # the orthant geometry makes the projected-gradient test exact. An
    # active bound matters only if its level can move with the tail
    # multipliers; the last stage's bound ||G'Pf G|| is constant, so a
    # phase-one optimum pinned there alone needs no refinement.
    active = ~free(lam, sw)
    if (not converged or bool(np.any(active[:-1]))) and iterations < max_iter:
        def project_slack(v):
            s = np.maximum(v, 0.0)
            return s, _reconstruct(p, s, k, tol)

        def slack_grad(s, sw, phi):
            return _slack_fd_gradient(p, s, sw, x, phi, tol)

        s, sw_s = project_slack(lam - sw.bounds - tol.eps_boundary)
        s, sw_s, phi_s, pgn_s, iterations, conv_s = _descend(
            p, x, s, sw_s, project_slack, slack_grad, lambda s, sw: s > 0.0,
            1e-6, iterations, max_iter)
        if phi_s <= phi + 1e-12 * (1.0 + abs(phi)):
            sw, phi, grad_norm, converged = sw_s, phi_s, pgn_s, conv_s

    flags = sw.lam.lambdas <= sw.bounds + max(100.0 * tol.eps_boundary, 1e-7) * (1.0 + np.abs(sw.bounds))
    return MultiplierSolution(lam_star=sw.lam, value=phi, grad_norm=grad_norm,
                              boundary_flags=flags, iterations=iterations,
                              converged=converged, gradient_mode=mode)
