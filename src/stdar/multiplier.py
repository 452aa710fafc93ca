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
One descent loop runs in these coordinates from the start: a two-metric
projected L-BFGS direction (Bertsekas's eps-active slacks take -g, the
free ones the limited-memory quasi-Newton step) with Armijo backtracking
along the projection arc max(s + t d, 0); a failed line search drops the
memory and retries from -g (_descend). A cold solve starts at the
lower corner s = 0, where most multipliers of an optimum sit, built in
that same pass; a warm one projects its init in one margin pass and
reads its slacks off it, one within lambda_j's rounding as 0 (at a bound
lambda_j - b_j - eps_boundary is rounding noise). The loop evaluates no
trial whose predicted decrease lies within phi's rounding, so a warm
start at an optimum that met its 1e-8 rule costs its start pass and one
gradient. No separate projection (riccati.project_feasible) runs on the
way. The first trial moves no slack by more than 1: at the corner an
interior stage's gradient can be in the hundreds.

A trial pass is the slack pass at the trial point with the sweep of
the current point as its base; the pass itself decides which stages it
repeats (riccati's module docstring) and steps only from the last stage
whose multiplier differs down. With most multipliers at their bounds a
step changes only the first few slacks, so a trial pass steps a few
stages, not N - k, and equals a full pass bit for bit. Any pass is a
base, a warm start's pass built from raw multipliers included.

Its gradient is exact: the reverse mode of the nested pass, one forward
adjoint pass over the sweep. From X_0 = x x',

    g_j       = alpha_{k+j} - <X_j, J_j'J_j>,
    dphi/ds_j = g_j / (2 alpha_bar),
    X_{j+1}   = Acl_j X_j Acl_j' + g_j (G v_j)(G v_j)',

with Acl_j = A - BK_j - GJ_j and v_j a unit top eigenvector of
G'Pi_{j+1}G, which the nested pass took with the bound (v_j = 1 for
q = 1), so the adjoint pass forms no G'Pi G and takes no eigh. Every
Acl_j and J_j'J_j comes from one batched product over the [K_j; J_j]
the pass keeps stacked. X_j is
2 alpha_bar dphi/dPi_j and g_j is 2 alpha_bar dphi/dlambda_j with
Pi_{j+1} held; the second term of X_{j+1} carries lambda_j's dependence
on Pi_{j+1} through its bound. Where that
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

from ._linalg import fro_norm
from .problem import _DEFAULT_TOL, ProblemData, Tolerances, _as_point
# project_feasible stays bound here, the name benchmark/tracing.py wraps
# as riccati.project: no solve calls it, so that span counts 0, and a
# projection pass put back on the solve path through it would be counted.
from .riccati import (MultiplierVector, RiccatiSweep, _nested_pass,
                      _require_finite, at_bound, project_feasible, sweep)

__all__ = ["MultiplierSolution", "objective", "solve_multipliers"]

_ARMIJO_C = 1e-4
_ARMIJO_SHRINK = 0.5
_MAX_BACKTRACKS = 60
_MEMORY = 8  # (ds, dg) pairs the direction keeps
_ROUNDING = 16.0 * np.finfo(float).eps  # relative rounding of phi and lambda


@dataclass(frozen=True)
class MultiplierSolution:
    """Optimal multipliers of a stage-k tail program.

    sweep is the backward sweep at lam_star that the solve ended on, equal
    bit for bit to sweep(p, lam_star): its K[0] gives the control and its
    Pi[1] and bounds[0] the worst-case disturbance, with no second sweep.
    stage_steps, gradient_evals and backtracks count the solve's work:
    the stage steps actually taken (N - k in the start pass, then those of
    each trial pass, which resumes from the current sweep and steps only
    the stages from the last multiplier it changes down), one adjoint pass per
    accepted point and at the start, and the trial points rejected by the
    Armijo test; a trial within phi's rounding is not evaluated (_descend).
    iterations counts accepted steps, L-BFGS or projected-gradient ones.
    """

    lam_star: MultiplierVector
    value: float
    grad_norm: float              # final projected-gradient norm in the slacks
    boundary_flags: np.ndarray    # stage multiplier at its nested bound
    iterations: int
    converged: bool
    sweep: RiccatiSweep
    stage_steps: int
    gradient_evals: int
    backtracks: int
    gradient_mode: str = "envelope"  # the one mode; kept for callers that read it


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
    """phi at a feasible multiplier vector for the tail program at stage k.
    A state of the wrong size or not finite raises ValueError."""
    tol = tol or _DEFAULT_TOL
    x = _as_point(x, p.n, "state")
    sw = sweep(p, _wrap(p, lam, k), tol)
    return _phi(p, x, sw.lam, sw.Pi[0])


def _reconstruct(p: ProblemData, s: np.ndarray, k: int, tol: Tolerances,
                 base: RiccatiSweep | None = None) -> tuple[RiccatiSweep, int]:
    """The slack pass: the sweep at lambda_j = ||G'Pi_{j+1}G|| +
    eps_boundary + s_j, any s >= 0, and its stage steps; with base, a
    pass of the same program and stage k, it resumes from base."""
    return _nested_pass(p, np.full(s.size, -np.inf), k, tol, tol.eps_boundary,
                        s, base)


def _slack_gradient(p: ProblemData, sw: RiccatiSweep, x: np.ndarray) -> np.ndarray:
    """Exact gradient of phi in the slack coordinates at the sweep sw, by
    the forward adjoint pass of the module docstring."""
    alpha = p.alpha[sw.stage_offset:].tolist()
    X = np.multiply.outer(x, x)
    Acl = p.A - p.W @ sw._gains
    JJ = (sw.J.transpose(0, 2, 1) @ sw.J).reshape(len(alpha), -1)
    Gv = sw._tops @ p.G.T                # row j: G v_j, the pass's eigenvector
    GG = Gv[:, :, None] * Gv[:, None, :]  # (G v_j)(G v_j)' of every stage
    g = [alpha[0] - JJ[0].dot(X.ravel())]
    # X_{j+1} from X_j; the last stage's X_{j+1} is not needed
    for A_j, G_j, JJ_j, a_j in zip(Acl, GG, JJ[1:], alpha[1:]):
        X = A_j.dot(X).dot(A_j.T) + g[-1] * G_j
        g.append(a_j - JJ_j.dot(X.ravel()))
    return np.array(g) / (2.0 * p.alpha_bar)


def _pg_norm(g: np.ndarray, s: np.ndarray) -> float:
    return fro_norm(np.where(s > 0.0, g, np.minimum(g, 0.0)))


def _direction(g: np.ndarray, s: np.ndarray, pgn: float,
               pairs: list) -> tuple[np.ndarray, float]:
    """The trial direction and its first step length (_descend).

    The eps-active slacks, s_i <= min(1e-3, pgn) with g_i > 0, take -g.
    The free ones take -H g, H the L-BFGS inverse Hessian of the stored
    (ds, dg) pairs restricted to them, scaled by ds'dg / dg'dg of the last
    pair; a pair whose restricted ds'dg is not positive drops out. The
    two-loop recursion runs on the pairs' Gram matrix, so building the
    direction takes a few numpy calls whatever the memory. Unit length;
    with no pair left, -g at the first-step length.
    """
    if pairs:
        m = len(pairs)
        free = ~((s <= min(1e-3, pgn)) & (g > 0.0))
        V = np.array(pairs).transpose(1, 0, 2).reshape(2 * m, -1) * free
        W, Vg = (V @ V.T).tolist(), (V @ g).tolist()  # rows ds_0.., dg_0..
        sy = [W[i][m + i] for i in range(m)]
        kept = [i for i in range(m) if sy[i] > 0.0]
        if kept:
            # both loops on coefficients: H g = gamma (g - sum a_i dg_i)
            # + sum c_i ds_i on the free slacks
            a, c = [0.0] * m, [0.0] * m
            for i in reversed(kept):
                a[i] = (Vg[i] - sum(a[j] * W[i][m + j] for j in kept if j > i)) / sy[i]
            gamma = sy[kept[-1]] / W[m + kept[-1]][m + kept[-1]]
            for i in kept:
                yr = (gamma * (Vg[m + i] - sum(a[j] * W[m + i][m + j] for j in kept))
                      + sum(c[j] * W[m + i][j] for j in kept if j < i))
                c[i] = a[i] - yr / sy[i]
            r = gamma * g + np.array(c + [-gamma * aj for aj in a]) @ V
            return -np.where(free, r, g), 1.0
    return -g, 1.0 / max(1.0, float(np.abs(np.maximum(s - g, 0.0) - s).max()))


def _descend(p: ProblemData, x: np.ndarray, s: np.ndarray, sw: RiccatiSweep,
             tol: Tolerances, max_iter: int) -> MultiplierSolution:
    """Two-metric projected L-BFGS over the slack orthant (Bertsekas 1982;
    Byrd, Lu, Nocedal & Zhu 1995) from s >= 0 with sweep sw, the solve's
    start pass.

    Each iteration backtracks by Armijo from the direction and first step
    of _direction along the projection arc max(s + t d, 0). An accepted
    step stores its (ds, dg) where ds'dg > 0, the last _MEMORY of them. A
    trial whose predicted decrease -g.step is at most phi's rounding,
    _ROUNDING |phi|, would be tested on noise: the line search ends there,
    unevaluated, as backtracking only shrinks it. Converged when the
    projected-gradient norm falls to 1e-8 (1 + |phi|), or, once a line
    search fails, to 1e-6 (1 + |phi|). A failed search short of that with
    stored pairs drops them and retries from -g; without pairs it ends.
    """
    k = sw.stage_offset
    phi = _phi(p, x, sw.lam, sw.Pi[0])
    g = _slack_gradient(p, sw, x)
    stage_steps, gradient_evals, backtracks = sw.horizon(), 1, 0
    pgn = _pg_norm(g, s)
    pairs: list = []
    converged = False
    iterations = 0
    while iterations < max_iter:
        if pgn <= 1e-8 * (1.0 + abs(phi)):
            converged = True
            break
        d, tt = _direction(g, s, pgn, pairs)
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            cand = np.maximum(s + tt * d, 0.0)
            step = cand - s
            decrease = -float(g @ step)  # predicted
            if not decrease > _ROUNDING * abs(phi):
                break  # the predicted decrease is lost in phi's rounding
            sw_c, steps = _reconstruct(p, cand, k, tol, sw)
            stage_steps += steps
            phi_c = _phi(p, x, sw_c.lam, sw_c.Pi[0])
            if phi_c <= phi - _ARMIJO_C * decrease:
                g_c = _slack_gradient(p, sw_c, x)
                gradient_evals += 1
                dg = g_c - g
                if float(step @ dg) > 0.0:  # curvature along the step
                    pairs = pairs[1 - _MEMORY:] + [(step, dg)]
                s, phi, sw, g = cand, phi_c, sw_c, g_c
                pgn = _pg_norm(g, s)
                accepted = True
                iterations += 1
                break
            backtracks += 1
            tt *= _ARMIJO_SHRINK
        if not accepted:
            converged = pgn <= 1e-6 * (1.0 + abs(phi))
            if converged or not pairs:
                break
            pairs = []
    return MultiplierSolution(
        lam_star=sw.lam, value=phi, grad_norm=pgn,
        boundary_flags=at_bound(sw.lam.lambdas, sw.bounds, tol),
        iterations=iterations, converged=converged, sweep=sw,
        stage_steps=stage_steps, gradient_evals=gradient_evals,
        backtracks=backtracks)


def solve_multipliers(p: ProblemData, x, k: int = 0, init=None,
                      tol: Tolerances | None = None,
                      gradient_mode: str = "auto",
                      max_iter: int = 5000) -> MultiplierSolution:
    """Minimize phi over the nested feasible set for the stage-k tail.

    The descent loop (_descend) runs in the slack coordinates of the
    module docstring, from init (raw multipliers, projected onto the
    feasible set; a non-finite one raises InfeasibleMultiplier) or from
    the lower corner, zero slack, driven by the exact adjoint gradient.
    Every state, x = 0 included, takes this one path. gradient_mode
    accepts "auto" and "envelope", which both select it, and the solution
    reports "envelope". grad_norm is the projected-gradient norm in the
    slacks. The solution carries the sweep at lam_star that the solve
    built. A state of the wrong size or not finite raises ValueError.
    """
    tol = tol or _DEFAULT_TOL
    x = _as_point(x, p.n, "state")
    if not 0 <= k < p.N:
        raise ValueError(f"stage {k} outside horizon {p.N}")
    if gradient_mode not in ("auto", "envelope"):
        raise ValueError(f"unknown gradient mode {gradient_mode!r}")
    n_stage = p.N - k
    if init is not None:
        init = np.asarray(init, dtype=float).ravel()
        if init.size != n_stage:
            raise ValueError(f"init has size {init.size}, expected {n_stage}")
        _require_finite(init, k)

    if init is None:
        s = np.zeros(n_stage)
        sw, _ = _reconstruct(p, s, k, tol)
    else:
        sw, _ = _nested_pass(p, init, k, tol, tol.eps_boundary)
        s = sw.lam.lambdas - sw.bounds - tol.eps_boundary
        s[s <= _ROUNDING * np.abs(sw.lam.lambdas)] = 0.0
    return _descend(p, x, s, sw, tol, max_iter)
