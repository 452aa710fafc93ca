"""Convex program over the stage multipliers.

phi(lambda) = (x'Pi_k(lambda)x + sum_j alpha_j lambda_j) / (2 alpha_bar)
is minimized over the nested feasible set lambda_j >= ||G'Pi_{j+1}G||.
The denominator alpha_bar is always the full-horizon budget, also for
tail programs starting at k > 0.

An active bound's level moves with the tail multipliers, so in the
multipliers themselves the componentwise projected gradient need not
vanish at a constrained optimum. The solver therefore works in the slack
coordinates s_j = lambda_j - b_j - EPS_BOUNDARY >= 0, where one nested
backward pass of riccati (raw = -inf) sets lambda_j = b_j + EPS_BOUNDARY
+ s_j stage by stage from b_j = ||G'Pi_{j+1}G|| under the multipliers
already set. There the feasible set is the nonnegative orthant, box
projection is exact and the projected gradient vanishes at the optimum.
One descent loop runs in these coordinates from the start: a two-metric
projected L-BFGS direction (Bertsekas's eps-active slacks take -g, the
free ones the limited-memory quasi-Newton step) with Armijo backtracking
along the projection arc max(s + t d, 0); a failed line search drops the
memory and retries from -g (_descend). A solve starts from one margin
pass, lambda_j = max(init_j, b_j + EPS_BOUNDARY), and reads its slacks off
it as lambda_j - (b_j + EPS_BOUNDARY), which the pass adds back exactly;
one within lambda_j's rounding is 0. A cold solve is the warm start from
init = -inf: the lower corner s = 0, where most multipliers of an optimum
sit. The loop evaluates no trial whose predicted decrease lies within
phi's rounding, so a warm start at an optimum that met its 1e-8 rule costs
its start pass and one gradient. No separate projection
(riccati.project_feasible) runs. The first trial moves no slack by more
than 1: at the corner an interior stage's gradient can be in the hundreds.

The head multiplier is solved exactly (_head_step) after the start pass
and each accepted trial, before that point's gradient. With the tail
held, phi is convex in lambda_0, with slope (alpha_k - ||wbar||^2) /
(2 alpha_bar), wbar = (lambda_0 I - N)^-1 rho, N and rho the Schur
complement and drive of the G block of stage 0's bordered matrix. The
minimum is at the bound where ||wbar||^2 <= alpha_k, else at the root of
1/||wbar|| = 1/sqrt(alpha_k), which Newton steps reach rising from the
bound (More & Sorensen 1983; one at q = 1). It moves s_0 alone, one stage
step, and is skipped where s_0 = 0 and g_0 >= 0 (one dot) or its
decrease is within phi's rounding.

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
G'Pi_{j+1}G, which the nested pass stores with the bound (v_j = 1 for
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

The recurrence is affine, [vec X_{j+1}; 1] = T_j [vec X_j; 1] with
T_j = [[Acl_j (x) Acl_j - vec(GG_j) vec(J_j'J_j)', alpha_{k+j} vec(GG_j)];
[0, 1]], GG_j = (G v_j)(G v_j)'. So on stages t.. that a pass repeats
from an earlier one, g_j = alpha_{k+j} - L_j [vec X_t; 1] with the tail
map L_j = [vec J_j'J_j; 0]' T_{j-1}...T_t. An accepted trial pass steps
only stages below its depth t, so the descent builds L at the first
accepted step's depth and again only when a step reaches deeper; then a
gradient loops over t head stages (bit for bit the loop) and multiplies
by L once. The start pass's gradient, and any without a map, is the loop;
n > 4 builds no map and a fast-growing tail's map is unused (_MAP_*).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import fro_norm
from .problem import ProblemData, _as_point
from .riccati import (EPS_BOUNDARY, MultiplierVector, RiccatiSweep, _bordered,
                      _nested_pass, _require_offset, _tail_vector, at_bound,
                      sweep)

__all__ = ["MultiplierSolution", "objective", "solve_multipliers"]

_ARMIJO_C = 1e-4
_ARMIJO_SHRINK = 0.5
_MAX_BACKTRACKS = 60
_MAX_ITER = 5000  # accepted steps a solve may take
_MEMORY = 8  # (ds, dg) pairs the direction keeps
_ROUNDING = 16.0 * np.finfo(float).eps  # relative rounding of phi and lambda
# A tail map stage is an (n^2+1)^3 product: at n <= 4 it costs about one
# loop stage, at n = 8 twenty and at n = 16 two hundred, so larger n keep
# the loop. A map is not used where the Acl (x) Acl block of its composed
# products passes _MAP_GROWTH: its rounding outgrows the loop's with that
# block (at 1e2 it lost 3e-12 of the gradient, the loop 5e-14).
_MAP_MAX_N = 4
_MAP_GROWTH = 1e1


@dataclass(frozen=True)
class MultiplierSolution:
    """Optimal multipliers of a stage-k tail program.

    lam_star is the pass the solve ended on, a RiccatiSweep that sweep(p,
    lam_star) hands back: its K[0] gives the control and its Pi[1] and
    bounds[0] the worst-case disturbance, with no second pass.
    stage_steps, gradient_evals and backtracks count the solve's work:
    the stage steps actually taken (the start pass's, then those of each
    trial pass, which resumes from the current sweep and steps only the
    stages from the last multiplier it changes down, and of each head
    step), one adjoint pass per accepted point and at the start, and the
    trial points rejected by the Armijo test; a trial within phi's
    rounding is not evaluated (_descend).
    adjoint_stages counts their stage updates (N - k, or t with a tail map
    of depth t) plus the N - k - t stages of each tail map built; a map
    stage costs about one stage update at the n <= 4 where maps are built.
    iterations counts accepted L-BFGS or projected-gradient steps, not head steps.
    """

    lam_star: RiccatiSweep
    value: float
    grad_norm: float              # final projected-gradient norm in the slacks
    boundary_flags: np.ndarray    # stage multiplier at its nested bound
    iterations: int
    converged: bool
    stage_steps: int
    gradient_evals: int
    adjoint_stages: int
    backtracks: int
    gradient_mode = "envelope"  # the one mode; a class attribute, not a field


def _phi(p: ProblemData, x: np.ndarray, sw: RiccatiSweep) -> float:
    tail = float(p.alpha[sw.stage_offset:] @ sw.lambdas)
    return (float(x @ sw.Pi[0] @ x) + tail) / (2.0 * p.alpha_bar)


def objective(p: ProblemData, lam, x, k: int = 0) -> float:
    """phi at a feasible multiplier vector for the tail program at stage k.
    A state of the wrong size or not finite, or a MultiplierVector that
    does not start at stage k, raises ValueError."""
    x = _as_point(x, p.n, "state")
    lam = lam if isinstance(lam, MultiplierVector) else MultiplierVector(lam, k)
    _require_offset(lam, k)
    return _phi(p, x, sweep(p, lam))


def _reconstruct(p: ProblemData, s: np.ndarray, k: int,
                 base: RiccatiSweep | None = None) -> tuple[RiccatiSweep, int]:
    """The slack pass: the sweep at lambda_j = ||G'Pi_{j+1}G|| +
    EPS_BOUNDARY + s_j, any s >= 0, and its stage steps; with base, a
    pass of the same program and stage k, it resumes from base."""
    return _nested_pass(p, np.full(s.size, -np.inf), k, EPS_BOUNDARY, s, base)


def _head_step(p: ProblemData, x: np.ndarray, s: np.ndarray, sw: RiccatiSweep,
               phi: float):
    """(s, sw, phi, stage steps) after the head step (module docstring)."""
    a, m, q = float(p.alpha[sw.stage_offset]), p.m, p.q
    if s[0] == 0.0 and a >= (Jx := sw.J[0].dot(x)).dot(Jx):  # g_0 >= 0
        return s, sw, phi, 0
    H = _bordered(p.F.T, 0.5 * p.F, p.C, sw.Pi[1], np.empty(p.C.shape))
    W = H[m:, m:] - H[m:, :m].dot(np.linalg.solve(H[:m, :m], H[:m, m:]))
    nu, V = np.linalg.eigh(W[:q, :q])  # W[:q, :q] = N
    r2 = V.T.dot(W[:q, q:].dot(x)) ** 2  # rho^2 in N's eigenbasis
    t = lo = float(sw.bounds[0]) + EPS_BOUNDARY  # lambda_0 at s_0 = 0
    if not (lo - nu).min() > 0.0:
        return s, sw, phi, 0
    u2 = r2.dot((t - nu) ** -2.0)  # ||wbar(t)||^2
    while u2 > a:  # Newton on 1/||wbar|| = 1/sqrt(a), rising from lo
        t_new = t + (np.sqrt(u2 / a) - 1.0) * u2 / r2.dot((t - nu) ** -3.0)
        if not t_new > t:
            break
        t, u2 = t_new, r2.dot((t_new - nu) ** -2.0)
    tc = float(sw.lambdas[0])
    decrease = (t - tc) * (r2.dot(1.0 / ((tc - nu) * (t - nu))) - a)  # times 2 abar
    if not decrease > 2.0 * p.alpha_bar * _ROUNDING * abs(phi):
        return s, sw, phi, 0
    s = np.concatenate(([t - lo], s[1:]))
    sw, steps = _reconstruct(p, s, sw.stage_offset, sw)
    return s, sw, _phi(p, x, sw), steps


def _adjoint_terms(p: ProblemData, sw: RiccatiSweep, lo: int, hi: int):
    """Acl_j, (G v_j)(G v_j)' and J_j'J_j (flattened) of stages lo..hi-1
    of sw, each from one batched product."""
    Acl = p.A - p.F[:, :p.m + p.q] @ sw._gains[lo:hi]  # A - [B G][K_j; J_j]
    J = sw.J[lo:hi]
    Gv = sw._eigvecs[lo:hi, -1] @ p.G.T  # row j: G v_j, the pass's top eigenvector
    return (Acl, Gv[:, :, None] * Gv[:, None, :],
            (J.transpose(0, 2, 1) @ J).reshape(hi - lo, -1))


def _slack_gradient(p: ProblemData, sw: RiccatiSweep, x: np.ndarray, tail=None) -> np.ndarray:
    """Exact gradient of phi in the slack coordinates at the sweep sw, by
    the forward adjoint pass of the module docstring; with the tail map
    (t, L) of a pass that sw repeats from stage t, the loop stops at X_t."""
    k = sw.stage_offset
    t, L = (len(sw), None) if tail is None or tail[1] is None else tail
    alpha = p.alpha[k:k + t].tolist()
    X = np.multiply.outer(x, x)
    Acl, GG, JJ = _adjoint_terms(p, sw, 0, t)
    g = [alpha[0] - JJ[0].dot(X.ravel())]
    # X_{j+1} from X_j; the last stage's X_{j+1} is not needed
    for A_j, G_j, JJ_j, a_j in zip(Acl, GG, JJ[1:], alpha[1:]):
        X = A_j.dot(X).dot(A_j.T) + g[-1] * G_j
        g.append(a_j - JJ_j.dot(X.ravel()))
    if L is not None:
        X = Acl[-1].dot(X).dot(Acl[-1].T) + g[-1] * GG[-1]
        g.extend(p.alpha[k + t:] - L @ np.append(X.ravel(), 1.0))
    return np.array(g) / (2.0 * p.alpha_bar)


def _tail_map(p: ProblemData, sw: RiccatiSweep, t: int):
    """The tail map (t, L) over stages t.. of sw, None unless 0 < t < N - k.
    L is None, and a gradient the loop, where an entry of the Acl (x) Acl
    block of a composed product T_{j-1}...T_t passes _MAP_GROWTH."""
    size, nn = len(sw), p.n * p.n
    if not 0 < t < size:
        return None
    S, (Acl, GG, JJ) = size - t, _adjoint_terms(p, sw, t, size)
    T = np.zeros((S, nn + 1, nn + 1))
    T[:, :nn, :nn] = ((Acl[:, :, None, :, None] * Acl[:, None, :, None, :])
                      .reshape(S, nn, nn) - GG.reshape(S, nn, 1) * JJ[:, None, :])
    T[:, :nn, nn] = p.alpha[sw.stage_offset + t:, None] * GG.reshape(S, nn)
    T[:, nn, nn] = 1.0
    P = np.broadcast_to(np.eye(nn + 1), T.shape).copy()  # P[0] = I
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for i in range(S - 1):
            np.matmul(T[i], P[i], out=P[i + 1])
    if not np.abs(P[:, :nn, :nn]).max() <= _MAP_GROWTH:  # also where it overflowed
        return t, None
    return t, (JJ[:, None, :] @ P[:, :nn])[:, 0]


def _pg_norm(g: np.ndarray, s: np.ndarray) -> float:
    return fro_norm(np.where(s > 0.0, g, np.minimum(g, 0.0)))


def _direction(g: np.ndarray, s: np.ndarray, pgn: float,
               pairs: list) -> tuple[np.ndarray, float]:
    """The trial direction and its first step length (_descend).

    The eps-active slacks, s_i <= min(1e-3, pgn) with g_i > 0, take -g.
    The free ones take -H g, H the L-BFGS inverse Hessian of the stored
    (ds, dg) pairs restricted to them, by the two-loop recursion (Nocedal
    & Wright, Algorithm 7.4) scaled by ds'dg / dg'dg of the last pair; a
    pair whose restricted ds'dg is not positive drops out. Unit length;
    with no pair left, -g at the first-step length.
    """
    if pairs:
        free = ~((s <= min(1e-3, pgn)) & (g > 0.0))
        kept = []
        for ds, dg in pairs:
            ds, dg = ds * free, dg * free
            sy = float(ds @ dg)
            if sy > 0.0:
                kept.append((ds, dg, sy))
        if kept:
            r, a = g * free, []
            for ds, dg, sy in reversed(kept):
                a.append(float(ds @ r) / sy)
                r -= a[-1] * dg
            r *= kept[-1][2] / float(kept[-1][1] @ kept[-1][1])
            for (ds, dg, sy), a_i in zip(kept, reversed(a)):
                r += (a_i - float(dg @ r) / sy) * ds
            return -np.where(free, r, g), 1.0
    return -g, 1.0 / max(1.0, float(np.abs(np.maximum(s - g, 0.0) - s).max()))


def _descend(p: ProblemData, x: np.ndarray, s: np.ndarray, sw: RiccatiSweep,
             start_steps: int) -> MultiplierSolution:
    """Two-metric projected L-BFGS over the slack orthant (Bertsekas 1982;
    Byrd, Lu, Nocedal & Zhu 1995) from s >= 0 with sweep sw, the solve's
    start pass of start_steps stage steps.

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
    size = adjoint_stages = len(sw)
    s, sw, phi, stage_steps = _head_step(p, x, s, sw, _phi(p, x, sw))
    stage_steps += start_steps
    g = _slack_gradient(p, sw, x)
    gradient_evals, backtracks, tail = 1, 0, None  # tail: _tail_map of sw's last stages
    pgn = _pg_norm(g, s)
    pairs, converged, iterations = [], False, 0
    while iterations < _MAX_ITER:
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
            sw_c, steps = _reconstruct(p, cand, sw.stage_offset, sw)
            stage_steps += steps
            phi_c = _phi(p, x, sw_c)
            if phi_c <= phi - _ARMIJO_C * decrease:
                if p.n <= _MAP_MAX_N and (tail is None or steps > tail[0]):
                    tail = _tail_map(p, sw_c, steps)  # the pass stepped into it
                    adjoint_stages += size - tail[0] if tail else 0
                cand, sw_c, phi_c, steps = _head_step(p, x, cand, sw_c, phi_c)
                stage_steps += steps
                g_c = _slack_gradient(p, sw_c, x, tail)
                adjoint_stages += size if tail is None or tail[1] is None else tail[0]
                gradient_evals += 1
                step, dg = cand - s, g_c - g
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
        lam_star=sw, value=phi, grad_norm=pgn,
        boundary_flags=at_bound(sw.lambdas, sw.bounds),
        iterations=iterations, converged=converged,
        stage_steps=stage_steps, gradient_evals=gradient_evals,
        adjoint_stages=adjoint_stages, backtracks=backtracks)


def solve_multipliers(p: ProblemData, x, k: int = 0, init=None,
                      gradient_mode: str = "auto") -> MultiplierSolution:
    """Minimize phi over the nested feasible set for the stage-k tail.

    The descent loop (_descend) runs in the slack coordinates of the
    module docstring from one margin pass over init (raw multipliers; a
    non-finite one raises InfeasibleMultiplier; None is -inf, the lower
    corner), driven by the exact adjoint gradient.
    Every state, x = 0 included, takes this one path. gradient_mode
    accepts "auto" and "envelope", which both select it, and the solution
    reports "envelope". grad_norm is the projected-gradient norm in the
    slacks. lam_star is the solve's last pass, the sweep at the optimal
    multipliers. A state of the wrong size or not finite raises ValueError.
    """
    x = _as_point(x, p.n, "state")
    init = _tail_vector(p, init, k)  # None: the warm start from the lower corner
    if gradient_mode not in ("auto", "envelope"):
        raise ValueError(f"unknown gradient mode {gradient_mode!r}")
    sw, steps = _nested_pass(p, init, k, EPS_BOUNDARY)
    s = sw.lambdas - (sw.bounds + EPS_BOUNDARY)  # as the pass adds it
    s[s <= _ROUNDING * np.abs(sw.lambdas)] = 0.0
    return _descend(p, x, s, sw, steps)
