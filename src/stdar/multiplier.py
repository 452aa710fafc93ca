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
free ones the limited-memory quasi-Newton step) on the secular gradient
below, with Armijo backtracking on phi along the projection arc max(s +
t d, 0); a failed line search drops the memory and retries (_descend).
A solve starts from one margin pass, lambda_j = max(init_j, b_j +
EPS_BOUNDARY), and reads its slacks off it as lambda_j - (b_j +
EPS_BOUNDARY), which the pass adds back exactly;
one within lambda_j's rounding is 0. A cold solve is the warm start from
init = -inf: the lower corner s = 0, where most multipliers of an optimum
sit. The loop evaluates no trial whose predicted decrease lies within
phi's rounding, so a warm start at an optimum that met its 1e-8 rule costs
its start pass and one gradient. No separate projection
(riccati.project_feasible) runs. A trial without curvature pairs takes
the one-pole model's step where it holds and moves no other slack by more
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

The descent steps on the secular gradient gh_j = u_j - alpha_{k+j}^-1/2,
u_j = (alpha_{k+j} - 2 alpha_bar dphi/ds_j)^-1/2 = <X_j, J_j'J_j>^-1/2,
which is 1/||wbar_j|| in the envelope: it has g_j's sign and zeros and is
close to affine in s_j (where u_j is not defined, gh_j = dphi/ds_j). At
stage 0 with the tail held, ||wbar|| is the head step's ||(lambda_0 I -
N)^-1 rho||, so where N's top eigenvalue nu dominates, u = (lambda_0 -
nu)/|rho_top|, affine with slope u/(lambda_0 - nu): the one-pole secular
equation (More & Sorensen 1983). Every stage j has that model, with N_j
and nu_j from its own G-block Schur complement (_schur, batched over the
pass's Pi stack), so the direction's initial inverse Hessian is diagonal,
D_j = (lambda_j - nu_j)/u_j where lambda_j > nu_j and u_j is defined
(the model's Newton step on gh_j is -D_j gh_j), once pairs exist
clipped to within _CLIP of their scale, and that scale elsewhere.
Armijo, the projected-gradient norm and the stopping rules read the true
gradient; gh and D are formed only where an iteration is taken, so a
solve that takes none costs no more than its gradient.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import eigpairs, fro_norm
from .problem import ProblemData, _as_point, _integer
from .riccati import (EPS_BOUNDARY, MultiplierVector, RiccatiSweep,
                      _nested_pass, _require_offset, _tail_vector, at_bound,
                      sweep)

__all__ = ["MultiplierSolution", "objective", "solve_multipliers"]

_ARMIJO_C = 1e-4
_ARMIJO_SHRINK = 0.5
_MAX_BACKTRACKS = 60
_MAX_ITER = 5000  # accepted steps a solve may take
_MEMORY = 8  # (ds, dgh) pairs the direction keeps
_ROUNDING = 16.0 * np.finfo(float).eps  # relative rounding of phi and lambda
_CLIP = 10.0  # the model's D is kept within this factor of a pair's scale


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
    step; a stage a pass copies is no step), one adjoint pass per accepted
    point and at the start, and the trial points rejected by the Armijo
    test; a trial within phi's rounding is not evaluated (_descend).
    adjoint_stages counts their stage updates, N - k per gradient.
    iterations counts accepted descent steps, not head steps.
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
    x, k = _as_point(x, p.n, "state"), _integer(k, "stage offset ")
    lam = lam if isinstance(lam, MultiplierVector) else MultiplierVector(lam, k)
    _require_offset(lam, k)
    return _phi(p, x, sweep(p, lam))


def _reconstruct(p: ProblemData, s: np.ndarray, k: int,
                 base: RiccatiSweep | None = None) -> tuple[RiccatiSweep, int, int]:
    """The slack pass: the sweep at lambda_j = ||G'Pi_{j+1}G|| +
    EPS_BOUNDARY + s_j, any s >= 0, its depth and its stage steps; with
    base, a pass of the same program and stage k, it resumes from base."""
    return _nested_pass(p, np.full(s.size, -np.inf), k, EPS_BOUNDARY, s, base)


def _schur(p: ProblemData, Pi_next: np.ndarray) -> np.ndarray:
    """W: the Schur complement of the B block of the bordered matrix H
    (riccati) over its [G A] block, for Pi_next = Pi_{j+1}, or for each
    matrix of a stack of them. Its G block N = W[:q, :q] holds the
    one-pole model's poles, the rest of its first q rows the drive rho =
    W[:q, q:] x (module docstring)."""
    X = p.F.T @ (Pi_next @ (0.5 * p.F))  # H = X + X' + C, as the pass forms it
    H = X + X.swapaxes(-1, -2) + p.C
    m = p.m
    return H[..., m:, m:] - H[..., m:, :m] @ np.linalg.solve(H[..., :m, :m], H[..., :m, m:])


def _head_step(p: ProblemData, x: np.ndarray, s: np.ndarray, sw: RiccatiSweep,
               phi: float):
    """(s, sw, phi, stage steps) after the head step (module docstring)."""
    a, q = float(p.alpha[sw.stage_offset]), p.q
    if s[0] == 0.0 and a >= (Jx := sw.J[0].dot(x)).dot(Jx):  # g_0 >= 0
        return s, sw, phi, 0
    W = _schur(p, sw.Pi[1])
    _, nu, U = eigpairs(W[:q, :q])  # N's eigenpairs
    r2 = U.dot(W[:q, q:].dot(x)) ** 2  # rho^2 in N's eigenbasis
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
    sw, _, steps = _reconstruct(p, s, sw.stage_offset, sw)
    return s, sw, _phi(p, x, sw), steps


def _slack_gradient(p: ProblemData, sw: RiccatiSweep, x: np.ndarray) -> np.ndarray:
    """Exact gradient of phi in the slack coordinates at the sweep sw, by
    the forward adjoint pass of the module docstring."""
    alpha = p.alpha[sw.stage_offset:].tolist()
    X = np.multiply.outer(x, x)
    Acl = p.A - p.F[:, :p.m + p.q] @ sw._gains  # A - [B G][K_j; J_j]
    Gv = sw._eigvecs[:, -1] @ p.G.T  # row j: G v_j, the pass's top eigenvector
    GG = Gv[:, :, None] * Gv[:, None, :]
    JJ = (sw.J.transpose(0, 2, 1) @ sw.J).reshape(len(sw), -1)
    g = [alpha[0] - JJ[0].dot(X.ravel())]
    # X_{j+1} from X_j; the last stage's X_{j+1} is not needed
    for A_j, G_j, JJ_j, a_j in zip(Acl, GG, JJ[1:], alpha[1:]):
        X = A_j.dot(X).dot(A_j.T) + g[-1] * G_j
        g.append(a_j - JJ_j.dot(X.ravel()))
    return np.array(g) / (2.0 * p.alpha_bar)


def _secular(p: ProblemData, sw: RiccatiSweep, g: np.ndarray):
    """The secular gradient gh and the one-pole model's scale D at sw, of
    slack gradient g (module docstring); D is 0 where the model fails."""
    a = p.alpha[sw.stage_offset:]
    w2 = a - 2.0 * p.alpha_bar * g  # <X_j, J_j'J_j>, ||wbar_j||^2 in the envelope
    ok = w2 > 0.0  # else u_j is not defined, and gh_j is g_j
    u = np.where(ok, w2, 1.0) ** -0.5
    N = _schur(p, sw.Pi[1:])[:, :p.q, :p.q]
    gap = sw.lambdas - (N[:, 0, 0] if p.q == 1 else np.linalg.eigvalsh(N)[:, -1])
    return np.where(ok, u - a ** -0.5, g), np.where(ok & (gap > 0.0), gap / u, 0.0)


def _pg_norm(g: np.ndarray, s: np.ndarray) -> float:
    return fro_norm(np.where(s > 0.0, g, np.minimum(g, 0.0)))


def _direction(g: np.ndarray, gh: np.ndarray, D: np.ndarray, s: np.ndarray,
               pgn: float, pairs: list) -> np.ndarray:
    """The trial direction, taken at unit length (_descend).

    The eps-active slacks, s_i <= min(1e-3, pgn) with g_i > 0, take -g.
    The free ones take -H gh, H the L-BFGS inverse Hessian of the stored
    (ds, dgh) pairs restricted to them, by the two-loop recursion (Nocedal
    & Wright, Algorithm 7.4) from a diagonal H0: gamma = ds'dgh / dgh'dgh
    of the last pair, or the model's D clipped to [gamma / _CLIP, _CLIP
    gamma] where it holds. A pair whose restricted ds'dgh is not positive
    drops out. With no pair left, H0 = D where the model holds, and every
    other slack takes -g scaled so that it moves none by more than 1; a
    direction along which g does not decrease is replaced by that -g.
    """
    free = ~((s <= min(1e-3, pgn)) & (g > 0.0))
    steep = -g / max(1.0, float(np.abs(np.maximum(s - g, 0.0) - s).max()))
    kept = []
    for ds, dg in pairs:
        ds, dg = ds * free, dg * free
        sy = float(ds @ dg)
        if sy > 0.0:
            kept.append((ds, dg, sy))
    if not kept:
        return np.where(free & (D > 0.0), -D * gh, steep)
    r, a = gh * free, []
    for ds, dg, sy in reversed(kept):
        a.append(float(ds @ r) / sy)
        r -= a[-1] * dg
    gamma = kept[-1][2] / float(kept[-1][1] @ kept[-1][1])
    r *= np.where(D > 0.0, np.clip(D, gamma / _CLIP, _CLIP * gamma), gamma)
    for (ds, dg, sy), a_i in zip(kept, reversed(a)):
        r += (a_i - float(dg @ r) / sy) * ds
    d = -np.where(free, r, g)
    return d if float(g @ d) < 0.0 else steep


def _descend(p: ProblemData, x: np.ndarray, s: np.ndarray, sw: RiccatiSweep,
             start_steps: int) -> MultiplierSolution:
    """Two-metric projected L-BFGS over the slack orthant (Bertsekas 1982;
    Byrd, Lu, Nocedal & Zhu 1995) from s >= 0 with sweep sw, the solve's
    start pass of start_steps stage steps, on the secular gradient
    (module docstring).

    Each iteration backtracks by Armijo on phi from the direction of
    _direction along the projection arc max(s + t d, 0), t = 1, 1/2, ....
    An iteration's point forms its gh and D, and stores the (ds, dgh) from
    the previous one where ds'dgh > 0, the last _MEMORY of them. Where the
    head step moved s_0 at that point, the pair takes 0 in component 0 of
    both: that move is an exact line minimum in s_0, not a step along d,
    and with g_0 about 0 after it a large ds_0 over a small dgh_0 would
    set the direction's scale in s_0 for every later iteration. A trial
    whose predicted decrease -g.step is at most phi's rounding, _ROUNDING
    |phi|, would be tested on noise: the line search ends there,
    unevaluated, as backtracking only shrinks it. Converged when the
    projected-gradient norm of g falls to 1e-8 (1 + |phi|), or, once a line
    search fails, to 1e-6 (1 + |phi|). A failed search short of that with
    stored pairs drops them and retries; without pairs it ends.
    """
    size = len(sw)
    s, sw, phi, stage_steps = _head_step(p, x, s, sw, _phi(p, x, sw))
    stage_steps += start_steps
    g = _slack_gradient(p, sw, x)
    gradient_evals, backtracks, gh, last = 1, 0, None, None
    pgn = _pg_norm(g, s)
    pairs, converged, iterations = [], False, 0
    while iterations < _MAX_ITER:
        if pgn <= 1e-8 * (1.0 + abs(phi)):
            converged = True
            break
        if gh is None:  # formed only where an iteration is taken
            gh, D = _secular(p, sw, g)
            if last is not None:
                ds, dg = s - last[0], gh - last[1]
                if last[2]:  # the head step's move is no curvature of d
                    ds[0] = dg[0] = 0.0
                if float(ds @ dg) > 0.0:  # curvature along the last step
                    pairs = pairs[1 - _MEMORY:] + [(ds, dg)]
        d, tt = _direction(g, gh, D, s, pgn, pairs), 1.0
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            cand = np.maximum(s + tt * d, 0.0)
            step = cand - s
            decrease = -float(g @ step)  # predicted
            if not decrease > _ROUNDING * abs(phi):
                break  # the predicted decrease is lost in phi's rounding
            sw_c, _, steps = _reconstruct(p, cand, sw.stage_offset, sw)
            stage_steps += steps
            phi_c = _phi(p, x, sw_c)
            if phi_c <= phi - _ARMIJO_C * decrease:
                cand, sw, phi, steps = _head_step(p, x, cand, sw_c, phi_c)
                stage_steps += steps
                g = _slack_gradient(p, sw, x)
                gradient_evals += 1
                last, s, gh = (s, gh, sw is not sw_c), cand, None
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
        adjoint_stages=gradient_evals * size, backtracks=backtracks)


def solve_multipliers(p: ProblemData, x, k: int = 0, init=None,
                      gradient_mode: str = "auto") -> MultiplierSolution:
    """Minimize phi over the nested feasible set for the stage-k tail.

    The descent loop (_descend) runs in the slack coordinates of the
    module docstring from one margin pass over init (raw multipliers, or
    a MultiplierVector that starts at stage k; a non-finite one raises
    InfeasibleMultiplier; None is -inf, the lower corner), driven by the
    exact adjoint gradient. Every state, x = 0 included, takes this one
    path. gradient_mode accepts "auto" and "envelope", which both select
    it, and the solution reports "envelope". grad_norm is the
    projected-gradient norm in the slacks. lam_star is the solve's last
    pass, the sweep at the optimal multipliers. A state of the wrong size
    or not finite raises ValueError."""
    x, k = _as_point(x, p.n, "state"), _integer(k, "stage offset ")
    init = _tail_vector(p, init, k)  # None: the warm start from the lower corner
    if gradient_mode not in ("auto", "envelope"):
        raise ValueError(f"unknown gradient mode {gradient_mode!r}")
    sw, _, steps = _nested_pass(p, init, k, EPS_BOUNDARY)
    s = sw.lambdas - (sw.bounds + EPS_BOUNDARY)  # as the pass adds it
    s[s <= _ROUNDING * np.abs(sw.lambdas)] = 0.0
    return _descend(p, x, s, sw, steps)
