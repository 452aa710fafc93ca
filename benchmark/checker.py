"""Independent checks of the benchmark's outputs.

Everything here is written from the problem statement with plain numpy
and scipy; nothing is imported from the package under test, so every
check compares two routes to the same quantity. Each check returns None
when the output passes and a one-line reason when it does not.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg as sla

# Relative tolerances. Where the worst case is attained, the realised
# ratio and the stage-0 program value agree to about 1e-9; 1e-6 leaves
# room for the solver's own stopping rule.
SADDLE_RTOL = 1e-6
VALUE_RTOL = 1e-9
CONTROL_RTOL = 1e-7
SPHERE_RTOL = 1e-9
BOUND_RTOL = 1e-9
# A perturbed feasible multiplier vector may undercut the reported optimum
# by at most this share of (1 + |phi|): the solver stops at a projected
# gradient of 1e-8 (1 + |phi|), far below what a slack step of PERTURB_STEP
# can expose.
OPT_RTOL = 1e-9
PERTURB_STEP = 1e-4
# Perturbed multipliers keep this margin above their bounds, as the
# package's solver does (Tolerances.eps_boundary); with Pf = 0 the last
# bound is 0 and a multiplier of exactly 0 makes the stage matrix singular.
MARGIN = 1e-9
STEADY_RESIDUAL = 1e-7
PSD_TOL = 1e-8
DARE_RTOL = 1e-8


def _top(M: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[-1])


def _step(sys, S: np.ndarray, lam: float):
    """One backward Riccati step from Pi_{j+1} = S at multiplier lam.

    Returns (Pi_j, K_j): the stage-j cost-to-go and the control gain of
    u = -K_j x, from the saddle of the stage quadratic in (u, w).
    """
    A, B, G, Q, R = sys["A"], sys["B"], sys["G"], sys["Q"], sys["R"]
    m, q = B.shape[1], G.shape[1]
    BG = np.hstack([B, G])
    H = BG.T @ S @ BG
    H[:m, :m] += R
    H[m:, m:] -= lam * np.eye(q)
    rhs = BG.T @ S @ A
    KJ = np.linalg.solve(H, rhs)
    Pi = Q + A.T @ S @ A - rhs.T @ KJ
    return 0.5 * (Pi + Pi.T), KJ[:m]


def recursion(sys, lams, x):
    """Backward recursion for the tail multipliers lams (stages k..N-1).

    Returns (phi, bounds, gains): the program value at state x, the nested
    bounds ||G'Pi_{j+1}G|| and the gains K_j, one per stage.
    """
    lams = np.asarray(lams, dtype=float)
    alpha = sys["alpha"]
    k = alpha.size - lams.size
    S = sys["Pf"]
    bounds = np.zeros(lams.size)
    gains = [None] * lams.size
    for i in range(lams.size - 1, -1, -1):
        bounds[i] = _top(sys["G"].T @ S @ sys["G"])
        S, gains[i] = _step(sys, S, float(lams[i]))
    phi = (float(x @ S @ x) + float(alpha[k:] @ lams)) / (2.0 * float(alpha.sum()))
    return phi, bounds, gains


def slack_phi(sys, slack, x):
    """phi at lam_j = ||G'Pi_{j+1}G|| + MARGIN + slack_j (built backward)."""
    alpha = sys["alpha"]
    k = alpha.size - slack.size
    S = sys["Pf"]
    lams = np.zeros(slack.size)
    for i in range(slack.size - 1, -1, -1):
        lams[i] = _top(sys["G"].T @ S @ sys["G"]) + MARGIN + slack[i]
        S, _ = _step(sys, S, float(lams[i]))
    return (float(x @ S @ x) + float(alpha[k:] @ lams)) / (2.0 * float(alpha.sum()))


def _feasibility(lams, bounds):
    gap = lams - bounds + BOUND_RTOL * (1.0 + np.abs(bounds))
    if np.any(gap < 0.0):
        j = int(np.argmin(gap))
        return f"lambda[{j}] = {lams[j]:.12g} below its bound {bounds[j]:.12g}"
    return None


def check_decision(sys, k, x, lams, value, u, w):
    """One online decision at stage k: feasibility, value, u = -K_k x,
    and a disturbance exactly on its stage sphere."""
    phi, bounds, gains = recursion(sys, lams, x)
    why = _feasibility(lams, bounds)
    if why:
        return why
    if abs(value - phi) > VALUE_RTOL * (1.0 + abs(phi)):
        return f"stage {k} value {value:.15g} but recursion gives {phi:.15g}"
    u_ref = -(gains[0] @ x)
    if np.linalg.norm(u - u_ref) > CONTROL_RTOL * (1.0 + np.linalg.norm(u_ref)):
        return f"stage {k} control {u} but -K_k x = {u_ref}"
    a = float(sys["alpha"][k])
    if abs(float(w @ w) - a) > SPHERE_RTOL * a:
        return f"stage {k} ||w||^2 = {float(w @ w):.15g}, bound {a:.15g}"
    return None


def check_episode(sys, x0, lams0, total_cost, w_energy):
    """Saddle property: realised cost over disturbance energy equals the
    stage-0 program value at the stage-0 multipliers."""
    phi0, _, _ = recursion(sys, lams0, x0)
    ratio = total_cost / w_energy
    if abs(ratio - phi0) > SADDLE_RTOL * abs(phi0):
        return f"realised ratio {ratio:.15g} but stage-0 value {phi0:.15g}"
    return None


def check_synthesis(sys, x, lams, value, gains, rng):
    """Cold full-horizon solve: value, feasibility, the returned gain
    schedule, and local (hence, by convexity, global) optimality against
    feasible perturbations in slack coordinates."""
    phi, bounds, ref_gains = recursion(sys, lams, x)
    why = _feasibility(lams, bounds)
    if why:
        return why
    if abs(value - phi) > VALUE_RTOL * (1.0 + abs(phi)):
        return f"value {value:.15g} but recursion gives {phi:.15g}"
    for j, (K, K_ref) in enumerate(zip(gains, ref_gains)):
        if np.linalg.norm(K - K_ref) > CONTROL_RTOL * (1.0 + np.linalg.norm(K_ref)):
            return f"gain K[{j}] differs from the recursion at lambda*"
    slack = np.maximum(lams - bounds - MARGIN, 0.0)
    floor = phi - OPT_RTOL * (1.0 + abs(phi))
    for i in range(slack.size):
        h = PERTURB_STEP * (1.0 + slack[i])
        for step in ((h, -h) if slack[i] >= h else (h,)):
            s = slack.copy()
            s[i] += step
            if slack_phi(sys, s, x) < floor:
                return f"slack step {step:+.1e} at stage {i} lowers phi below {phi:.15g}"
    for _ in range(4):
        d = rng.standard_normal(slack.size) * PERTURB_STEP * (1.0 + slack)
        s = np.maximum(slack + d, 0.0)
        if slack_phi(sys, s, x) < floor:
            return f"random feasible step lowers phi below {phi:.15g}"
    return None


def game_residual(sys, lam, Pi):
    """||Pi - F_lam(Pi)||_F for the stationary game Riccati map."""
    Pn, _ = _step(sys, Pi, lam)
    return float(np.linalg.norm(Pn - Pi))


def check_steady(sys, lam_bar, Pi_bar, P_lqr):
    """Steady state: game-Riccati residual, the boundary constraint,
    Pi_bar above the LQR solution, and the LQR baseline against scipy."""
    bound = _top(sys["G"].T @ Pi_bar @ sys["G"])
    if lam_bar < bound - BOUND_RTOL * (1.0 + bound):
        return f"lambda_bar {lam_bar:.12g} below ||G'Pi_bar G|| = {bound:.12g}"
    scale = 1.0 + float(np.linalg.norm(Pi_bar))
    res = game_residual(sys, lam_bar, Pi_bar)
    if res > STEADY_RESIDUAL * scale:
        return f"game Riccati residual {res:.3e}"
    dare = sla.solve_discrete_are(sys["A"], sys["B"], sys["Q"], sys["R"])
    if np.linalg.norm(P_lqr - dare) > DARE_RTOL * (1.0 + np.linalg.norm(dare)):
        return "lqr_baseline differs from scipy solve_discrete_are"
    gap = np.linalg.eigvalsh(0.5 * (Pi_bar - dare + (Pi_bar - dare).T))[0]
    if gap < -PSD_TOL * scale:
        return f"Pi_bar - Pi_LQR has eigenvalue {gap:.3e} < 0"
    return None


def scalar_steady(a, b, g, qw, r):
    """Scalar steady state (lambda_bar, Pi_bar) from closed forms.

    For a fixed multiplier the stationary equation is the quadratic
    c Pi^2 + (1 - qw c - a^2) Pi - qw = 0 with c = b^2/r - g^2/lam; its
    positive root Pi(lam) rises as lam falls, so lambda_bar is the root of
    lam = g^2 Pi(lam), where the bound ||G'Pi G|| becomes active.
    """
    def pi_of(lam):
        c = b * b / r - g * g / lam
        lin = 1.0 - qw * c - a * a
        if abs(c) < 1e-14:
            return qw / lin if lin > 0.0 else np.inf
        disc = lin * lin + 4.0 * c * qw
        if disc < 0.0:
            return np.inf  # no stationary point: lam is infeasible
        root = (-lin + np.sqrt(disc)) / (2.0 * c)
        return root if root > 0.0 else np.inf

    def feasible(lam):
        return lam >= g * g * pi_of(lam)

    hi = 1.0
    while not feasible(hi):
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi, pi_of(hi)


def check_scalar_steady(sys, lam_bar, Pi_bar):
    a, b, g, qw, r = (float(sys[k][0, 0]) for k in ("A", "B", "G", "Q", "R"))
    lam_ref, pi_ref = scalar_steady(a, b, g, qw, r)
    if abs(lam_bar - lam_ref) > 1e-6 or abs(float(Pi_bar[0, 0]) - pi_ref) > 1e-4:
        return (f"scalar steady state ({lam_bar:.9g}, {float(Pi_bar[0, 0]):.9g}) "
                f"but the scalar solve gives ({lam_ref:.9g}, {pi_ref:.9g})")
    return None
