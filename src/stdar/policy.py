"""Online state-feedback policy and closed-loop simulation.

Each stage re-solves the shrinking-horizon multiplier program at the
observed state (warm-started with the tail of the previous solution),
applies u_k = -K_k x_k from the sweep at the optimal multipliers, and, in
worst-case mode, injects the disturbance that attains the stage bound
||w_k||^2 = alpha_k exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import fro_norm
from .errors import NoSphereIntersection
from .multiplier import solve_multipliers
from .problem import ProblemData, _as_array, _as_point
from .riccati import MultiplierVector, _require_offset, at_bound, sweep

_ROLLOUT_MODES = ("worst_case", "zero", "external")  # scenario reads it too
# Eigenvalues below PINV_CUTOFF * (largest magnitude) are treated as zero
# where worst_disturbance_at splits G'Pi G - shift I into its
# pseudoinverse part and the top eigenspace it completes along.
PINV_CUTOFF = 1e-11


@dataclass(frozen=True)
class Trajectory:
    """Closed-loop record over one horizon.

    multipliers[k] is the head multiplier of the stage-k re-solve;
    stage_values[k] the stage-k program value at x_k; iterations[k],
    stage_steps[k] and stage_converged[k] that re-solve's MultiplierSolution
    counts and flag; converged is all of the flags. value_ratio is the
    realized cost over the realized disturbance energy (nan if the
    denominator vanishes).
    """

    states: np.ndarray        # (N+1, n)
    controls: np.ndarray      # (N, m)
    disturbances: np.ndarray  # (N, q)
    multipliers: np.ndarray   # (N,)
    stage_costs: np.ndarray   # (N,)
    terminal_cost: float
    value_ratio: float
    stage_values: np.ndarray  # (N,)
    converged: bool
    iterations: np.ndarray    # (N,) int
    stage_steps: np.ndarray   # (N,) int
    stage_converged: np.ndarray  # (N,) bool

    @property
    def total_cost(self) -> float:
        return float(self.stage_costs.sum() + self.terminal_cost)


def control_at(p: ProblemData, x: np.ndarray, k: int,
               lam_star: MultiplierVector) -> np.ndarray:
    """Stage-k control u = -K_k x at the supplied optimal multipliers.
    A state of the wrong size or not finite raises ValueError."""
    x = _as_point(x, p.n, "state")
    _require_offset(lam_star, k)
    return -(sweep(p, lam_star).K[0] @ x)


def worst_disturbance_at(p: ProblemData, x: np.ndarray, k: int,
                         lam_star: MultiplierVector, u: np.ndarray) -> np.ndarray:
    """Worst-case stage-k disturbance, exactly on the sphere ||w||^2 = alpha_k:
    the response (G'Pi G - shift I) w = -d_w = -G'Pi (Ax + Bu) on the
    nonzero eigenvalues, shift the bound b_k = ||G'Pi G|| where lam_k is at
    it and lam_k otherwise, read from the eigenpairs of G'Pi G that the pass
    stored (so on the bound the top shifted eigenvalue is exactly 0). At the
    bound it extends d_w's part in the top eigenspace to the sphere, or that
    eigenspace's last eigenvector where the part is 0 (x = 0). For
    u = -K_k x that part is (lam_k - b_k) times the part of the plan
    w_bar = -J_k x, so the completion takes the plan's sign. Raises
    NoSphereIntersection where its norm^2 exceeds alpha_k, or with no
    eigenspace to complete along misses it, by more than 1e-3 relative,
    and ValueError for a state or control of the wrong size or not finite.
    """
    x = _as_point(x, p.n, "state")
    u = _as_point(u, p.m, "control")
    k = _require_offset(lam_star, k)
    sw = sweep(p, lam_star)
    Pi_next, lam_k = sw.Pi[1], float(lam_star.lambdas[0])
    bound, alpha_k = float(sw.bounds[0]), float(p.alpha[k])
    shift = bound if at_bound(lam_k, bound) else lam_k
    d_w = p.G.T @ (Pi_next @ (p.A @ x + p.B @ u))
    U = sw._eigvecs[0]  # rows: unit eigenvectors of G'Pi G
    mu = [v - shift for v in sw._eigvals[0].tolist()]  # floats beat numpy calls
    # cutoff scaled to G'Pi G, not to the shifted spectrum: the shifted
    # matrix is numerically zero whenever G'Pi G is near-isotropic
    cut = PINV_CUTOFF * max(max(map(abs, mu)), abs(shift), 1e-300)
    zero = [abs(v) <= cut for v in mu]
    c = (U @ d_w).tolist()  # d_w in the eigenbasis
    coef = [0.0 if z else -c_j / v for z, c_j, v in zip(zero, c, mu)]
    nrm2 = float(np.dot(coef, coef))
    gap2 = alpha_k - nrm2
    top = [j for j, z in enumerate(zero) if z]  # the top eigenspace, at a tie
    if gap2 < -1e-3 * alpha_k or (gap2 > 1e-3 * alpha_k and not top):
        raise NoSphereIntersection(
            f"response norm^2 {nrm2:.6e} is off the bound {alpha_k:.6e}"
            + ("" if top else "; multipliers are not stage-optimal"))
    if top:  # complete to the sphere there
        nz, t = math.hypot(*(c[j] for j in top)), math.sqrt(max(0.0, gap2))
        if nz > 0.0:
            for j in top:  # c_j / nz first: at q = 1 it is exactly +-1
                coef[j] = c[j] / nz * t
        else:  # d_w has no part there (x = 0)
            coef[top[-1]] = t
    w = np.array(coef) @ U
    return w * (math.sqrt(alpha_k) / fro_norm(w))


def rollout(p: ProblemData, mode: str = "worst_case", w_seq=None) -> Trajectory:
    """Simulate the online policy over the full horizon from p.x0.

    mode "worst_case" injects the bound-attaining disturbance, "zero" none,
    "external" the supplied w_seq (rejected if an entry is not finite or
    any ||w_k||^2 exceeds alpha_k beyond 1e-9 relative).
    """
    if mode not in _ROLLOUT_MODES:
        raise ValueError(f"unknown rollout mode {mode!r}")
    if mode == "external":
        if w_seq is None:
            raise ValueError("rollout mode external requires w_seq")
        w_seq = _as_array(np.atleast_2d(w_seq), "w_seq", 2)
        if w_seq.shape != (p.N, p.q):
            raise ValueError(f"w_seq must be {p.N}x{p.q}, got {w_seq.shape}")
        norms2 = np.sum(w_seq * w_seq, axis=1)
        if np.any(norms2 > p.alpha * (1.0 + 1e-9)):
            raise ValueError("external disturbance exceeds its stage bound")

    x, stages, warm = p.x0, [], None
    for k in range(p.N):
        sol = solve_multipliers(p, x, k=k, init=warm)
        u = control_at(p, x, k, sol.lam_star)
        if mode == "worst_case":
            w = worst_disturbance_at(p, x, k, sol.lam_star, u)
        elif mode == "zero":
            w = np.zeros(p.q)
        else:
            w = w_seq[k]
        stages.append((x, u, w, sol.lam_star.lambdas[0], p.stage_cost(x, u),
                       sol.value, sol.iterations, sol.stage_steps, sol.converged))
        x = p.A @ x + p.B @ u + p.G @ w
        warm = sol.lam_star.lambdas[1:] if k < p.N - 1 else None
    (states, controls, disturbances, multipliers, stage_costs, stage_values,
     iterations, stage_steps, converged) = map(np.array, zip(*stages))
    states = np.vstack([states, x])
    terminal = p.terminal_cost(x)
    total = float(stage_costs.sum() + terminal)
    denom = float(np.sum(disturbances * disturbances))
    ratio = total / denom if denom > 0.0 else float("nan")
    return Trajectory(states=states, controls=controls,
                      disturbances=disturbances, multipliers=multipliers,
                      stage_costs=stage_costs, terminal_cost=terminal,
                      value_ratio=ratio, stage_values=stage_values,
                      converged=bool(converged.all()), iterations=iterations,
                      stage_steps=stage_steps, stage_converged=converged)
