"""Steady-state regulator: a bracketed search over the multiplier,
fixed-point Riccati solve, LMI feasibility certificate, and an LQR baseline.

The steady-state problem minimizes lambda subject to lambda >= ||G'Pi G||
and the stationarity Pi = F(lambda, Pi) of the one-stage Riccati map. A
multiplier is feasible when the doubling probe (see `_kernels`) reaches a
positive semidefinite fixed point and its slack
g(lambda) = lambda - ||G'Pi(lambda) G|| clears -eps_boundary. Pi(lambda)
falls in the Loewner order as lambda grows (a larger lambda charges the
disturbance more), so g is increasing with slope at least 1 and the
feasible multipliers form a half-line. The search keeps a bracket
[lo, hi], hi feasible and lo not; since Pi(lambda_bar) dominates Pi_hi,
||G'Pi_hi G|| - eps_boundary is a lower bound on lambda_bar that each
feasible probe hands the next (see `solve_steady_state`). The LMI check
certifies the solution as positive semidefiniteness of an assembled block
matrix in (P, F) = (Pi_bar^{-1}, K_bar Pi_bar^{-1}).
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ._kernels import coupling, fixed_point_numpy, game_step
# fixed_point_compiled, an alias of fixed_point_numpy, stays bound here
# only because benchmark/tracing.py wraps it under that name; nothing calls it
from ._kernels import fixed_point_compiled  # noqa: F401
from ._linalg import sym, top_eig
from .errors import (Diverged, FixedPointDiverged, NoFeasibleLambda,
                     SingularM, SingularPi)
from .problem import _DEFAULT_TOL, ProblemData, Tolerances

__all__ = ["SteadyStateSolution", "LmiCertificate", "solve_steady_state",
           "steady_riccati_fixed_point", "lmi_certify", "lqr_baseline"]

_FP_TOL = 1e-12
_FP_MAX_DOUBLINGS = 64
_BISECT_TOL = 1e-9


@dataclass(frozen=True)
class SteadyStateSolution:
    lambda_bar: float
    Pi_bar: np.ndarray
    K_bar: np.ndarray          # steady gain, u = -K_bar x
    residual: float            # ||Pi_bar - riccati_map(Pi_bar)||_F
    boundary_gap: float        # lambda_bar - ||G' Pi_bar G||
    lmi_min_eig: float         # nan when the certificate was not assembled
    probes: int                # fixed-point solves made by the search
    fp_iterations: int         # their doublings, summed


@dataclass(frozen=True)
class LmiCertificate:
    """Block PSD certificate in the inverse variables.

    P = Pi_bar^{-1}, F = K_bar P (so the closed loop is A - B F P^{-1}).
    feasible reflects min_eig >= -tol_psd relative to the block scale.
    """

    P: np.ndarray
    F: np.ndarray
    lam: float
    assembled: np.ndarray
    min_eig: float
    feasible: bool


def _double(p: ProblemData, lam: float):
    """The doubling probe from Pf at lam (inf: no disturbance channel),
    (status, doublings, Pi) as `_kernels` returns them. It calls this
    module's fixed_point_numpy binding, which benchmark/tracing.py wraps
    and the tests patch to count probes."""
    return fixed_point_numpy(p.A, p.B, p.G, p.Q, p.R, float(lam), p.Pf,
                             _FP_TOL, _FP_MAX_DOUBLINGS)


def steady_riccati_fixed_point(p: ProblemData, lam: float) -> np.ndarray:
    """PSD fixed point of the Riccati map at a fixed multiplier, reached
    from Pf by doubling (see `_kernels`).

    Raises SingularM where a doubling's solve, I + G_k H_k or I + G_k Pf,
    is singular,
    FixedPointDiverged when the doubling diverges, converges to an X that
    is not positive semidefinite or not a fixed point, or makes
    _FP_MAX_DOUBLINGS doublings without converging, and ValueError for a
    lam that is not finite and positive, before it runs."""
    if not (np.isfinite(lam) and lam > 0.0):
        raise ValueError(f"multiplier {lam!r} is not finite and positive")
    status, doublings, Pi = _double(p, lam)
    if status == -2:
        raise SingularM(f"block matrix became singular at doubling {doublings}")
    if status != 0:
        why = {-1: "diverged or no PSD fixed point",
               1: f"no fixed point in {_FP_MAX_DOUBLINGS} doublings"}[status]
        raise FixedPointDiverged(f"lambda={lam:.6g}: {why}")
    return Pi


def solve_steady_state(p: ProblemData,
                       tol: Tolerances | None = None) -> SteadyStateSolution:
    """Smallest feasible multiplier and its Riccati fixed point.

    A multiplier is feasible when its fixed point exists and its slack
    g = lam - ||G'Pi G|| is at least -eps_boundary. The upper bracket
    starts at 10 (||G'Pf G|| + tr Q + tr R) and doubles at most 10 times;
    the bracket [lo, hi] then shrinks until lo or the lower bound
    ||G'Pi_hi G|| - eps_boundary lies within 1e-9 of hi, either way
    pinning lambda_bar to 1e-9. Each probe, clamped 0.25e-9 inside
    the bracket and doubled from Pf, goes to that lower bound while it
    lies above lo and lo is 0 or has a fixed point, else to the secant of
    g where lo has a slack, else to the midpoint.
    """
    tol = tol or _DEFAULT_TOL
    probes = fp_iterations = 0

    def probe(lam):
        # fixed point at lam reached from Pf: (feasible, h, Pi) with
        # h = g + eps_boundary, the value whose root the search seeks; h and
        # Pi are None where no fixed point was reached
        nonlocal probes, fp_iterations
        status, count, Pi = _double(p, lam)
        probes += 1
        fp_iterations += count
        if status != 0:
            return False, None, None
        h = lam - top_eig(p.G.T @ Pi @ p.G) + tol.eps_boundary
        return h >= 0.0, h, Pi

    hi = 10.0 * (top_eig(p.G.T @ p.Pf @ p.G) + np.trace(p.Q) + np.trace(p.R))
    ok, h_hi, Pi_hi = probe(hi)
    doublings = 0
    while not ok and doublings < 10:
        hi *= 2.0
        ok, h_hi, Pi_hi = probe(hi)
        doublings += 1
    if not ok:
        raise NoFeasibleLambda(
            f"no feasible multiplier up to {hi:.6g} after {doublings} doublings")
    lo, h_lo = 0.0, None
    while min(hi - lo, h_hi) > _BISECT_TOL:  # lo or bound within tol of hi
        bound = hi - h_hi  # ||G'Pi_hi G|| - eps_boundary, at most lambda_bar
        if (lo == 0.0 or h_lo is not None) and bound > lo:
            mid = bound
        elif h_lo is not None:
            mid = hi - h_hi * (hi - lo) / (h_hi - h_lo)
        else:
            mid = 0.5 * (lo + hi)
        mid = min(max(mid, lo + 0.25 * _BISECT_TOL), hi - 0.25 * _BISECT_TOL)
        ok, h, Pi = probe(mid)
        if ok:
            hi, h_hi, Pi_hi = mid, h, Pi
        else:
            lo, h_lo = mid, h
    lambda_bar, Pi_bar = hi, Pi_hi

    try:
        # K_bar = R^{-1} B'Pi_bar (I + Z Pi_bar)^{-1} A, see `_kernels`
        Pi_next, PX = game_step(p.A, p.Q, coupling(p.B, p.G, p.R, lambda_bar),
                                Pi_bar)
    except np.linalg.LinAlgError as exc:
        raise SingularM("block matrix singular at the recovered solution") from exc
    K_bar = np.linalg.solve(p.R, p.B.T @ PX)
    residual = float(np.linalg.norm(Pi_bar - Pi_next))
    boundary_gap = float(lambda_bar - top_eig(p.G.T @ Pi_bar @ p.G))
    sol = SteadyStateSolution(lambda_bar=float(lambda_bar), Pi_bar=Pi_bar,
                              K_bar=K_bar, residual=residual,
                              boundary_gap=boundary_gap,
                              lmi_min_eig=float("nan"), probes=probes,
                              fp_iterations=fp_iterations)
    try:
        cert = lmi_certify(p, sol, tol)
    except SingularPi:
        return sol
    return dataclasses.replace(sol, lmi_min_eig=cert.min_eig)


def _sqrt_psd(M: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(sym(M))
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T


def lmi_certify(p: ProblemData, sol: SteadyStateSolution,
                tol: Tolerances | None = None) -> LmiCertificate:
    """Assemble and check the block PSD certificate at a candidate solution.

    Block sizes (n, n, q, n+m); with P = Pi_bar^{-1} and F = K_bar P the
    matrix is

        [ P            (AP - BF)'    0        [P Qh, -F' Rh] ]
        [ AP - BF      P             G        0              ]
        [ 0            G'            lam I    0              ]
        [ .            0             0        I              ]

    with Qh = Q^{1/2}, Rh = R^{1/2}.
    """
    tol = tol or _DEFAULT_TOL
    n, m, q = p.n, p.m, p.q
    w = np.linalg.eigvalsh(sym(sol.Pi_bar))
    if w[0] <= max(np.abs(w).max(), 1.0) * 1e-12:
        raise SingularPi(
            f"Pi_bar has eigenvalue {w[0]:.3e}; inverse certificate undefined")
    P = sym(np.linalg.inv(sym(sol.Pi_bar)))
    F = sol.K_bar @ P
    Qh = _sqrt_psd(p.Q)
    Rh = _sqrt_psd(p.R)
    closed = p.A @ P - p.B @ F
    top_right = np.hstack([P @ Qh, -F.T @ Rh])  # n x (n+m)
    z_nq = np.zeros((n, q))
    z_nm = np.zeros((n, n + m))
    z_qm = np.zeros((q, n + m))
    assembled = np.block([
        [P, closed.T, z_nq, top_right],
        [closed, P, p.G, z_nm],
        [z_nq.T, p.G.T, sol.lambda_bar * np.eye(q), z_qm],
        [top_right.T, z_nm.T, z_qm.T, np.eye(n + m)],
    ])
    assembled = sym(assembled)
    min_eig = float(np.linalg.eigvalsh(assembled)[0])
    scale = max(1.0, float(np.abs(assembled).max()))
    return LmiCertificate(P=P, F=F, lam=float(sol.lambda_bar),
                          assembled=assembled, min_eig=min_eig,
                          feasible=min_eig >= -tol.tol_psd * scale)


def lqr_baseline(p: ProblemData) -> np.ndarray:
    """Fixed point of the standard Riccati map (no disturbance channel),
    Pi = sym(Q + A'Pi (I + B R^{-1} B' Pi)^{-1} A): the doubling probe at
    lam = inf, reached from Pf."""
    status, _, Pi = _double(p, np.inf)
    if status != 0:
        raise Diverged("LQR Riccati doubling did not converge")
    return Pi
