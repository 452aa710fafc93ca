"""Steady-state regulator: a bracketed search over the multiplier,
fixed-point Riccati solve, LMI feasibility certificate, and an LQR baseline.

The steady-state problem minimizes lambda subject to lambda >= ||G'Pi G||
and the stationarity Pi = F(lambda, Pi) of the one-stage Riccati map. A
multiplier is feasible when the doubling probe (see `_kernels`) reaches a
positive semidefinite fixed point and its slack
g(lambda) = lambda - ||G'Pi(lambda) G|| clears -EPS_BOUNDARY. Pi(lambda)
falls in the Loewner order as lambda grows (a larger lambda charges the
disturbance more), so g is increasing with slope at least 1, and the
feasible multipliers form a half-line where each probe reaches its fixed
point or clearly fails to. Not so at the existence edge: on default_rng(9)
systems 68 and 521 of the tests' make_problem, passing and failing probes
interleave from 7e-9 and 4e-7 below lambda_bar up to it, and the answer
depends on the search's path. The search keeps a bracket [lo, hi], hi
feasible and lo not; as Pi(lambda_bar) dominates Pi_hi, ||G'Pi_hi G|| -
EPS_BOUNDARY is a lower bound on lambda_bar that each feasible probe hands
the next (see `solve_steady_state`). The LMI check certifies the solution
by a PSD block matrix in (P, F) = (Pi_bar^{-1}, K_bar Pi_bar^{-1}).
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ._kernels import fixed_point_numpy, verify
from ._linalg import fro_norm, psd_within, sym, top_eig
from .errors import Diverged, NoFeasibleLambda, SingularPi
from .problem import _TOL_PSD, ProblemData
from .riccati import EPS_BOUNDARY

__all__ = ["SteadyStateSolution", "LmiCertificate", "solve_steady_state",
           "lmi_certify", "lqr_baseline"]

_BRACKET_TOL = 1e-9


@dataclass(frozen=True)
class SteadyStateSolution:
    lambda_bar: float
    Pi_bar: np.ndarray
    K_bar: np.ndarray          # steady gain, u = -K_bar x
    residual: float            # ||Pi_bar - riccati_map(Pi_bar)||_F
    boundary_gap: float        # lambda_bar - ||G' Pi_bar G||
    lmi_feasible: bool | None  # lmi_certify's decision; None: Pi_bar singular
    probes: int                # fixed-point solves made by the search
    fp_iterations: int         # their doublings, summed
    capped: int                # probes that ended at the doubling cap


@dataclass(frozen=True)
class LmiCertificate:
    """Block PSD certificate in the inverse variables.

    P = Pi_bar^{-1}, F = K_bar P (so the closed loop is A - B F P^{-1});
    the multiplier is the solution's lambda_bar, in the lam I block of
    assembled. feasible is psd_within(assembled, _TOL_PSD scale), scale =
    max(1, largest |entry|); min_eig, its smallest eigenvalue, is formed on
    each read.
    """

    P: np.ndarray
    F: np.ndarray
    assembled: np.ndarray
    feasible: bool

    @property
    def min_eig(self) -> float:
        return float(np.linalg.eigvalsh(self.assembled)[0])


def _probe(p: ProblemData, lam: float):
    """The one probe of a multiplier, (status, doublings, Pi, top, step): the
    doubling from Pf at Z = B R^{-1} B' - G G'/lam through this module's
    fixed_point_numpy binding (wrapped by benchmark/tracing.py, patched by
    the tests), top = ||G'Pi G|| where it converged at a finite lam, and Pi
    verified unless lam - top is below -EPS_BOUNDARY (then status 0, step
    None). At lam = inf, the LQR map, Pi is always verified and top is None."""
    Z = p._steady_constants[0] - p._steady_constants[1] / lam
    status, count, Pi, scale = fixed_point_numpy(p.A, p.Q, Z, fro_norm(p.Pf))
    top = step = None
    if status == 0 and lam < np.inf:
        top = top_eig(p.G.T.dot(Pi).dot(p.G))
    if status == 0 and (top is None or lam - top + EPS_BOUNDARY >= 0.0):
        status, step = verify(p.A, p.Q, Z, Pi, scale)
    return status, count, Pi, top, step


def solve_steady_state(p: ProblemData) -> SteadyStateSolution:
    """Smallest feasible multiplier and its Riccati fixed point.

    The upper bracket starts at 10 (||G'Pf G|| + tr Q + tr R) and doubles
    at most 10 times; the bracket [lo, hi] then shrinks until lo or the
    lower bound ||G'Pi_hi G|| - EPS_BOUNDARY lies within 1e-9 of hi,
    either way pinning lambda_bar to 1e-9. Each probe, clamped 0.25e-9
    inside the bracket and doubled from Pf, goes to the secant of g through
    the latest two probes with a slack where lo has one and that lies in
    (max(lo, bound), hi); else to the bound while it lies above lo and lo
    is 0 or has a slack, or to lo's clamp while lo is 0 and the bound is
    not above it (G'Pi G = 0, say), else to the midpoint. The secant aims
    at a slack of 0.5e-9, so that a landing near the root is feasible and
    ends the search. A converged probe below its bound goes to lo with its
    slack, one that fails with none (see `_probe`). The answer is the
    accepted probe at hi, unchanged: K_bar and the residual come from the
    map step that verified Pi_bar (see `_kernels`), and the gap from the
    ||G'Pi_bar G|| that judged it.
    """
    work = []  # (status, doublings) of each probe

    def probe(lam):
        # (feasible, h, (Pi, top, step)), h = lam - top + EPS_BOUNDARY the
        # value whose root the search seeks, None where the probe failed
        status, count, Pi, top, step = _probe(p, lam)
        work.append((status, count))
        h = lam - top + EPS_BOUNDARY if status == 0 else None
        return step is not None, h, (Pi, top, step)

    def aimed(a, b):  # where the secant through probes (lam, h) reaches tol/2
        return b[0] - (b[1] - 0.5 * _BRACKET_TOL) * (b[0] - a[0]) / (b[1] - a[1])

    start = 10.0 * (top_eig(p.G.T.dot(p.Pf).dot(p.G)) + np.trace(p.Q) + np.trace(p.R))
    for hi in (start * 2.0 ** k for k in range(11)):  # at most 10 doublings
        ok, h_hi, fp_hi = probe(hi)
        if ok:
            break
    else:
        raise NoFeasibleLambda(
            f"no feasible multiplier up to {hi:.6g} after 10 doublings")
    lo, h_lo = 0.0, None
    slacks = [None, (hi, h_hi)]  # the two latest probes with a slack
    while min(hi - lo, h_hi) > _BRACKET_TOL:  # lo or bound within tol of hi
        bound = hi - h_hi  # ||G'Pi_hi G|| - EPS_BOUNDARY, at most lambda_bar
        flat = h_lo is None or slacks[0][1] == slacks[1][1]  # or lo has no slack
        mid = hi if flat else aimed(*slacks)  # through the latest two slacks
        if not max(lo, bound) < mid < hi:
            if lo == 0.0 or (h_lo is not None and bound > lo):
                mid = max(bound, lo)
            else:
                mid = 0.5 * (lo + hi)
        mid = min(max(mid, lo + 0.25 * _BRACKET_TOL), hi - 0.25 * _BRACKET_TOL)
        ok, h, fp = probe(mid)
        slacks = slacks if h is None else [slacks[1], (mid, h)]
        if ok:
            hi, h_hi, fp_hi = mid, h, fp
        else:
            lo, h_lo = mid, h
    Pi_bar, top, (Pi_next, PX) = fp_hi
    # K_bar = R^{-1} B'Pi_bar (I + Z Pi_bar)^{-1} A, see `_kernels`
    sol = SteadyStateSolution(lambda_bar=float(hi), Pi_bar=Pi_bar,
                              K_bar=np.linalg.solve(p.R, p.B.T.dot(PX)),
                              residual=float(np.linalg.norm(Pi_bar - Pi_next)),
                              boundary_gap=float(hi - top),
                              lmi_feasible=None, probes=len(work),
                              fp_iterations=sum(count for _, count in work),
                              capped=sum(status == 1 for status, _ in work))
    try:
        cert = lmi_certify(p, sol)
    except SingularPi:
        return sol
    return dataclasses.replace(sol, lmi_feasible=cert.feasible)


def lmi_certify(p: ProblemData, sol: SteadyStateSolution) -> LmiCertificate:
    """Assemble and check the block PSD certificate at a candidate solution.

    Block sizes (n, n, q, n+m); with P = Pi_bar^{-1} and F = K_bar P the
    matrix is

        [ P            (AP - BF)'    0        [P Qh, -F' Rh] ]
        [ AP - BF      P             G        0              ]
        [ 0            G'            lam I    0              ]
        [ .            0             0        I              ]

    with Qh = Q^{1/2}, Rh = R^{1/2}. SingularPi unless Pi_bar clears
    1e-12 max(1, largest |entry|), the shifted Cholesky of `psd_within`
    that also decides the certificate.
    """
    n, m, q = p.n, p.m, p.q
    Pi = sym(sol.Pi_bar)
    if not psd_within(Pi, -1e-12 * max(1.0, float(np.abs(Pi).max()))):
        raise SingularPi("Pi_bar is singular to 1e-12 of its largest entry; "
                         "inverse certificate undefined")
    P = sym(np.linalg.inv(Pi))
    F = sol.K_bar.dot(P)
    Qh, Rh = p._steady_constants[2:]
    closed = p.A.dot(P) - p.B.dot(F)
    # one array written block by block, cheaper than np.block
    a, b, c = n, 2 * n, 2 * n + q  # block offsets
    L = np.zeros((c + n + m, c + n + m))
    L[:a, :a] = L[a:b, a:b] = P
    L[a:b, :a], L[:a, a:b] = closed, closed.T
    L[a:b, b:c], L[b:c, a:b] = p.G, p.G.T
    L[:a, c:c + n], L[:a, c + n:] = P.dot(Qh), -F.T.dot(Rh)
    L[c:, :a], diag = L[:a, c:].T, L.ravel()[::len(L) + 1]  # a view of L's diagonal
    diag[b:c], diag[c:] = sol.lambda_bar, 1.0  # the lam I and I blocks
    scale = max(1.0, float(np.abs(L).max()))
    return LmiCertificate(P=P, F=F, assembled=L,
                          feasible=psd_within(L, _TOL_PSD * scale))


def lqr_baseline(p: ProblemData) -> np.ndarray:
    """Fixed point of the standard Riccati map (no disturbance channel),
    Pi = sym(Q + A'Pi (I + B R^{-1} B' Pi)^{-1} A): the doubling probe at
    lam = inf, reached from Pf."""
    status, _, Pi, _, _ = _probe(p, np.inf)
    if status != 0:
        raise Diverged("LQR Riccati doubling did not converge")
    return Pi
