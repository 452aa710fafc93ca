"""Damped fixed-point iteration engines for the steady-state recursion.

Both engines iterate the steady-state game Riccati map from Pi = Pf,
damping 0.5 when the residual grows. The compiled one is a single
allocation-free numba kernel (hand-rolled products and Gaussian
elimination) in the block form

    Pi <- sym(Q + A'SA - [B'SA; G'SA]' M^{-1} [B'SA; G'SA]),
    M  =  [[B'SB + R, B'SG], [G'SB, G'SG - lam I]],  S = Pi.

The numpy one takes `game_step`, the n x n form: one n x n solve and three
products per step, Z formed once per call,

    Pi <- sym(Q + A'Pi (I + Z Pi)^{-1} A),  Z = B R^{-1} B' - G G'/lam.

With W = [B G], D = blkdiag(R, -lam I), R > 0 and lam != 0 the identity
S - SW(D + W'SW)^{-1}W'S = S(I + W D^{-1} W'S)^{-1} makes the forms equal,
and det(I + Z Pi) = det(M) / det(D): I + Z Pi is singular where M is.

Both stop early, as stalled, when the iteration circles instead of
converging: its relative residual ||Pi_next - Pi|| / scale has set no new
minimum for STALL_ITERS iterations, and the residual has risen above 1 in
more than n + 2 separate runs of iterations. Each such run is a pass of
the iterate through the pole of M^{-1}. A converging iteration makes few of
them (for n = 1 the map is a Moebius transformation, and with two real
fixed points every orbit but the repelling one passes through infinity at
most once on its way to the attracting one), and then lowers its residual
almost every step, also when it converges slowly next to a boundary-active
fixed point. One with no fixed point keeps passing through the pole and
would otherwise run to the iteration cap.

Status codes: 0 converged, 1 iteration cap, 2 stalled, -1 diverged,
-2 singular M.
"""
from __future__ import annotations

import numpy as np

from ._linalg import fro_norm

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(f):
            return f
        return wrap


STALL_ITERS = 500


@njit(cache=True, fastmath=False)
def _fp_kernel(A, B, G, Q, R, lam, Pf, tol, max_iter,
               Pi, Pn, SA, SB, SG, M, RH, KJ):  # pragma: no cover - compiled
    n = A.shape[0]
    m = B.shape[1]
    q = G.shape[1]
    p = m + q
    for i in range(n):
        for j in range(n):
            Pi[i, j] = Pf[i, j]
    prev_res = 1e300
    best = 1e300
    since_best = 0
    jumps = 0
    above = False
    it = 0
    while it < max_iter:
        for i in range(n):
            for j in range(n):
                s = 0.0
                for k in range(n):
                    s += Pi[i, k] * A[k, j]
                SA[i, j] = s
            for j in range(m):
                s = 0.0
                for k in range(n):
                    s += Pi[i, k] * B[k, j]
                SB[i, j] = s
            for j in range(q):
                s = 0.0
                for k in range(n):
                    s += Pi[i, k] * G[k, j]
                SG[i, j] = s
        for i in range(m):
            for j in range(m):
                s = R[i, j]
                for k in range(n):
                    s += B[k, i] * SB[k, j]
                M[i, j] = s
            for j in range(q):
                s = 0.0
                for k in range(n):
                    s += B[k, i] * SG[k, j]
                M[i, m + j] = s
                M[m + j, i] = s
            for j in range(n):
                s = 0.0
                for k in range(n):
                    s += B[k, i] * SA[k, j]
                RH[i, j] = s
        for i in range(q):
            for j in range(q):
                s = -lam if i == j else 0.0
                for k in range(n):
                    s += G[k, i] * SG[k, j]
                M[m + i, m + j] = s
            for j in range(n):
                s = 0.0
                for k in range(n):
                    s += G[k, i] * SA[k, j]
                RH[m + i, j] = s
        for i in range(p):
            for j in range(n):
                KJ[i, j] = RH[i, j]
        # Gaussian elimination with partial pivoting; M is scratch
        ok = True
        for col in range(p):
            piv = col
            big = abs(M[col, col])
            for r2 in range(col + 1, p):
                a2 = abs(M[r2, col])
                if a2 > big:
                    big = a2
                    piv = r2
            if big < 1e-300:
                ok = False
                break
            if piv != col:
                for c2 in range(p):
                    t = M[col, c2]
                    M[col, c2] = M[piv, c2]
                    M[piv, c2] = t
                for c2 in range(n):
                    t = KJ[col, c2]
                    KJ[col, c2] = KJ[piv, c2]
                    KJ[piv, c2] = t
            for r2 in range(col + 1, p):
                f = M[r2, col] / M[col, col]
                if f != 0.0:
                    for c2 in range(col + 1, p):
                        M[r2, c2] -= f * M[col, c2]
                    for c2 in range(n):
                        KJ[r2, c2] -= f * KJ[col, c2]
        if not ok:
            return -2, it
        for col in range(p - 1, -1, -1):
            for c2 in range(n):
                s = KJ[col, c2]
                for r2 in range(col + 1, p):
                    s -= M[col, r2] * KJ[r2, c2]
                KJ[col, c2] = s / M[col, col]
        for i in range(n):
            for j in range(n):
                s = Q[i, j]
                for k in range(n):
                    s += A[k, i] * SA[k, j]
                for k in range(p):
                    s -= RH[k, i] * KJ[k, j]
                Pn[i, j] = s
        res = 0.0
        scale = 1.0
        for i in range(n):
            for j in range(n):
                v = 0.5 * (Pn[i, j] + Pn[j, i])
                Pn[i, j] = v
                d = v - Pi[i, j]
                res += d * d
                scale += Pi[i, j] * Pi[i, j]
        res = np.sqrt(res)
        scale = np.sqrt(scale)
        if res <= tol * scale:
            for i in range(n):
                for j in range(n):
                    Pi[i, j] = Pn[i, j]
            return 0, it
        if res > 1e12 * scale:
            return -1, it
        rel = res / scale
        if rel > 1.0 and not above:
            jumps += 1
        above = rel > 1.0
        if rel < best:
            best = rel
            since_best = 0
        else:
            since_best += 1
            if since_best >= STALL_ITERS and jumps > n + 2:
                return 2, it
        if res > prev_res:
            for i in range(n):
                for j in range(n):
                    Pi[i, j] = 0.5 * (Pn[i, j] + Pi[i, j])
        else:
            for i in range(n):
                for j in range(n):
                    Pi[i, j] = Pn[i, j]
        prev_res = res
        it += 1
    return 1, max_iter


class _Workspace:
    """Reusable buffers for the compiled kernel, keyed by (n, m, q)."""

    def __init__(self, n: int, m: int, q: int):
        p = m + q
        self.bufs = (np.empty((n, n)), np.empty((n, n)), np.empty((n, n)),
                     np.empty((n, m)), np.empty((n, q)), np.empty((p, p)),
                     np.empty((p, n)), np.empty((p, n)))


_WS_CACHE: dict[tuple[int, int, int], _Workspace] = {}


def fixed_point_compiled(A, B, G, Q, R, lam, Pf, tol, max_iter):
    key = (A.shape[0], B.shape[1], G.shape[1])
    ws = _WS_CACHE.get(key)
    if ws is None:
        ws = _WS_CACHE[key] = _Workspace(*key)
    status, iters = _fp_kernel(A, B, G, Q, R, float(lam), Pf,
                               float(tol), int(max_iter), *ws.bufs)
    return int(status), int(iters), ws.bufs[0].copy()


def coupling(B, G, R, lam):
    """Z = B R^{-1} B' - G G'/lam of the n x n map; lam = inf drops the
    disturbance channel, which leaves the LQR map."""
    return B @ np.linalg.solve(R, B.T) - (G @ G.T) / lam


def game_step(A, Q, Z, Pi):
    """One step of the map: (sym(Q + A'Pi X), Pi X), X = (I + Z Pi)^{-1} A.
    Raises LinAlgError where I + Z Pi, and so M, is singular."""
    T = Z @ Pi
    T.ravel()[::T.shape[0] + 1] += 1.0  # I + Z Pi, with no np.eye per step
    PX = Pi @ np.linalg.solve(T, A)
    Pn = Q + A.T @ PX
    return 0.5 * (Pn + Pn.T), PX


def fixed_point_numpy(A, B, G, Q, R, lam, Pf, tol, max_iter):
    Z = coupling(B, G, R, lam)
    Pi = Pf.copy()
    prev_res = best = np.inf
    since_best = jumps = 0
    above = False
    for it in range(int(max_iter)):
        try:
            Pn, _ = game_step(A, Q, Z, Pi)
        except np.linalg.LinAlgError:
            return -2, it, Pi
        res = fro_norm(Pn - Pi)
        scale = (1.0 + fro_norm(Pi) ** 2) ** 0.5
        if res <= tol * scale:
            return 0, it, Pn
        if res > 1e12 * scale:
            return -1, it, Pi
        rel = res / scale
        if rel > 1.0 and not above:
            jumps += 1
        above = rel > 1.0
        if rel < best:
            best = rel
            since_best = 0
        else:
            since_best += 1
            if since_best >= STALL_ITERS and jumps > A.shape[0] + 2:
                return 2, it, Pi
        Pi = 0.5 * (Pn + Pi) if res > prev_res else Pn
        prev_res = res
    return 1, int(max_iter), Pi
