"""Steady-state game Riccati fixed point by structure-preserving doubling.

The fixed point is that of the n x n game Riccati map (Basar & Bernhard,
*H-infinity Optimal Control*, 1995)

    F(X) = Q + A'X (I + Z X)^{-1} A,  Z = B R^{-1} B' - G G'/lam.

With W = [B G], D = blkdiag(R, -lam I), R > 0 and lam != 0 the identity
S - SW(D + W'SW)^{-1}W'S = S(I + W D^{-1} W'S)^{-1} makes it equal to the
block form Q + A'SA - [B'SA; G'SA]' M^{-1} [B'SA; G'SA] with
M = [[B'SB + R, B'SG], [G'SB, G'SG - lam I]], S = X, and
det(I + Z X) = det(M) / det(D): I + Z X is singular where M is.

The structure-preserving doubling algorithm (SDA) represents the 2^k-step
map by a triple (A_k, G_k, H_k) that starts at (A, Z, Q):

    F^(2^k)(X) = H_k + A_k' X (I + G_k X)^{-1} A_k,
    W_k        = I + G_k H_k,
    A_{k+1}    = A_k W_k^{-1} A_k,
    G_{k+1}    = G_k + A_k W_k^{-1} G_k A_k',
    H_{k+1}    = H_k + A_k' H_k W_k^{-1} A_k.

Each doubling is one solve of W_k against [A_k G_k]. At a fixed point
X = F^(2^k)(X), X - H_k = A_k'X (I + G_k X)^{-1} A_k: ||A_k||^2 bounds the
error of H_k and what X_0 still adds to F^(2^k)(X_0), so the doubling
stops on that bound and returns sym(H_k). Where the closed loop at the
fixed point is stable, A_k vanishes and H_k converges quadratically
(Lin & Xu, SIAM J. Matrix Anal. Appl. 28(1), 2006); at a saddle-node of
the map the error still halves with each doubling (Chiang et al., SIAM J.
Matrix Anal. Appl. 31(2), 2009), and each doubling stands for 2^k steps.

Status codes: 0 converged, 1 doubling cap, -1 diverged, or converged to
an X that is not positive semidefinite or not a fixed point of the map
itself (`verify`, run apart from the doubling), -2 singular W_k or M.
"""
from __future__ import annotations

import numpy as np

from ._linalg import fro_norm, psd_within, sym

_FP_TOL = 1e-12          # the doubling's stop rule and verify's PSD test
_FP_MAX_DOUBLINGS = 64
_FP_CHECK = 1e-8


def game_step(A, Q, Z, Pi):
    """One step of the map: (sym(Q + A'Pi X), Pi X), X = (I + Z Pi)^{-1} A.
    Raises LinAlgError where I + Z Pi, and so M, is singular."""
    T = Z @ Pi
    T.ravel()[::T.shape[0] + 1] += 1.0  # I + Z Pi, with no np.eye per step
    PX = Pi @ np.linalg.solve(T, A)
    Pn = Q + A.T @ PX
    return 0.5 * (Pn + Pn.T), PX


def fixed_point_numpy(A, Q, Z, x0):
    """The doubling at Z, x0 = ||X_0||: (status, doublings, X, scale), X
    and scale None but at status 0, X = sym(H_k), at the first k with
    ||A_k||^2 (||H_k|| + x0) <= _FP_TOL scale, scale = (1 + ||H_k||^2)^{1/2};
    status 1 at _FP_MAX_DOUBLINGS. Diverged once ||A_k||^2 x0 passes 1e12
    scale or scale passes the cap 1e12 (1 + ||Q|| + x0), which the kernel
    forms once per call: a mode B cannot reach grows H_k and the relative
    tests with it."""
    n, cap = A.shape[0], 1e12 * (1.0 + fro_norm(Q) + x0)
    AG = np.hstack([A, Z])  # [A_k G_k]
    H = Q
    for k in range(_FP_MAX_DOUBLINGS):
        Ak, Gk = AG[:, :n], AG[:, n:]
        W = Gk @ H
        W.ravel()[::n + 1] += 1.0
        try:
            S = np.linalg.solve(W, AG)
        except np.linalg.LinAlgError:
            return -2, k, None, None
        H = H + Ak.T @ (H @ S[:, :n])
        AG = Ak @ S
        AG[:, n:] = Gk + AG[:, n:] @ Ak.T
        h, a2 = fro_norm(H), fro_norm(AG[:, :n]) ** 2
        scale = (1.0 + h * h) ** 0.5
        if not (a2 * x0 <= 1e12 * scale and scale <= cap):
            return -1, k + 1, None, None
        if a2 * (h + x0) <= _FP_TOL * scale:
            return 0, k + 1, sym(H), scale
    return 1, _FP_MAX_DOUBLINGS, None, None


def verify(A, Q, Z, X, scale):
    """(0, game_step(A, Q, Z, X)) where psd_within(X, _FP_TOL scale) and
    ||F(X) - X|| < _FP_CHECK (1 + ||X||), 1e-8: the doubling may stop at an X
    that its step moves by 1.5e-8 or more; nearly all fixed points move by
    at most 2.2e-13. Else (-1, None), or (-2, None) if the step is singular."""
    if not psd_within(X, _FP_TOL * scale):
        return -1, None
    try:
        step = game_step(A, Q, Z, X)
    except np.linalg.LinAlgError:
        return -2, None
    fixed = fro_norm(step[0] - X) < _FP_CHECK * (1.0 + fro_norm(X))
    return (0, step) if fixed else (-1, None)


# wrapped by name by benchmark/tracing.py; nothing calls it
fixed_point_compiled = fixed_point_numpy
