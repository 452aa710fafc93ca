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

Each doubling is one solve of W_k against [A_k G_k]. Where the closed loop
at the fixed point is stable, A_k vanishes and H_k converges quadratically
(Lin & Xu, SIAM J. Matrix Anal. Appl. 28(1), 2006); at a saddle-node of
the map the error still halves with each doubling (Chiang et al., SIAM J.
Matrix Anal. Appl. 31(2), 2009), and each doubling stands for 2^k steps.

Status codes: 0 converged, 1 doubling cap, -1 diverged, or converged to
an X that is not positive semidefinite or not a fixed point of the map
itself, -2 singular M.
"""
from __future__ import annotations

import numpy as np

from ._linalg import fro_norm

_FP_CHECK = 1e-8


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


def fixed_point_numpy(A, B, G, Q, R, lam, X0, tol, max_doublings):
    """Fixed point of the map at lam, reached from X0 by doubling:
    (status, doublings, X). Converged when a doubling moves H_k, and
    ||A_k||^2 ||X0|| bounds what X0 still adds, both within tol relative;
    only then is X = F^(2^k)(X0) formed. X must be PSD and a fixed point
    of the map itself: ||F(X) - X|| < _FP_CHECK (1 + ||X||), 1e-8. On
    random systems the doubling now and then settles on an X whose step
    moves it by 5e-3 or more; the fixed points it reaches move by 1e-13."""
    n = A.shape[0]
    Z = coupling(B, G, R, lam)
    AG = np.hstack([A, Z])  # [A_k G_k]
    H = Q
    start = fro_norm(X0)
    for k in range(int(max_doublings)):
        Ak, Gk = AG[:, :n], AG[:, n:]
        W = Gk @ H
        W.ravel()[::n + 1] += 1.0
        try:
            S = np.linalg.solve(W, AG)
        except np.linalg.LinAlgError:
            return -2, k, X0
        Hn = H + Ak.T @ (H @ S[:, :n])
        AG = Ak @ S
        AG[:, n:] = Gk + AG[:, n:] @ Ak.T
        res = fro_norm(Hn - H)
        H = Hn
        scale = (1.0 + fro_norm(H) ** 2) ** 0.5
        tail = fro_norm(AG[:, :n]) ** 2 * start
        if not (res <= 1e12 * scale and tail <= 1e12 * scale):
            return -1, k + 1, X0
        if res <= tol * scale and tail <= tol * scale:
            try:
                X, _ = game_step(AG[:, :n], H, AG[:, n:], X0)
            except np.linalg.LinAlgError:
                return -2, k + 1, X0
            if np.linalg.eigvalsh(X)[0] < -tol * scale:
                return -1, k + 1, X
            try:
                Xn, _ = game_step(A, Q, Z, X)
            except np.linalg.LinAlgError:
                return -2, k + 1, X
            if not fro_norm(Xn - X) < _FP_CHECK * (1.0 + fro_norm(X)):
                return -1, k + 1, X
            return 0, k + 1, X
    return 1, int(max_doublings), X0


# wrapped by name by benchmark/tracing.py; nothing calls it
fixed_point_compiled = fixed_point_numpy
