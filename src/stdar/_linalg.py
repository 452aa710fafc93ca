"""Small dense linear-algebra helpers shared across modules."""
from __future__ import annotations

import math

import numpy as np


def sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def top_eig(M: np.ndarray) -> float:
    """Largest eigenvalue of sym(M) (= induced 2-norm for PSD). Raises
    ValueError on non-finite input, which LAPACK does not detect."""
    if M.shape == (1, 1):
        v = float(M[0, 0])
        if math.isfinite(v):
            return v
    elif np.isfinite(M).all():
        return float(np.linalg.eigvalsh(sym(M))[-1])
    raise ValueError("top_eig of a matrix with non-finite entries")


def eigpairs(M: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """A symmetric M's largest eigenvalue as a float (top_eig(M)'s up to
    the last bits), all eigenvalues ascending and unit eigenvectors as the
    rows of U, from the lower triangle as eigh reads it: closed-form up to
    2 x 2, else by eigh. Raises ValueError on non-finite input."""
    if M.shape == (1, 1):
        v = M.item(0)
        if math.isfinite(v):
            return v, np.array([v]), np.ones((1, 1))
    elif M.shape == (2, 2):
        (a, u), (b, c) = M.tolist()
        if math.isfinite(a) and math.isfinite(b) and math.isfinite(c) and math.isfinite(u):
            return _eigpairs2(a, b, c)
    elif np.isfinite(M).all():
        w, V = np.linalg.eigh(M)
        return float(w[-1]), w, V.T
    raise ValueError("eigpairs of a matrix with non-finite entries")


def _eigpairs2(a: float, b: float, c: float):
    """eigpairs of [[a, b], [b, c]] in LAPACK's steps: b is 0 where |b| <=
    sqrt|a| sqrt|c| eps / 2 (dsteqr), else dlaev2 takes r1, the root of
    larger magnitude, from the half-sum and hypot, r2 = det / r1, and
    r1's eigenvector (cs, sn) without cancellation."""
    r1, r2, cs, sn = a, c, 1.0, 0.0
    if abs(b) > math.sqrt(abs(a)) * math.sqrt(abs(c)) * 2.0 ** -53:
        sm, df, tb = a + c, a - c, b + b
        lo, hi = (abs(df), abs(tb)) if abs(df) < abs(tb) else (abs(tb), abs(df))
        rt = hi * math.sqrt(1.0 + (lo / hi) * (lo / hi))  # hypot, as dlaev2 rounds it
        r1 = 0.5 * (sm - rt) if sm < 0.0 else 0.5 * (sm + rt)
        big, small = (a, c) if abs(a) > abs(c) else (c, a)
        r2 = (big / r1) * small - (b / r1) * b if sm else -0.5 * rt
        cs = df - rt if df < 0.0 else df + rt
        t = -tb / cs if abs(cs) > abs(tb) else -cs / tb
        v = 1.0 / math.sqrt(1.0 + t * t)
        cs, sn = (t * v, v) if abs(cs) > abs(tb) else (v, t * v)  # r2's
        if (sm < 0.0) == (df < 0.0):  # then r1's is its rotation
            cs, sn = -sn, cs
    ns = 0.0 - sn  # -sn, but +0.0 at sn = 0, as eigh's rotation forms it
    if r2 < r1:
        return r1, np.array([r2, r1]), np.array([[ns, cs], [cs, sn]])
    return r2, np.array([r1, r2]), np.array([[cs, sn], [ns, cs]])


def sqrt_psd(M: np.ndarray) -> np.ndarray:
    """The PSD square root of sym(M), its negative eigenvalues taken as 0."""
    w, V = np.linalg.eigh(sym(M))
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T


def psd_within(M: np.ndarray, tol: float) -> bool:
    """Whether M + tol I (its lower triangle) has a Cholesky factor, i.e. is
    numerically PD (Higham, 2002, ch. 10): eigvalsh(M)[0] >= -tol but within
    O(k eps ||M||) of -tol, M k x k, a margin the steady state's decisions
    clear: 4.6e-10 scale at the bank's tightest certificate, 8e-12 scale
    (0.8% of tol) over 1 200 random ones. ValueError on non-finite input."""
    if not np.isfinite(M).all():
        raise ValueError("psd_within of a matrix with non-finite entries")
    S = M.copy()
    S.ravel()[::len(S) + 1] += tol
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return False
    return True


def fro_norm(v: np.ndarray) -> float:
    """np.linalg.norm(v) of a real array, bit for bit, without its dispatch."""
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))
