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
    """A symmetric M's largest eigenvalue as a float, all eigenvalues
    ascending and unit eigenvectors as the rows of U, of the lower triangle
    as eigh reads it: in closed form up to 2 x 2, within about 2 eps ||M||_F
    of eigh's, else by eigh. Raises ValueError on non-finite input."""
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
    """eigpairs of [[a, b], [b, c]], the symmetric Schur decomposition in
    closed form (Golub & Van Loan, sec. 8.5): mid -+ r, r = hypot(h, b).
    The top eigenvector (h + r, b)/r, or (b, r - h)/r for h < 0, cancels in
    neither form and normalises in range even for subnormal blocks; the
    other row is its rotation, and both are I at r = 0."""
    h, mid = 0.5 * a - 0.5 * c, 0.5 * a + 0.5 * c  # halved first: a - c can overflow
    r = math.hypot(h, b)
    if not r:
        return mid, np.array([mid, mid]), np.eye(2)
    x, y = (h / r + 1.0, b / r) if h >= 0.0 else (b / r, 1.0 - h / r)
    s = math.hypot(x, y)
    x, y = x / s, y / s
    return mid + r, np.array([mid - r, mid + r]), np.array([[-y, x], [x, y]])


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
