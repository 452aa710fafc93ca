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
    ascending and unit eigenvectors as the rows of U, from eigh, which
    reads one triangle (the top value may differ from top_eig(M)'s in the
    last bits). Raises ValueError on non-finite input."""
    if np.isfinite(M).all():
        w, V = np.linalg.eigh(M)
        return float(w[-1]), w, V.T
    raise ValueError("eigpairs of a matrix with non-finite entries")


def fro_norm(v: np.ndarray) -> float:
    """np.linalg.norm(v) of a real array, bit for bit, without its dispatch."""
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))
