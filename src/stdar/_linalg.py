"""Small dense linear-algebra helpers shared across modules."""
from __future__ import annotations

import numpy as np
import scipy.linalg as la

try:
    # the batched LAPACK routine that scipy.linalg.solve hands its arrays to
    from scipy.linalg._batched_linalg import _solve as _lapack_solve
except ImportError:  # pragma: no cover - older scipy
    _lapack_solve = None

# Eigenvalues below PINV_CUTOFF * (largest magnitude) are treated as zero
# where policy._sphere_response splits G'Pi G - lam I into its
# pseudoinverse part and the top eigenspace it completes along.
PINV_CUTOFF = 1e-11

# scipy.linalg.solve's structure codes for the assume_a values used here
_STRUCTURE = {None: -1, "sym": 201}


def sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def top_eig(M: np.ndarray) -> float:
    """Largest eigenvalue of the symmetrized matrix (= induced 2-norm for PSD)."""
    if M.shape == (1, 1):
        # the value the eigensolver returns, bit for bit, at a fraction of
        # its call overhead; each stage step takes one of these
        return float(M[0, 0])
    return float(la.eigvalsh(sym(M))[-1])


def solve(M: np.ndarray, rhs: np.ndarray, assume_a: str | None = None) -> np.ndarray:
    """scipy.linalg.solve(M, rhs, assume_a=assume_a), bit for bit.

    scipy checks and normalizes its arguments before it hands them to its
    batched LAPACK routine; for the few-by-few systems of a stage step that
    costs several times the factorization. Finite float64 matrices go to
    that routine directly; anything else, and any system it reports as
    singular or ill-conditioned, goes through scipy.linalg.solve, which
    then raises or warns as usual.
    """
    if (_lapack_solve is not None and M.dtype == rhs.dtype == np.float64
            and rhs.ndim == 2 and M.shape[0] > 1
            and np.isfinite(M).all() and np.isfinite(rhs).all()):
        X, errors = _lapack_solve(M, rhs, _STRUCTURE[assume_a],
                                  False, False, False, False)
        if not errors:
            return X
    return la.solve(M, rhs, assume_a=assume_a)


def _routine_matches() -> bool:
    # the routine is private to scipy: use it only where it answers a
    # small system exactly as scipy.linalg.solve does
    M = np.array([[4.0, 1.0, 2.0], [1.0, -3.0, 0.5], [2.0, 0.5, 3.0]])
    rhs = np.array([[1.0, 0.0], [2.0, 1.0], [0.0, 3.0]])
    try:
        return all(np.array_equal(_lapack_solve(M, rhs, _STRUCTURE[a], False,
                                                False, False, False)[0],
                                  la.solve(M, rhs, assume_a=a))
                   for a in _STRUCTURE)
    except Exception:  # pragma: no cover - another scipy
        return False


if _lapack_solve is not None and not _routine_matches():  # pragma: no cover
    _lapack_solve = None
