"""Small dense linear-algebra helpers shared across modules."""
from __future__ import annotations

import math
from functools import cache

import numpy as np
import scipy.linalg as la

try:
    # the LAPACK routines behind scipy.linalg.solve and scipy.linalg.eigvalsh
    from scipy.linalg._batched_linalg import _solve as _lapack_solve
    from scipy.linalg._decomp import _compute_lwork
    _syevr, _syevr_lwork = la.get_lapack_funcs(("syevr", "syevr_lwork"),
                                               dtype=np.float64)
except ImportError:  # pragma: no cover - older scipy
    _lapack_solve = _syevr = None

# Eigenvalues below PINV_CUTOFF * (largest magnitude) are treated as zero
# where policy.worst_disturbance_at splits G'Pi G - lam I into its
# pseudoinverse part and the top eigenspace it completes along.
PINV_CUTOFF = 1e-11

# scipy.linalg.solve's structure codes for the assume_a values used here
_STRUCTURE = {None: -1, "sym": 201}


def sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


@cache
def _evr_lwork(n: int) -> dict:
    # the workspace sizes scipy.linalg.eigh queries on every call
    return dict(zip(("lwork", "liwork"), _compute_lwork(_syevr_lwork, n=n, lower=True)))


def top_eig(M: np.ndarray) -> float:
    """Largest eigenvalue of sym(M) (= induced 2-norm for PSD), bit for bit
    as scipy.linalg.eigvalsh, which raises on non-finite input."""
    if M.shape == (1, 1):
        return float(M[0, 0])
    S = sym(M)
    if _syevr is not None and np.isfinite(S).all():
        w, _, _, _, info = _syevr(S, compute_v=0, lower=1, **_evr_lwork(len(S)))
        if info == 0:
            return float(w[-1])
    return float(la.eigvalsh(S)[-1])


def fro_norm(v: np.ndarray) -> float:
    """np.linalg.norm(v) of a real array, bit for bit, without its dispatch."""
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


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


def _routines_match() -> bool:
    # the routines are private to scipy: call them directly only where they
    # answer a small problem exactly as scipy.linalg.solve and eigvalsh do
    M = np.array([[4.0, 1.0, 2.0], [1.0, -3.0, 0.5], [2.0, 0.5, 3.0]])
    rhs = np.array([[1.0, 0.0], [2.0, 1.0], [0.0, 3.0]])
    try:
        return all(np.array_equal(_lapack_solve(M, rhs, _STRUCTURE[a], False,
                                                False, False, False)[0],
                                  la.solve(M, rhs, assume_a=a))
                   for a in _STRUCTURE) and np.array_equal(
            _syevr(M, compute_v=0, lower=1, **_evr_lwork(3))[0], la.eigvalsh(M))
    except Exception:  # pragma: no cover - another scipy
        return False


if _lapack_solve is not None and not _routines_match():  # pragma: no cover
    _lapack_solve = _syevr = None
