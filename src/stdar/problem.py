"""Problem data and structural validation.

The regulated system is x+ = A x + B u + G w with stage cost
l(x, u) = (x'Qx + u'Ru)/2, terminal cost x'Pf x / 2, and a per-stage
disturbance bound ||w_k||^2 <= alpha_k over a horizon of N stages.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from ._linalg import sqrt_psd
from .errors import AssumptionViolated, DimensionMismatch

_SYM_RTOL = 1e-8
_TOL_PSD = 1e-9     # eigenvalue floor of the PSD and PD checks
_TOL_RANGE = 1e-10  # range inclusion, relative to max(1, ||G||)
_TOL_ZERO = 1e-12   # the terminal coupling G'Pf G counts as nonzero above it


def _integer(v, name: str = "") -> int:
    """An integer or an integral float; not a boolean or a string."""
    if type(v) is int:  # the common case, before the ABC checks
        return v
    if isinstance(v, numbers.Real) and not isinstance(v, bool) and (
            isinstance(v, numbers.Integral) or float(v).is_integer()):
        return int(v)
    raise ValueError(f"{name}{v!r} is not an integer")


def _as_array(value, name: str, ndim: int) -> np.ndarray:
    """value as a float vector (ndim 1) or matrix (ndim 2): a scalar is one
    entry, and a row or column is a vector. DimensionMismatch at another
    rank or an empty dimension, ValueError at a non-finite entry."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape((1,) * ndim)
    elif ndim == 1 and arr.ndim == 2 and 1 in arr.shape:
        arr = arr.ravel()
    if arr.ndim != ndim:
        kind = ("vector", "matrix")[ndim - 1]
        raise DimensionMismatch(f"{name} must be a {kind}, got ndim={arr.ndim}")
    if arr.size == 0:
        raise DimensionMismatch(f"{name} is empty, shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _as_point(value, size: int, name: str) -> np.ndarray:
    """A state or control as a float vector of the given size; ValueError
    where its size differs or an entry is not finite."""
    arr = np.asarray(value, dtype=float).ravel()
    if arr.size != size:
        raise ValueError(f"{name} has size {arr.size}, expected {size}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} is not finite")
    return arr


def _symmetrized(M: np.ndarray, name: str) -> np.ndarray:
    # ||M - M'|| <= _SYM_RTOL (1 + ||M||) tested on M / s, s = 2^e > max|M| / 2:
    # exact where M's norms are finite, and no norm overflows where they are not
    s = 2.0 ** max(0, int(np.frexp(np.abs(M).max(initial=0.0))[1]) - 1)
    S = M / s
    skew = np.linalg.norm(S - S.T)
    if skew > _SYM_RTOL * (1.0 / s + np.linalg.norm(S)):
        raise ValueError(f"{name} is not symmetric (||M - M'|| = {float(skew) * s:.3e})")
    return s * (0.5 * (S + S.T))


@dataclass(frozen=True)
class ProblemData:
    """Immutable problem description. Matrices are dense, double precision.

    alpha may be passed as a scalar (broadcast over the horizon) or a
    length-N sequence. Matrices accept scalars for 1x1 systems; no array
    may be empty, so n, m and q are at least 1.

    Besides its fields it holds the sizes n, m, q and the constants every
    backward stage reads, built once and read-only like its arrays:
    F = [B G A], C = blockdiag(R, 0, Q) and Z = [0; I], the template a
    stage writes -[K; J] into. The constructor copies its inputs, and
    copies and pickles are rebuilt through it, so they are read-only too.
    The steady state's B R^{-1} B', G G', Q^{1/2} and R^{1/2} are formed on
    first read, as the read-only arrays of `_steady_constants`.
    """

    A: np.ndarray
    B: np.ndarray
    G: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    Pf: np.ndarray
    N: int
    alpha: np.ndarray
    x0: np.ndarray = field(default=None)
    n: int = field(init=False, repr=False, compare=False)
    m: int = field(init=False, repr=False, compare=False)
    q: int = field(init=False, repr=False, compare=False)
    F: np.ndarray = field(init=False, repr=False, compare=False)
    C: np.ndarray = field(init=False, repr=False, compare=False)
    Z: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A, B, G = (_as_array(getattr(self, k), k, 2) for k in ("A", "B", "G"))
        n, m, q = A.shape[0], B.shape[1], G.shape[1]
        if A.shape != (n, n):
            raise DimensionMismatch(f"A must be square, got {A.shape}")
        for name, M in (("B", B), ("G", G)):
            if M.shape[0] != n:
                raise DimensionMismatch(f"{name} has {M.shape[0]} rows, expected {n}")
        Q, R, Pf = (_symmetrized(_as_array(getattr(self, k), k, 2), k)
                    for k in ("Q", "R", "Pf"))
        for name, M, k in (("Q", Q, n), ("R", R, m), ("Pf", Pf, n)):
            if M.shape != (k, k):
                raise DimensionMismatch(f"{name} must be {k}x{k}, got {M.shape}")
        N = _integer(self.N, "N = ")
        if N < 1:
            raise ValueError("N must be at least 1")
        alpha = np.asarray(self.alpha, dtype=float)
        if alpha.ndim == 0:
            alpha = np.full(N, float(alpha))
        alpha = _as_array(alpha, "alpha", 1)
        if alpha.shape != (N,):
            raise DimensionMismatch(f"alpha must have length {N}, got {alpha.shape[0]}")
        if np.any(alpha <= 0.0):
            raise ValueError("all stage bounds alpha_k must be strictly positive")
        x0 = _as_array(np.zeros(n) if self.x0 is None else self.x0, "x0", 1)
        if x0.shape != (n,):
            raise DimensionMismatch(f"x0 must have length {n}, got {x0.shape[0]}")
        d = m + q
        C = np.zeros((d + n, d + n))
        C[:m, :m], C[d:, d:] = R, Q
        for name, arr in (("A", A), ("B", B), ("G", G), ("Q", Q), ("R", R),
                          ("Pf", Pf), ("alpha", alpha), ("x0", x0),
                          ("F", np.hstack([B, G, A])), ("C", C),
                          ("Z", np.vstack([np.zeros((d, n)), np.eye(n)]))):
            arr = np.array(arr, order="C")  # a copy: the caller keeps its arrays
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        for name, value in (("N", N), ("n", n), ("m", m), ("q", q)):
            object.__setattr__(self, name, value)

    def __reduce__(self):  # copies and pickles rebuild through the constructor
        return ProblemData, (self.A, self.B, self.G, self.Q, self.R, self.Pf,
                             self.N, self.alpha, self.x0)

    @cached_property
    def alpha_bar(self) -> float:
        """The full-horizon disturbance budget, the sum of alpha."""
        return float(self.alpha.sum())

    @cached_property
    def _steady_constants(self) -> tuple:
        """B R^{-1} B' and G G' of the probe's Z, Q^{1/2} and R^{1/2},
        read-only; AssumptionViolated where R is singular."""
        try:
            BRB = self.B @ np.linalg.solve(self.R, self.B.T)
        except np.linalg.LinAlgError:
            low = np.linalg.eigvalsh(self.R)[0]
            raise AssumptionViolated(f"R positive definite: min eigenvalue {low:.3e}") from None
        out = (BRB, self.G @ self.G.T, sqrt_psd(self.Q), sqrt_psd(self.R))
        for arr in out:
            arr.flags.writeable = False
        return out

    def stage_cost(self, x: np.ndarray, u: np.ndarray) -> float:
        return 0.5 * float(x @ self.Q @ x + u @ self.R @ u)

    def terminal_cost(self, x: np.ndarray) -> float:
        return 0.5 * float(x @ self.Pf @ x)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the structural checks. Hard failures raise instead."""

    stabilizable: bool
    detectable: bool
    strict_weights: bool
    degenerate_terminal: bool
    warnings: tuple[str, ...]


def _pbh_unit_circle(p: ProblemData) -> tuple[bool, bool]:
    """(stabilizable, detectable): the PBH tests of (A, B) and (A, Q) at
    every eigenvalue of A on or outside the unit circle, taken once."""
    stabilizable = detectable = True
    for mu in np.linalg.eigvals(p.A):
        if abs(mu) < 1.0 - 1e-12:
            continue
        shifted = mu * np.eye(p.n) - p.A
        stabilizable &= np.linalg.matrix_rank(np.hstack([shifted, p.B])) == p.n
        detectable &= np.linalg.matrix_rank(np.vstack([shifted, p.Q])) == p.n
    return bool(stabilizable), bool(detectable)


def validate_problem(p: ProblemData,
                     allow_degenerate_terminal: bool = False) -> ValidationReport:
    """Check the structural assumptions on the problem data.

    Range inclusion range(G) <= range(B) and terminal coupling G'Pf G != 0
    are hard errors (the latter downgraded to a warning under
    allow_degenerate_terminal). Stabilizability, detectability, and strict
    positive definiteness of Q and Pf are reported as warnings only.
    """
    warnings: list[str] = []

    low = {name: np.linalg.eigvalsh(M)[0]
           for name, M in (("Q", p.Q), ("Pf", p.Pf), ("R", p.R))}
    for name in ("Q", "Pf"):
        if low[name] < -_TOL_PSD:
            raise AssumptionViolated(f"{name} positive semidefinite: "
                                     f"min eigenvalue {low[name]:.3e}")
    if low["R"] <= _TOL_PSD:
        raise AssumptionViolated(f"R positive definite: min eigenvalue {low['R']:.3e}")

    stabilizable, detectable = _pbh_unit_circle(p)
    if not stabilizable:
        warnings.append("(A, B) fails the PBH stabilizability test on the unit circle")
    if not detectable:
        warnings.append("(A, Q) fails the PBH detectability test on the unit circle")

    # range(G) <= range(B), tested as ||(I - B B+) G|| <= _TOL_RANGE max(1, ||G||)
    resid = np.linalg.norm(p.G - p.B @ (np.linalg.pinv(p.B) @ p.G))
    if not resid <= _TOL_RANGE * max(1.0, np.linalg.norm(p.G)):
        raise AssumptionViolated(f"range inclusion: ||(I - B B+) G|| = {resid:.3e}")

    coupling = np.linalg.norm(p.G.T @ p.Pf @ p.G)
    degenerate_terminal = not coupling > _TOL_ZERO
    if degenerate_terminal:
        if not allow_degenerate_terminal:
            raise AssumptionViolated(f"G'Pf G nonzero: ||G'Pf G|| = {coupling:.3e}")
        warnings.append("G'Pf G = 0: terminal stage handled through the "
                        "convexity boundary argument (degenerate terminal)")

    strict_weights = low["Q"] > _TOL_PSD and low["Pf"] > _TOL_PSD
    if not strict_weights:
        warnings.append("Q or Pf is not strictly positive definite; "
                        "steady-state uniqueness arguments may not apply")

    return ValidationReport(
        stabilizable=stabilizable,
        detectable=detectable,
        strict_weights=strict_weights,
        degenerate_terminal=degenerate_terminal,
        warnings=tuple(warnings),
    )
