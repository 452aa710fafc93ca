"""Multiplier-parameterized backward Riccati sweep and its feasibility set.

For a multiplier vector lam = (lam_k, ..., lam_{N-1}) the recursion is

    Pi_N = Pf
    M_j  = [[B'Pi_{j+1}B + R,  B'Pi_{j+1}G        ],
            [G'Pi_{j+1}B,      G'Pi_{j+1}G - lam_j I]]
    Pi_j = Q + A'Pi_{j+1}A - [A'Pi_{j+1}B, A'Pi_{j+1}G] M_j^{-1} [.]'

with gains [K_j; J_j] = M_j^{-1} [B'Pi_{j+1}A; G'Pi_{j+1}A], applied as
u = -K_j x and w_bar = -J_j x. Feasibility is the nested set
lam_j >= ||G'Pi_{j+1}(lam_{j+1:})G||, which is not a product set: the bound
at stage j depends on the multipliers of all later stages.

One backward pass serves the sweep, the projection onto that set and the
multiplier program's slack coordinates: before its stage step it may set
lam_j = max(raw_j, b_j + margin) + s_j from the bound b_j of the stage,
so a candidate is projected and swept together.

Each stage forms two stacked products, with F = [B G A] built once per
pass and E = [B G] its first m + q columns:

    SF = Pi_{j+1} F,    T = E'SF = [E'Pi_{j+1}E, E'Pi_{j+1}A].

T[:, :m+q] is M_j before R and -lam_j I are added, its block
T[m:, m:m+q] = G'Pi_{j+1}G gives the bound b_j, T[:, m+q:] is the
right-hand side [B'Pi_{j+1}A; G'Pi_{j+1}A], and A'Pi_{j+1}A = A'SF[:, m+q:].
At these sizes numpy's per-call cost, not the arithmetic, sets a stage's
time, so two products replace the ten that form the blocks one by one.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from ._linalg import fro_norm, sym, top_eigpair
from .errors import InfeasibleMultiplier, SingularM
from .problem import ProblemData, Tolerances


@dataclass(frozen=True)
class MultiplierVector:
    """Multipliers lam_k ... lam_{N-1} for a solve starting at stage k."""

    lambdas: np.ndarray
    stage_offset: int = 0

    def __post_init__(self):
        arr = np.asarray(self.lambdas, dtype=float).ravel().copy()
        arr.flags.writeable = False
        object.__setattr__(self, "lambdas", arr)
        object.__setattr__(self, "stage_offset", int(self.stage_offset))

    def __len__(self) -> int:
        return self.lambdas.shape[0]

    def __reduce__(self):  # copies and pickles leave the pass link behind
        return MultiplierVector, (self.lambdas, self.stage_offset)


@dataclass(frozen=True)
class RiccatiSweep:
    """Backward sweep output for stages k..N.

    Pi[i] is the cost-to-go matrix at stage k+i (so Pi[0] belongs to the
    sweep's start stage and Pi[-1] = Pf). M, K, J, bounds have one entry per
    stage k..N-1; bounds[i] = ||G'Pi_{k+i+1}G||, the feasibility threshold
    that lam_{k+i} must dominate.
    """

    Pi: tuple
    M: tuple
    K: tuple
    J: tuple
    lam: MultiplierVector
    bounds: np.ndarray

    @property
    def stage_offset(self) -> int:
        return self.lam.stage_offset

    def horizon(self) -> int:
        return len(self.lam)


def at_bound(lam, bound, tol: Tolerances):
    """True where a multiplier sits at its nested bound: lam - bound within
    max(100 eps_boundary, 1e-7)(1 + |bound|). Takes floats or arrays."""
    return (lam - bound) <= max(100.0 * tol.eps_boundary, 1e-7) * (1.0 + abs(bound))


def _stage_step(p: ProblemData, SF: np.ndarray, T: np.ndarray, lam_j: float):
    """One backward step from Pi_{j+1}, given its stacked products
    SF = Pi_{j+1} [B G A] and T = [B G]'SF. Returns (Pi_j, M, K, J)."""
    m, d = p.m, p.m + p.q
    M = sym(T[:, :d])
    M[:m, :m] += p.R
    M.ravel()[m * (d + 1)::d + 1] -= lam_j  # G'SG - lam_j I on the diagonal
    rhs = T[:, d:]
    try:
        KJ = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularM(f"stage matrix singular at lam = {lam_j:.9g}") from exc
    resid = fro_norm(M @ KJ - rhs)
    scale = 1.0 + fro_norm(rhs) + np.abs(M).max() * fro_norm(KJ)
    if not resid <= 1e-8 * scale:  # also where M or rhs is not finite
        raise SingularM(
            f"stage solve residual {resid:.3e} at lam = {lam_j:.9g}")
    Pi = sym(p.Q + p.A.T @ SF[:, d:] - rhs.T @ KJ)
    return Pi, M, KJ[:m], KJ[m:]


def _require_finite(lam: np.ndarray, k: int) -> None:
    """Raise InfeasibleMultiplier at the first non-finite lam_{k+j}."""
    if not np.isfinite(lam).all():
        j = int(np.flatnonzero(~np.isfinite(lam))[0])
        raise InfeasibleMultiplier(f"multiplier lam_{k + j} = {lam[j]} is not finite")


def _nested_pass(p: ProblemData, raw, k: int, tol: Tolerances,
                 margin: float | None = None, slack=None,
                 step0: bool = True) -> RiccatiSweep:
    """The backward recursion over len(raw) stages from Pi_N = Pf; k is
    the stage offset of the result, so raw covers stages k..N-1.

    Each stage j takes G'Pi_{j+1}G from its stacked product T and its top
    eigenvalue b_j (for q > 1 from eigh), which is the sweep's bounds[j],
    with a unit top eigenvector v_j (1 where q = 1) that it keeps in the
    sweep's private _tops (row j) for the multiplier program's adjoint
    pass. With margin
    None the multipliers are raw as given. Otherwise stage j first sets

        lam_j = max(raw_j, b_j + margin) + slack_j,

    with Pi_{j+1} built from the multipliers already set, so the result is
    feasible whatever raw is (raw = -inf gives the slack coordinates).
    Raises InfeasibleMultiplier where lam_j < b_j - eps_boundary. step0
    False skips stage 0's step, which near the bound can fail (Pi[0],
    M[0], K[0], J[0] None); else lam links weakly to the result and to p.
    """
    lam = np.array(raw, dtype=float)
    n_stages = lam.shape[0]
    Pi = [None] * (n_stages + 1)
    M = [None] * n_stages
    K = [None] * n_stages
    J = [None] * n_stages
    bounds = np.zeros(n_stages)
    tops = np.empty((n_stages, p.q))
    m, q = p.m, p.q
    d = m + q
    F = np.hstack([p.B, p.G, p.A])
    E = F[:, :d]
    S = Pi[n_stages] = p.Pf
    for i in range(n_stages - 1, -1, -1):
        SF = S @ F
        T = E.T @ SF
        bounds[i], tops[i] = top_eigpair(T[m:, m:d])
        if margin is not None:
            if lam[i] < bounds[i] + margin:
                lam[i] = bounds[i] + margin
            if slack is not None:
                lam[i] += slack[i]
        if not lam[i] >= bounds[i] - tol.eps_boundary:  # NaN fails too
            raise InfeasibleMultiplier(
                f"lam = {lam[i]:.9g} below its bound ||G'Pi G|| = {bounds[i]:.9g}")
        if i > 0 or step0:
            S, M[i], K[i], J[i] = _stage_step(p, SF, T, float(lam[i]))
            Pi[i] = S
    sw = RiccatiSweep(Pi=tuple(Pi), M=tuple(M), K=tuple(K), J=tuple(J),
                      lam=MultiplierVector(lam, stage_offset=k), bounds=bounds)
    object.__setattr__(sw, "_tops", tops)
    if step0:
        object.__setattr__(sw.lam, "_pass", (weakref.ref(sw), weakref.ref(p)))
    return sw


def sweep(p: ProblemData, lam: MultiplierVector,
          tol: Tolerances | None = None) -> RiccatiSweep:
    """Run the backward recursion for the given multipliers.

    Raises InfeasibleMultiplier if a lam_j is not finite or below its
    nested bound, SingularM if a stage matrix cannot be solved reliably.
    Reuses the live full pass on p that built lam if its bounds pass tol.
    """
    tol = tol or Tolerances()
    n_stages = len(lam)
    k = lam.stage_offset
    if k + n_stages != p.N:
        raise ValueError(
            f"multiplier vector covers stages {k}..{k + n_stages - 1}, "
            f"expected tail end at {p.N - 1}")
    _require_finite(lam.lambdas, k)
    link = getattr(lam, "_pass", None)
    sw = link[0]() if link and link[1]() is p else None
    if sw is not None and not (lam.lambdas < sw.bounds - tol.eps_boundary).any():
        return sw
    return _nested_pass(p, lam.lambdas, k, tol)


def project_feasible(p: ProblemData, lam_raw, margin: float | None = None,
                     stage_offset: int = 0,
                     tol: Tolerances | None = None) -> MultiplierVector:
    """Project a raw multiplier vector onto the feasible set, with margin.

    Single backward pass: each lam_j is raised to its bound (plus margin)
    computed under the already-projected later multipliers. Well-defined
    because the bound at stage j depends only on lam_{j+1:}. Feasible
    inputs are returned unchanged, non-finite ones InfeasibleMultiplier.
    """
    tol = tol or Tolerances()
    if margin is None:
        margin = tol.eps_boundary
    raw = np.array(lam_raw, dtype=float).ravel()
    if stage_offset + raw.shape[0] != p.N:
        raise ValueError("multiplier vector length inconsistent with horizon")
    _require_finite(raw, stage_offset)
    return _nested_pass(p, raw, stage_offset, tol, margin, step0=False).lam
