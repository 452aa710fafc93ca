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
multiplier program's slack coordinates: before its stage step it sets
lam_j = max(raw_j, b_j + margin) + s_j from the bound b_j of the stage,
so a candidate is projected and swept together. The sweep takes its
multipliers as given (margin -inf, no slack). Every pass steps every
stage it does not repeat, stage 0 included, and links its multipliers to
itself.

A pass stores each quantity once, stacked over its stages: Pi as an
(N-k+1, n, n) array, M as (N-k, m+q, m+q) and the gains [K_j; J_j] as one
(N-k, m+q, n) buffer, of which K and J are the first m and last q rows.
Every array it stores is read-only, so a sweep that sweep() hands back or
that another pass takes as its base cannot change under a later decision.

Stage j's step reads only Pi_{j+1} and lam_j, and Pi_N = Pf is fixed.
So a pass given a base, an earlier pass of the same program, offset and
tolerances, decides itself which stages it repeats: it evaluates its
rule over the base's bounds, in one vectorised expression that matches
the per-stage one bit for bit, against the base's multipliers. By
induction from Pi_N, every stage above the last one that differs repeats
the base bit for bit. The pass copies their slices of Pi, M, the gains,
the bounds and the eigenvectors and steps the rest, which are then bit
for bit those of a full pass; where none differs it returns the base
itself. The rule reads only the base's bounds and multipliers, so any
pass is a base, whatever its raw values, margin and slacks.

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
from dataclasses import dataclass, field

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
    """Backward sweep output for stages k..N, stacked over the stages.

    Pi, of shape (N-k+1, n, n), holds the cost-to-go matrix Pi[i] of stage
    k+i (so Pi[0] belongs to the sweep's start stage and Pi[-1] = Pf). M,
    K, J, bounds have one entry per stage k..N-1; K and J are views of one
    gain buffer [K; J]. bounds[i] = ||G'Pi_{k+i+1}G||, the feasibility
    threshold that lam_{k+i} must dominate.
    """

    Pi: np.ndarray
    M: np.ndarray
    K: np.ndarray
    J: np.ndarray
    lam: MultiplierVector
    bounds: np.ndarray
    _tops: np.ndarray = field(repr=False, compare=False)

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
    SF = Pi_{j+1} [B G A] and T = [B G]'SF. Returns (Pi_j, M, [K; J])."""
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
    return sym(p.Q + p.A.T @ SF[:, d:] - rhs.T @ KJ), M, KJ


def _require_tail(p: ProblemData, k: int, n_stages: int) -> None:
    """Raise ValueError unless n_stages multipliers from stage k cover
    stages k..N-1 with 0 <= k < N."""
    if not 0 <= k < p.N:
        raise ValueError(f"stage offset {k} outside horizon {p.N}")
    if k + n_stages != p.N:
        raise ValueError(
            f"multiplier vector covers stages {k}..{k + n_stages - 1}, "
            f"expected tail end at {p.N - 1}")


def _require_finite(lam: np.ndarray, k: int) -> None:
    """Raise InfeasibleMultiplier at the first non-finite lam_{k+j}."""
    if not np.isfinite(lam).all():
        j = int(np.flatnonzero(~np.isfinite(lam))[0])
        raise InfeasibleMultiplier(f"multiplier lam_{k + j} = {lam[j]} is not finite")


def _nested_pass(p: ProblemData, raw, k: int, tol: Tolerances,
                 margin: float = -np.inf, slack=None,
                 base: RiccatiSweep | None = None) -> tuple[RiccatiSweep, int]:
    """The backward recursion over len(raw) stages from Pi_N = Pf; k is
    the stage offset of the result, so raw covers stages k..N-1. Returns
    the sweep and the number of stage steps the pass took.

    Each stage j takes G'Pi_{j+1}G from its stacked product T and its top
    eigenvalue b_j (for q > 1 from eigh), which is the sweep's bounds[j],
    with a unit top eigenvector v_j (1 where q = 1) that it keeps in the
    sweep's _tops (row j) for the multiplier program's adjoint pass. Stage
    j first sets

        lam_j = max(raw_j, b_j + margin) + slack_j,

    with Pi_{j+1} built from the multipliers already set, so a finite
    margin makes the result feasible whatever raw is (raw = -inf gives the
    slack coordinates), and margin -inf takes raw as given. Raises
    InfeasibleMultiplier where lam_j < b_j - eps_boundary, SingularM at a
    stage step (stage 0's included). lam links weakly to the result and p.

    base is a pass of the same program, offset and tolerances, or None.
    With a base the pass evaluates that rule over base.bounds, copies the
    stages above the last one where it differs from base's multipliers
    (module docstring) and steps the rest; where none differs it returns
    base itself with 0 steps. Every array of the result is read-only.
    """
    lam = np.array(raw, dtype=float)
    n_stages = top = lam.shape[0]
    if base is not None:
        rule = np.maximum(lam, base.bounds + margin)
        if slack is not None:
            rule = rule + slack
        changed = np.flatnonzero(rule != base.lam.lambdas)  # NaN differs
        if not changed.size:
            return base, 0
        top = int(changed[-1]) + 1
    m, q = p.m, p.q
    d = m + q
    Pi = np.empty((n_stages + 1, p.n, p.n))
    M = np.empty((n_stages, d, d))
    KJ = np.empty((n_stages, d, p.n))
    bounds = np.zeros(n_stages)
    tops = np.empty((n_stages, q))
    F = np.hstack([p.B, p.G, p.A])
    E = F[:, :d]
    Pi[n_stages] = p.Pf
    if base is not None:
        Pi[top:] = base.Pi[top:]
        M[top:] = base.M[top:]
        KJ[top:, :m] = base.K[top:]
        KJ[top:, m:] = base.J[top:]
        bounds[top:] = base.bounds[top:]
        tops[top:] = base._tops[top:]
        lam[top:] = base.lam.lambdas[top:]
    for i in range(top - 1, -1, -1):
        SF = Pi[i + 1] @ F
        T = E.T @ SF
        bounds[i], tops[i] = top_eigpair(T[m:, m:d])
        if lam[i] < bounds[i] + margin:
            lam[i] = bounds[i] + margin
        if slack is not None:
            lam[i] += slack[i]
        if not lam[i] >= bounds[i] - tol.eps_boundary:  # NaN fails too
            raise InfeasibleMultiplier(
                f"lam = {lam[i]:.9g} below its bound ||G'Pi G|| = {bounds[i]:.9g}")
        Pi[i], M[i], KJ[i] = _stage_step(p, SF, T, float(lam[i]))
    for arr in (Pi, M, KJ, bounds, tops):
        arr.flags.writeable = False
    sw = RiccatiSweep(Pi=Pi, M=M, K=KJ[:, :m], J=KJ[:, m:],
                      lam=MultiplierVector(lam, stage_offset=k), bounds=bounds,
                      _tops=tops)
    object.__setattr__(sw.lam, "_pass", (weakref.ref(sw), weakref.ref(p)))
    return sw, top


def sweep(p: ProblemData, lam: MultiplierVector,
          tol: Tolerances | None = None) -> RiccatiSweep:
    """Run the backward recursion for the given multipliers.

    Raises ValueError unless the vector covers stages k..N-1 with
    0 <= k < N, InfeasibleMultiplier if a lam_j is not finite or below its
    nested bound, SingularM if a stage matrix cannot be solved reliably.
    Reuses the live full pass on p that built lam if its bounds pass tol.
    """
    tol = tol or Tolerances()
    k = lam.stage_offset
    _require_tail(p, k, len(lam))
    _require_finite(lam.lambdas, k)
    link = getattr(lam, "_pass", None)
    sw = link[0]() if link and link[1]() is p else None
    if sw is not None and not (lam.lambdas < sw.bounds - tol.eps_boundary).any():
        return sw
    return _nested_pass(p, lam.lambdas, k, tol)[0]


def project_feasible(p: ProblemData, lam_raw, margin: float | None = None,
                     stage_offset: int = 0,
                     tol: Tolerances | None = None) -> MultiplierVector:
    """Project a raw multiplier vector onto the feasible set, with margin.

    Single backward pass: each lam_j is raised to its bound (plus margin)
    computed under the already-projected later multipliers. Well-defined
    because the bound at stage j depends only on lam_{j+1:}. Feasible
    inputs are returned unchanged, non-finite ones InfeasibleMultiplier,
    and a vector that does not cover stages k..N-1 with 0 <= k < N
    ValueError.
    The pass steps every stage, stage 0 included, so a projection whose
    stage matrix is singular there (a multiplier at its bound with margin
    0, say) raises SingularM.
    """
    tol = tol or Tolerances()
    if margin is None:
        margin = tol.eps_boundary
    raw = np.array(lam_raw, dtype=float).ravel()
    _require_tail(p, stage_offset, raw.shape[0])
    _require_finite(raw, stage_offset)
    return _nested_pass(p, raw, stage_offset, tol, margin)[0].lam
