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
(N-k, m+q, n) buffer, of which K and J are the first m and last q rows,
and the eigenpairs of each G'Pi_{j+1}G, of which the bounds are a view.
Every array it stores is read-only, so a sweep that sweep() hands back or
that another pass takes as its base cannot change under a later decision.

Stage j's step reads only Pi_{j+1} and lam_j, and Pi_N = Pf is fixed.
So a pass given a base, an earlier pass of the same program, offset and
tolerances, decides itself which stages it repeats: it evaluates its
rule over the base's bounds, in one vectorised expression that matches
the per-stage one bit for bit, against the base's multipliers. By
induction from Pi_N, every stage above the last one that differs repeats
the base bit for bit. The pass copies their slices of Pi, M, the gains
and the eigenpairs and steps the rest, which are then bit for bit those
of a full pass; where none differs it returns the base itself. The rule
reads only the base's bounds and multipliers, so any pass is a base,
whatever its raw values, margin and slacks.

Each stage forms one bordered matrix from the constants F = [B G A] and
C = blockdiag(R, 0, Q), which ProblemData builds once: H =
sym(F'Pi_{j+1}F) + C. Its G block G'Pi_{j+1}G gives the stage's
eigenpairs, the top eigenvalue being the bound b_j; with lam_j taken off
that block's diagonal, M_j = H[:m+q, :m+q] and rhs = H[:m+q, m+q:]. One
more product, H [K_j; J_j; -I] = [M_j [K_j; J_j] - rhs; -Pi_j], gives
both the residual the stage solve is checked by and Pi_j, symmetric to
rounding (the next stage's H is symmetrized). The check compares the
residual with 1e-8 before it forms its scale, which is at least 1 where
the residual is finite and costs up to as much as the solve, so only a
residual above 1e-8 pays for the scale (_stage_step). At these sizes
numpy's per-call cost, not the arithmetic, sets a stage's time, so a
stage makes three products: Pi_{j+1}F, F'(Pi_{j+1}F) and that one.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from ._linalg import eigpairs, fro_norm
from .errors import InfeasibleMultiplier, SingularM
from .problem import _DEFAULT_TOL, ProblemData, Tolerances


@dataclass(frozen=True)
class MultiplierVector:
    """Multipliers lam_k ... lam_{N-1} for a solve starting at stage k."""

    lambdas: np.ndarray
    stage_offset: int = 0

    def __post_init__(self):
        arr = np.array(self.lambdas, dtype=float).ravel()  # a copy
        arr.setflags(write=False)
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
    gain buffer [K; J], _gains. Row r of _eigvecs[i] is a unit eigenvector
    of sym(G'Pi_{k+i+1}G) for _eigvals[i, r], ascending in r; bounds is the
    view _eigvals[:, -1]: bounds[i] = ||G'Pi_{k+i+1}G||, lam_{k+i}'s floor.
    """

    Pi: np.ndarray
    M: np.ndarray
    K: np.ndarray
    J: np.ndarray
    lam: MultiplierVector
    bounds: np.ndarray
    _eigvals: np.ndarray = field(repr=False, compare=False)
    _eigvecs: np.ndarray = field(repr=False, compare=False)
    _gains: np.ndarray = field(repr=False, compare=False)

    @property
    def stage_offset(self) -> int:
        return self.lam.stage_offset

    def horizon(self) -> int:
        return len(self.lam)


def at_bound(lam, bound, tol: Tolerances):
    """True where a multiplier sits at its nested bound: lam - bound within
    max(100 eps_boundary, 1e-7)(1 + |bound|). Takes floats or arrays."""
    return (lam - bound) <= max(100.0 * tol.eps_boundary, 1e-7) * (1.0 + abs(bound))


def _stage_step(p: ProblemData, H: np.ndarray, Z: np.ndarray, lam_j: float):
    """One backward step from the bordered matrix H (module docstring),
    which it shifts by -lam_j, and a copy Z of p.Z = [0; -I] it writes the
    gains into. Returns (Pi_j, M, [K; J]), M and [K; J] views of H and Z.

    The solve must leave resid = ||M [K; J] - rhs||_F <= 1e-8 scale, with
    scale = 1 + ||rhs||_F + max|M| ||[K; J]||_F, else SingularM. resid is
    tested against 1e-8 first, and the scale formed only above that: a
    resid at or below 1e-8 is finite, which a NaN or inf in M, rhs or
    [K; J] would not leave it, so there the scale is at least 1 and the
    full test accepts too. Either order decides the same."""
    m, d = p.m, p.m + p.q
    for r in range(m, d):  # q scalar updates beat one strided ufunc call
        H[r, r] -= lam_j
    M, rhs = H[:d, :d], H[:d, d:]
    try:
        Z[:d] = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularM(f"stage matrix singular at lam = {lam_j:.9g}") from exc
    HZ = H @ Z  # [M KJ - rhs; -Pi_j]
    resid = fro_norm(HZ[:d])
    if not resid <= 1e-8 and not resid <= 1e-8 * (  # also where not finite
            1.0 + fro_norm(rhs) + np.abs(M).max() * fro_norm(Z[:d])):
        raise SingularM(
            f"stage solve residual {resid:.3e} at lam = {lam_j:.9g}")
    return -HZ[d:], M, Z[:d]


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

    Each stage j takes G'Pi_{j+1}G from its bordered matrix H and all its
    eigenpairs (for q > 1 from eigh; 1 x 1 is its own), which it keeps in
    the sweep's _eigvals and _eigvecs for the multiplier program's adjoint
    pass and the sphere completion. The top eigenvalue b_j is the sweep's
    bounds[j]. Stage j first sets

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
    m, d = p.m, p.m + p.q
    Pi = np.empty((n_stages + 1, p.n, p.n))
    M = np.empty((n_stages, d, d))
    KJ = np.empty((n_stages, d, p.n))
    vals = np.empty((n_stages, p.q))
    vecs = np.empty((n_stages, p.q, p.q))  # rows, so each top vector is contiguous
    F, FT, C, Z = p.F, p.F.T, p.C, p.Z.copy()
    H = np.empty(C.shape)  # each stage's bordered matrix, in place
    Hg = H[m:d, m:d]
    Pi[n_stages] = p.Pf
    if base is not None:  # the stages it repeats, of every array it stores
        for arr, old in ((Pi, base.Pi), (M, base.M), (KJ, base._gains),
                         (vals, base._eigvals), (vecs, base._eigvecs),
                         (lam, base.lam.lambdas)):
            arr[top:] = old[top:]
    raw_j, slack_j = lam.tolist(), None if slack is None else slack.tolist()
    eps = tol.eps_boundary
    for i in range(top - 1, -1, -1):
        X = FT @ (Pi[i + 1] @ F)
        np.add(X, X.T, out=H)
        H *= 0.5
        H += C
        b, vals[i], vecs[i] = eigpairs(Hg)
        lam_i = raw_j[i]
        if lam_i < b + margin:
            lam_i = b + margin
        if slack_j is not None:
            lam_i += slack_j[i]
        if not lam_i >= b - eps:  # NaN fails too
            raise InfeasibleMultiplier(
                f"lam = {lam_i:.9g} below its bound ||G'Pi G|| = {b:.9g}")
        lam[i] = lam_i
        Pi[i], M[i], KJ[i] = _stage_step(p, H, Z, lam_i)
    for arr in (Pi, M, KJ, vals, vecs):
        arr.setflags(write=False)
    sw = RiccatiSweep(Pi=Pi, M=M, K=KJ[:, :m], J=KJ[:, m:],
                      lam=MultiplierVector(lam, stage_offset=k),
                      bounds=vals[:, -1], _eigvals=vals, _eigvecs=vecs, _gains=KJ)
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
    tol = tol or _DEFAULT_TOL
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
    tol = tol or _DEFAULT_TOL
    if margin is None:
        margin = tol.eps_boundary
    raw = np.array(lam_raw, dtype=float).ravel()
    _require_tail(p, stage_offset, raw.shape[0])
    _require_finite(raw, stage_offset)
    return _nested_pass(p, raw, stage_offset, tol, margin)[0].lam
