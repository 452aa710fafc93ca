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
stage it does not repeat, stage 0 included, and is the multiplier vector
it set: a RiccatiSweep is a MultiplierVector, with the sweep at it.

A pass stores what its readers read, each once and stacked over its
stages: Pi as an (N-k+1, n, n) array, the gains [K_j; J_j] as one
(N-k, m+q, n) buffer, of which K and J are the first m and last q rows,
and the eigenpairs of each G'Pi_{j+1}G, of which the bounds are a view,
but not M_j. Every array a pass stores is read-only, so a sweep that
sweep() hands back or that another pass takes as its base cannot change
under a later decision.

Stage j's step reads only Pi_{j+1} and lam_j, and Pi_N = Pf is fixed.
So a pass given a base, an earlier pass of the same program and offset,
evaluates its rule over the base's bounds, in one vectorised expression
that matches the per-stage one bit for bit. By induction from Pi_N,
every stage above the last one where it differs from the base's
multipliers repeats the base bit for bit: the pass copies those stages
and steps the rest, or returns the base itself where none differs. The
rule reads only the base's bounds and multipliers, so any pass is a base.

Within a pass too: where a stage j > i, stepped or copied already, had
stage i's raw multiplier and slack and its Pi_{j+1} has Pi_{i+1}'s bytes
(not values: 0.0 == -0.0), stage i's outputs are stage j's bit for bit,
and the pass copies them, as no step, with those below i that repeat at
lag j - i in raw and slack, a cycle's rest, in one indexed copy. So one
lookup catches a fixed point and a cycle of any period: a turnpike.

Each stage forms one bordered matrix from the constants F = [B G A] and
C = blockdiag(R, 0, Q), which ProblemData builds once: H =
sym(F'Pi_{j+1}F) + C, as X + X' + C with X = F'(Pi_{j+1}(F/2)), exactly
half of F'Pi_{j+1}F. Its G block gives the stage's eigenpairs (eigpairs,
closed-form at q = 2; at q = 1 its one entry is the bound b_j); with
lam_j taken off that block's diagonal, M_j = H[:m+q, :m+q] and rhs =
H[:m+q, m+q:]. The solve's [K_j; J_j], negated into the template Z =
[0; I], gives one more product, H Z = [rhs - M_j [K_j; J_j]; Pi_j]: the
residual that checks the solve (_stage_step) and Pi_j, symmetric to
rounding, in the stage's slot of the pass's stacked products, of which
Pi is a view. numpy's per-call cost, not the arithmetic, sets a stage's
time, so a stage makes three ndarray.dot products (half the per-call
cost of @) and few other calls: at n = 3, m = 2, q = 1 about 10.5 us on
a 2-core x86-64 host with one BLAS thread, 4.8 us of it np.linalg.solve;
at n = m = 3 a pass costs about 1.26 times as much at q = 2, whose
eigenpairs take about 2 us a stage. A pass raises SingularM where
G'Pi_{j+1}G or Pi_k is not finite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from ._linalg import eigpairs, fro_norm
from .errors import InfeasibleMultiplier, SingularM
from .problem import ProblemData, _integer

# The margin the multiplier program keeps above each bound ||G'Pi G||, and
# how far below its bound a pass accepts a multiplier.
EPS_BOUNDARY = 1e-9


@dataclass(frozen=True, eq=False)
class MultiplierVector:
    """Multipliers lam_k ... lam_{N-1} for a solve starting at stage k.
    Equality is identity, and a vector hashes."""

    lambdas: np.ndarray
    stage_offset: int = 0

    def __post_init__(self):
        arr = np.array(self.lambdas, dtype=float).ravel()  # a copy
        arr.setflags(write=False)
        object.__setattr__(self, "lambdas", arr)
        object.__setattr__(self, "stage_offset", _integer(self.stage_offset, "stage_offset = "))

    def __len__(self) -> int:
        return self.lambdas.shape[0]

    def __reduce__(self):  # copies and pickles leave the pass behind
        return MultiplierVector, (self.lambdas, self.stage_offset)


@dataclass(frozen=True, eq=False)  # frozen, and keeps the __init__ below
class RiccatiSweep(MultiplierVector):
    """A pass: the multipliers it set and the sweep at them, stacked over k..N.
    Only the recursion makes one (the constructor raises TypeError), it is
    frozen, and a copy or pickle is a plain MultiplierVector.

    Pi, of shape (N-k+1, n, n), holds the cost-to-go matrix Pi[i] of stage
    k+i (so Pi[0] belongs to the sweep's start stage and Pi[-1] = Pf). K,
    J, bounds have one entry per stage k..N-1; K and J are views of one
    gain buffer [K; J], _gains. Row r of _eigvecs[i] is a unit eigenvector
    of sym(G'Pi_{k+i+1}G) for _eigvals[i, r], ascending in r; bounds is the
    view _eigvals[:, -1]: bounds[i] = ||G'Pi_{k+i+1}G||, lam_{k+i}'s floor.
    _problem is the ProblemData the pass ran on, for sweep() to read.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("a RiccatiSweep is made by a pass: call sweep(p, lam)")


def at_bound(lam, bound):
    """True where a multiplier sits at its nested bound: lam - bound within
    100 EPS_BOUNDARY (1 + |bound|). Takes floats or arrays."""
    return (lam - bound) <= 100.0 * EPS_BOUNDARY * (1.0 + abs(bound))


def _stage_step(H, M, rhs, Z, KJn, out, lam_j: float) -> np.ndarray:
    """One backward step from the bordered matrix H (module docstring),
    shifted by -lam_j on its G block's diagonal, and its views M and rhs.
    Writes -[K; J] into KJn, the top block of the template Z, and
    H Z = [rhs - M [K; J]; Pi_j] into out. Returns [K; J].

    The solve must leave resid = ||M [K; J] - rhs||_F <= 1e-8 scale, with
    scale = 1 + ||rhs||_F + max|M| ||[K; J]||_F, else SingularM. resid is
    tested against 1e-8 first, and the scale formed only above that: a
    resid at or below 1e-8 is finite, which a NaN or inf in M, rhs or
    [K; J] would not leave it, so there the full test accepts too."""
    try:
        KJ = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularM(f"stage matrix singular at lam = {lam_j:.9g}") from exc
    np.negative(KJ, out=KJn)
    resid = fro_norm(H.dot(Z, out=out)[:len(KJ)])
    if not resid <= 1e-8 and not resid <= 1e-8 * (  # also where not finite
            1.0 + fro_norm(rhs) + np.abs(M).max() * fro_norm(KJ)):
        raise SingularM(
            f"stage solve residual {resid:.3e} at lam = {lam_j:.9g}")
    return KJ


def _require_offset(lam: MultiplierVector, k) -> int:
    """k as an int: TypeError unless lam is a MultiplierVector, ValueError
    unless k is an integer (_integer) at which lam starts."""
    if not isinstance(lam, MultiplierVector):
        raise TypeError(f"expected a MultiplierVector, not {type(lam).__name__}")
    k = _integer(k, "stage offset ")
    if lam.stage_offset != k:
        raise ValueError(f"multipliers start at stage {lam.stage_offset}, not {k}")
    return k


def _tail_vector(p: ProblemData, lam, k: int) -> np.ndarray:
    """Raw multipliers lam_k..lam_{N-1} as a float vector; None is -inf at
    every stage, the lower corner, and a MultiplierVector must start at k.
    Raises ValueError unless 0 <= k < N and lam covers stages k..N-1,
    InfeasibleMultiplier at its first entry that is not finite."""
    if not 0 <= k < p.N:
        raise ValueError(f"stage offset {k} outside horizon {p.N}")
    if lam is None:
        return np.full(p.N - k, -np.inf)
    if isinstance(lam, MultiplierVector):
        _require_offset(lam, k)
        lam = lam.lambdas
    lam = np.asarray(lam, dtype=float).ravel()
    if k + lam.size != p.N:
        raise ValueError(
            f"multiplier vector covers stages {k}..{k + lam.size - 1}, "
            f"expected tail end at {p.N - 1}")
    if not np.isfinite(lam).all():
        j = int(np.flatnonzero(~np.isfinite(lam))[0])
        raise InfeasibleMultiplier(f"multiplier lam_{k + j} = {lam[j]} is not finite")
    return lam


def _bordered(FT, Fh, C, Pi_next, out) -> np.ndarray:
    """H = X + X' + C, X = F'(Pi_next(F/2)), into out (module docstring)."""
    X = FT.dot(Pi_next.dot(Fh))  # F'Pi F / 2, exactly
    np.add(X, X.T, out=out)
    out += C
    return out


def _nested_pass(p: ProblemData, raw, k: int, margin: float = -np.inf, slack=None,
                 base: RiccatiSweep | None = None) -> tuple[RiccatiSweep, int, int]:
    """The backward recursion over len(raw) stages from Pi_N = Pf; k is
    the stage offset of the result, so raw covers stages k..N-1. Returns
    the sweep, its depth (len(raw), or with a base the stages it reached)
    and its stage steps, the depth less the stages it copied.

    Stage j keeps all eigenpairs of G'Pi_{j+1}G in the sweep's _eigvals and
    _eigvecs, for the multiplier program's adjoint pass and the sphere
    completion; the top eigenvalue b_j is bounds[j]. It first sets

        lam_j = max(raw_j, b_j + margin) + slack_j,

    with Pi_{j+1} built from the multipliers already set, so a finite
    margin makes the result feasible whatever raw is (raw = -inf gives the
    slack coordinates), and margin -inf takes raw as given. Raises
    InfeasibleMultiplier where lam_j < b_j - EPS_BOUNDARY, SingularM at a
    stage step or where the recursion overflows. The result is the vector
    lam it set, with the sweep at lam and p.

    base is a pass of the same program and offset, or None; with a base
    the pass copies the stages it repeats (module docstring), or returns
    base itself, at depth 0. Below those it copies each stage whose
    inputs, Pi_{j+1}'s bytes, raw_j and slack_j, an earlier stage of its
    own had (a cycle's rest at once). Its arrays are all read-only.
    """
    lam = np.array(raw, dtype=float)
    n_stages = top = lam.shape[0]
    if base is not None:
        rule = base.bounds + margin
        np.maximum(rule, lam, out=rule)
        if slack is not None:
            rule += slack
        changed = (rule != base.lambdas).nonzero()[0]  # NaN differs
        if not changed.size:
            return base, 0, 0
        top = int(changed[-1]) + 1
    n, m, q, d = p.n, p.m, p.q, p.m + p.q
    HZ = np.empty((n_stages + 1, d + n, n))  # slot j: H Z = [rhs - M KJ; Pi_j]
    Pi, KJ = HZ[:, d:], np.empty((n_stages, d, n))
    vals, vecs = np.empty((n_stages, q)), np.ones((n_stages, q, q))  # vecs by rows
    FT, Fh, C, Z = p.F.T, 0.5 * p.F, p.C, p.Z.copy()
    H = np.empty(C.shape)  # each stage's bordered matrix, in place
    M, rhs, KJn, Hg = H[:d, :d], H[:d, d:], Z[:d], H[m:d, m:d]
    if base is None:
        Pi[n_stages] = p.Pf
    else:  # the stages it repeats, of every array it stores
        for arr, old in ((Pi, base.Pi), (KJ, base._gains), (vals, base._eigvals),
                         (vecs, base._eigvecs), (lam, base.lambdas)):
            arr[top:] = old[top:]
    raw_j, steps = lam[:top].tolist(), top
    slack_j = None if slack is None else slack[:top].tolist()
    first = {}  # a stage's inputs (Pi_{i+1}'s bytes, raw, slack) -> first stage set
    stages = iter(range(top - 1, -1, -1))
    for i in stages:
        Pi_next = Pi[i + 1]
        j = first.setdefault((Pi_next.tobytes(), raw_j[i], slack_j and slack_j[i]), i)
        if j != i:  # stage j had these inputs: i, i - 1, ... repeat at lag P
            P, low = j - i, i
            while low and raw_j[low - 1] == raw_j[low - 1 + P] and (
                    slack_j is None or slack_j[low - 1] == slack_j[low - 1 + P]):
                low -= 1
            src = np.arange(low - i - 1, 0) % P + (i + 1)  # in i + 1..j
            for arr in (lam, KJ, HZ, vals, vecs):
                arr[low:i + 1] = arr[src]
            steps -= i + 1 - low
            next(islice(stages, i - low, i - low), None)  # skip low..i - 1
            continue
        _bordered(FT, Fh, C, Pi_next, H)
        if q == 1:  # the bound is H's one G entry; vecs holds its [[1]]
            b = vals[i, 0] = H.item(m, m)
        else:
            try:
                b, vals[i], vecs[i] = eigpairs(Hg)
            except ValueError:
                b = math.nan
        if not math.isfinite(b):
            raise SingularM(f"G'Pi G not finite at stage {k + i}")
        lam_i = raw_j[i]
        if lam_i < b + margin:
            lam_i = b + margin
        if slack_j is not None:
            lam_i += slack_j[i]
        if not lam_i >= b - EPS_BOUNDARY:  # NaN fails too
            raise InfeasibleMultiplier(
                f"lam = {lam_i:.9g} below its bound ||G'Pi G|| = {b:.9g}")
        lam[i] = lam_i
        for r in range(m, d):  # q scalar updates beat a strided ufunc
            H[r, r] -= lam_i
        KJ[i] = _stage_step(H, M, rhs, Z, KJn, HZ[i], lam_i)
    if not np.isfinite(Pi[0]).all():  # no later stage reads it
        raise SingularM(f"Pi not finite at stage {k}")
    for arr in (HZ, KJ, vals, vecs, lam):
        arr.setflags(write=False)
    sw = object.__new__(RiccatiSweep)  # no copy
    sw.__dict__.update(lambdas=lam, stage_offset=k, Pi=HZ[:, d:], K=KJ[:, :m],
                       J=KJ[:, m:], bounds=vals[:, -1], _eigvals=vals,
                       _eigvecs=vecs, _gains=KJ, _problem=p)
    return sw, top, steps


def sweep(p: ProblemData, lam: MultiplierVector) -> RiccatiSweep:
    """Run the backward recursion for the given multipliers.

    A pass on p is returned as itself, unchecked: it covers stages k..N-1
    and raised on any non-finite multiplier as it set it. Anything else
    raises TypeError unless a MultiplierVector, ValueError unless it covers
    stages k..N-1 with 0 <= k < N, InfeasibleMultiplier if a lam_j is not
    finite or below its nested bound, SingularM at an unreliable solve.
    """
    if isinstance(lam, RiccatiSweep) and lam._problem is p:
        return lam
    k = getattr(lam, "stage_offset", 0)
    _require_offset(lam, k)  # TypeError unless a MultiplierVector
    return _nested_pass(p, _tail_vector(p, lam.lambdas, k), k)[0]


def project_feasible(p: ProblemData, lam_raw, margin: float = EPS_BOUNDARY,
                     stage_offset: int = 0) -> RiccatiSweep:
    """Project a raw multiplier vector onto the feasible set, with margin.

    Single backward pass: each lam_j is raised to its bound (plus margin)
    computed under the already-projected later multipliers; the pass is
    returned, the projected vector with its sweep. Feasible
    inputs are returned unchanged, non-finite ones InfeasibleMultiplier,
    and a vector that does not cover stages k..N-1 with 0 <= k < N
    ValueError. The pass steps stage 0 too, so a projection whose stage
    matrix is singular there (a multiplier at its bound with margin 0,
    say) raises SingularM.
    """
    stage_offset = _integer(stage_offset, "stage offset ")
    raw = _tail_vector(p, lam_raw, stage_offset)
    return _nested_pass(p, raw, stage_offset, margin)[0]
