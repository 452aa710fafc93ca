"""Single-stage reference: sphere-constrained QP and quadratic minmax.

Three related problems are solved exactly through eigenvalue arguments:

* maximize V(w) = w'Dw/2 + w'd over the sphere ||w|| = r, with D PSD
  (`solve_sphere_qp`);
* the saddle point of L(u, w, lam) = z'M(lam)z/2 + d'z + lam/2 with
  z = (u, w) and M(lam) = [[M11, M12], [M12', M22 - lam*I]], in min-max
  order over u then w (`saddle_point`);
* the sphere-constrained minmax min_u max_{||w||=1} of the same quadratic,
  reduced to a scalar convex minimization of L(lam) over
  lam >= ||M22|| (`solve_constrained_minmax`).

The package solves none of these directly: the tests compare its N = 1
multiplier program against `solve_constrained_minmax`, and check
`solve_sphere_qp` itself against brute-force scans of the sphere. The
module needs only numpy, scipy and the package's RegulatorError, and
keeps its own tolerances, equal to the package's.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from stdar import RegulatorError

# eigenvalues below PINV_CUTOFF * (largest magnitude) count as zero
PINV_CUTOFF = 1e-11
TOL_PSD = 1e-9       # the PSD test of D, relative to max(1, its scale)
EPS_BOUNDARY = 1e-9  # how close to ||M22|| a multiplier is at the boundary


class NonConvergedEigen(RegulatorError):
    """The eigenvalue solver failed to converge."""


class InconsistentCase(RegulatorError):
    """Neither the interior nor the boundary certificate holds within
    tolerance; signals ill-conditioned sphere-QP data."""


class NoSolution(RegulatorError):
    """The quadratic minmax has no solution for this multiplier value."""


class RankDeficientD(RegulatorError):
    """The linear term is outside the range of the singular saddle matrix."""


class BracketingFailed(RegulatorError):
    """Could not bracket a minimizer of the scalar multiplier function."""


def sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def top_eig(M: np.ndarray) -> float:
    return float(la.eigvalsh(sym(M))[-1])


def min_eig(M: np.ndarray) -> float:
    return float(la.eigvalsh(sym(M))[0])


def pinv_apply(M: np.ndarray, b: np.ndarray, cutoff: float = PINV_CUTOFF) -> np.ndarray:
    """Apply the eigh pseudoinverse of the symmetric matrix M to b."""
    w, V = la.eigh(sym(M))
    scale = np.abs(w).max() if w.size else 0.0
    zero = np.abs(w) <= cutoff * max(scale, 1e-300)
    c = V.T @ b
    return V @ np.where(zero, 0.0, c / np.where(zero, 1.0, w))


_GOLDEN = 0.5 * (3.0 - np.sqrt(5.0))


@dataclass(frozen=True)
class SphereQP:
    """Data for max ||w||=r of w'Dw/2 + w'd with symmetric PSD D."""

    D: np.ndarray
    d: np.ndarray
    radius: float = 1.0

    def __post_init__(self):
        D = sym(np.atleast_2d(np.asarray(self.D, dtype=float)))
        d = np.asarray(self.d, dtype=float).ravel()
        if D.shape[0] != D.shape[1] or D.shape[0] != d.shape[0]:
            raise ValueError(f"incompatible shapes D {D.shape}, d {d.shape}")
        if self.radius <= 0.0:
            raise ValueError("radius must be strictly positive")
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def q(self) -> int:
        return self.d.shape[0]


@dataclass(frozen=True)
class SphereQPSolution:
    """Maximizer data for a sphere QP.

    `w_star` is one representative; in the boundary case the full solution
    set is w_star + span(nullspace) intersected with the sphere. `lambda_P`
    is the optimal sphere multiplier, the largest real eigenvalue of the
    companion matrix [[D, I], [dd', D]] in unit-sphere coordinates.
    """

    lambda_P: float
    w_star: np.ndarray
    value: float
    boundary_case: bool
    nullspace: np.ndarray  # q x k orthonormal basis, k = 0 in the interior case


@dataclass(frozen=True)
class BlockSaddle:
    """Quadratic saddle data; lam is the sphere multiplier (None if free)."""

    M11: np.ndarray
    M12: np.ndarray
    M22: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    lam: float | None = None

    def __post_init__(self):
        M11 = sym(np.atleast_2d(np.asarray(self.M11, dtype=float)))
        M22 = sym(np.atleast_2d(np.asarray(self.M22, dtype=float)))
        M12 = np.atleast_2d(np.asarray(self.M12, dtype=float))
        d1 = np.asarray(self.d1, dtype=float).ravel()
        d2 = np.asarray(self.d2, dtype=float).ravel()
        m, q = M11.shape[0], M22.shape[0]
        if M12.shape != (m, q):
            raise ValueError(f"M12 must be {m}x{q}, got {M12.shape}")
        if d1.shape != (m,) or d2.shape != (q,):
            raise ValueError("d1/d2 lengths do not match the blocks")
        if min_eig(M11) <= 0.0:
            raise ValueError("M11 must be positive definite")
        for name, val in (("M11", M11), ("M12", M12), ("M22", M22),
                          ("d1", d1), ("d2", d2)):
            object.__setattr__(self, name, val)

    @property
    def m(self) -> int:
        return self.M11.shape[0]

    @property
    def q(self) -> int:
        return self.M22.shape[0]

    def assembled(self, lam: float) -> np.ndarray:
        q = self.q
        return np.block([[self.M11, self.M12],
                         [self.M12.T, self.M22 - lam * np.eye(q)]])

    def dvec(self) -> np.ndarray:
        return np.concatenate([self.d1, self.d2])


def _largest_real_eig(P: np.ndarray) -> float:
    try:
        vals = np.linalg.eigvals(P)
    except np.linalg.LinAlgError as exc:
        raise NonConvergedEigen(str(exc)) from exc
    scale = 1.0 + np.abs(vals).max()
    real = vals[np.abs(vals.imag) <= 1e-8 * scale]
    if real.size == 0:
        # the companion matrix provably has a real eigenvalue >= ||D||
        real = vals[np.abs(vals.imag) <= 1e-5 * scale]
        if real.size == 0:
            raise NonConvergedEigen("no real eigenvalue found in companion matrix")
    return float(real.real.max())


def _secular_newton(mu: np.ndarray, c2: np.ndarray, lam0: float, lo: float) -> float:
    """Solve sum c2_i / (mu_i - lam)^2 = 1 for lam > lo by safeguarded Newton.

    The function is strictly decreasing on (max(mu), inf), so bisection
    safeguards around the Newton step always converge.
    """
    hi = max(lam0, lo) + 1.0
    while np.sum(c2 / (mu - hi) ** 2) > 1.0:
        hi = lo + 2.0 * (hi - lo)
        if hi > 1e18:
            raise NonConvergedEigen("secular equation safeguard exceeded")
    lam = min(max(lam0, lo * (1 + 1e-15) + 1e-300), hi)
    lo_b, hi_b = lo, hi
    for _ in range(200):
        r = mu - lam
        f = np.sum(c2 / r**2) - 1.0
        if abs(f) <= 1e-14:
            break
        if f > 0.0:
            lo_b = max(lo_b, lam)
        else:
            hi_b = min(hi_b, lam)
        fp = 2.0 * np.sum(c2 / r**3)
        step = f / fp if fp != 0.0 else 0.0
        lam_new = lam - step
        if not (lo_b < lam_new < hi_b):
            lam_new = 0.5 * (lo_b + hi_b)
        if abs(lam_new - lam) <= 1e-16 * (1.0 + abs(lam)):
            lam = lam_new
            break
        lam = lam_new
    return lam


def solve_sphere_qp(qp: SphereQP) -> SphereQPSolution:
    """Maximize w'Dw/2 + w'd over the sphere ||w|| = r.

    The problem is mapped to unit-sphere data (r^2 D, r d). The optimal
    multiplier is the largest real eigenvalue of the 2q x 2q companion
    matrix [[D, I], [dd', D]], refined on the secular equation
    ||(D - lam I)^{-1} d||^2 = 1 when it exceeds ||D||. The boundary case
    lam = ||D|| applies iff d lies in range(D - ||D||I) and the
    pseudoinverse response has norm at most one; the maximizer is then
    completed through the top eigenspace of D.

    Parameters
    ----------
    qp : SphereQP
        Problem data; D must be PSD up to -TOL_PSD.

    Returns
    -------
    SphereQPSolution
        Multiplier, one maximizer with ||w|| = r exactly, optimal value,
        boundary flag, and the completion nullspace basis.
    """
    r = qp.radius
    Du = (r * r) * qp.D
    du = r * qp.d
    scale = max(np.abs(Du).max(), np.abs(du).max(), 1e-300)
    if min_eig(Du) < -TOL_PSD * max(1.0, scale):
        raise ValueError("D must be positive semidefinite")

    mu, V = la.eigh(Du)
    norm_d_mat = max(mu[-1], 0.0)
    c = V.T @ du

    # boundary certificate: d in range(D - ||D||I) and pinv response inside
    cut = PINV_CUTOFF * max(abs(mu[-1]), abs(mu[0]), 1e-300)
    active = mu >= mu[-1] - cut
    gaps = mu - norm_d_mat
    range_ok = np.all(np.abs(c[active]) <= 1e-8 * (1.0 + np.linalg.norm(du)))
    coef = np.zeros_like(c)
    coef[~active] = -c[~active] / gaps[~active]
    nb2 = float(coef @ coef)
    boundary_ok = bool(range_ok and nb2 <= 1.0 + 1e-8)

    if boundary_ok:
        lam_u = norm_d_mat
        boundary_case = True
        wbar = V @ coef
        basis = V[:, active]
        # complete along d's part in the top eigenspace, as the policy
        # does, or along its last eigenvector where that part is 0
        z = basis @ (basis.T @ du)
        z = z / np.linalg.norm(z) if z.any() else basis[:, -1]
        t = np.sqrt(max(0.0, 1.0 - nb2))
        if z @ du < 0.0:
            t = -t
        w_unit = wbar + t * z
        val_quad = float(c[~active] @ coef[~active])  # = -d'(D-lam I)^+ d
        value = 0.5 * val_quad + 0.5 * lam_u
        nullspace = basis
    else:
        boundary_case = False
        P = np.zeros((2 * qp.q, 2 * qp.q))
        P[:qp.q, :qp.q] = Du
        P[:qp.q, qp.q:] = np.eye(qp.q)
        P[qp.q:, :qp.q] = np.outer(du, du)
        P[qp.q:, qp.q:] = Du
        lam_eig = _largest_real_eig(P)
        lam_u = _secular_newton(mu, c * c, lam_eig, norm_d_mat)
        if lam_u <= norm_d_mat:
            raise InconsistentCase("interior multiplier collapsed onto ||D||")
        w_unit = V @ (-c / (mu - lam_u))
        nrm = np.linalg.norm(w_unit)
        if abs(nrm - 1.0) > 1e-6:
            raise InconsistentCase(f"interior maximizer norm {nrm:.3e} far from 1")
        w_unit = w_unit / nrm
        value = float(-0.5 * np.sum(c * c / (mu - lam_u)) + 0.5 * lam_u)
        nullspace = np.zeros((qp.q, 0))

    w_star = r * w_unit
    nrm = np.linalg.norm(w_star)
    if nrm > 0.0:
        w_star = w_star * (r / nrm)
    lambda_P = lam_u / (r * r)
    kkt = np.linalg.norm((qp.D - lambda_P * np.eye(qp.q)) @ w_star + qp.d)
    if kkt > 1e-7 * (top_eig(qp.D) + np.linalg.norm(qp.d) + 1.0):
        raise InconsistentCase(f"KKT residual {kkt:.3e} out of tolerance")
    return SphereQPSolution(lambda_P=float(lambda_P), w_star=w_star,
                            value=float(value), boundary_case=boundary_case,
                            nullspace=nullspace)


def dual_value(qp: SphereQP, lam: float) -> float:
    """Dual upper bound -d'(D - lam I)^+ d / 2 + lam r^2 / 2 at lam >= lambda_P."""
    q = qp.q
    shifted = qp.D - lam * np.eye(q)
    resp = pinv_apply(shifted, qp.d)
    return float(-0.5 * qp.d @ resp + 0.5 * lam * qp.radius**2)


def saddle_point(bs: BlockSaddle):
    """Saddle point of the quadratic L(u, w, lam) in min-max order.

    Requires lam > ||M22|| (solutions exist for every linear term) or
    lam = ||M22|| with d in range(M(lam)). Returns (u_star, w_star, L0)
    where L0 = -d'M(lam)^+ d / 2 + lam / 2.
    """
    if bs.lam is None:
        raise ValueError("BlockSaddle.lam must be set for saddle_point")
    lam = float(bs.lam)
    m22 = top_eig(bs.M22)
    d = bs.dvec()
    if lam > m22 + EPS_BOUNDARY:
        M = bs.assembled(lam)
        z = -la.solve(M, d, assume_a="sym")
    elif lam >= m22 - EPS_BOUNDARY:
        M = bs.assembled(lam)
        z = -pinv_apply(M, d)
        resid = np.linalg.norm(M @ z + d)
        if resid > 1e-8 * (1.0 + np.linalg.norm(d) + np.abs(M).max()):
            raise RankDeficientD(
                f"d outside range(M(lam)) at the boundary (residual {resid:.3e})")
    else:
        raise NoSolution(
            f"lam = {lam:.6g} < ||M22|| = {m22:.6g}: no minmax saddle exists")
    L0 = float(0.5 * d @ z + 0.5 * lam)
    return z[:bs.m], z[bs.m:], L0


def _saddle_L(bs: BlockSaddle, lam: float, m22: float, eps: float) -> float:
    """L(lam) = -d'M(lam)^+ d / 2 + lam / 2, via pinv at the boundary."""
    d = bs.dvec()
    M = bs.assembled(lam)
    if lam > m22 + eps:
        z = -la.solve(M, d, assume_a="sym")
    else:
        z = -pinv_apply(M, d)
    return float(0.5 * d @ z + 0.5 * lam)


def solve_constrained_minmax(bs: BlockSaddle):
    """Exact solve of min_u max_{||w||=1} of the block quadratic.

    Minimizes the scalar convex function L(lam) over [||M22||, inf) by
    bracketing-by-doubling followed by golden-section search, then recovers
    (u0, w0) from the saddle at the optimal multiplier, completing w0 onto
    the unit sphere through the top eigenspace of M22 when the minimum sits
    on the boundary.

    Returns
    -------
    (u0, w0, lambda0, value)
    """
    m22 = top_eig(bs.M22)
    eps = EPS_BOUNDARY * (1.0 + abs(m22))
    L = lambda lam: _saddle_L(bs, lam, m22, eps)

    lo = m22
    f_lo = L(lo)
    step = 0.1 * (1.0 + abs(m22))
    a, fa = lo, f_lo
    b, fb = lo + step, L(lo + step)
    if fb >= fa:
        bracket = (a, b)
    else:
        bracket = None
        prev, fprev = a, fa
        cur, fcur = b, fb
        for _ in range(70):
            step *= 2.0
            nxt = lo + step
            fnxt = L(nxt)
            if fnxt >= fcur:
                bracket = (prev, nxt)
                break
            prev, fprev = cur, fcur
            cur, fcur = nxt, fnxt
        if bracket is None:
            raise BracketingFailed("L(lam) kept decreasing past the doubling budget")

    a, b = bracket
    # golden-section: convexity makes the section argument exact
    x1 = a + _GOLDEN * (b - a)
    x2 = b - _GOLDEN * (b - a)
    f1, f2 = L(x1), L(x2)
    xtol = 1e-12 * (1.0 + b)
    while b - a > xtol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = a + _GOLDEN * (b - a)
            f1 = L(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = b - _GOLDEN * (b - a)
            f2 = L(x2)
    lam0 = 0.5 * (a + b)

    boundary_tol = max(10.0 * EPS_BOUNDARY * (1.0 + abs(m22)), 4.0 * xtol)
    if lam0 - m22 <= boundary_tol:
        lam0 = m22
        M = bs.assembled(lam0)
        d = bs.dvec()
        z = -pinv_apply(M, d)
        u0 = z[:bs.m]
        d_w = bs.M12.T @ u0 + bs.d2
        shifted = bs.M22 - lam0 * np.eye(bs.q)
        mu, V = la.eigh(shifted)
        # scale by lam0: for near-isotropic M22 the shifted spectrum is all
        # noise and a cutoff relative to it treats noise as signal
        cut = PINV_CUTOFF * max(np.abs(mu).max(), abs(lam0), 1e-300)
        zero = np.abs(mu) <= cut
        cw = V.T @ d_w
        coef = np.where(zero, 0.0, -cw / np.where(zero, 1.0, mu))
        wbar = V @ coef
        nb2 = float(coef @ coef)
        if nb2 > 1.0 + 1e-6 or not np.any(zero):
            if nb2 > 1.0 + 1e-6:
                raise InconsistentCase(
                    f"boundary response norm {np.sqrt(nb2):.6f} exceeds the sphere")
            w0 = wbar
        else:
            Vz = V[:, zero]  # d_w's part there, else its last eigenvector
            zdir = Vz @ (Vz.T @ d_w)
            zdir = zdir / np.linalg.norm(zdir) if zdir.any() else Vz[:, -1]
            t = np.sqrt(max(0.0, 1.0 - nb2))
            if zdir @ d_w < 0.0:
                t = -t
            w0 = wbar + t * zdir
    else:
        M = bs.assembled(lam0)
        d = bs.dvec()
        z = -la.solve(M, d, assume_a="sym")
        u0 = z[:bs.m]
        w0 = z[bs.m:]
    nrm = np.linalg.norm(w0)
    if nrm > 0.0:
        w0 = w0 / nrm
    value = L(max(lam0, m22))
    return u0, w0, float(lam0), float(value)


def block_nonsingular(Apart: np.ndarray, Bpart: np.ndarray, Dpart: np.ndarray) -> bool:
    """Nonsingularity of [[A, B], [B', D]] with A PD and D NSD.

    The block matrix is invertible iff null(B) and null(D) intersect only
    at the origin, tested through the rank of the stacked matrix [B; D].
    """
    Apart = np.atleast_2d(np.asarray(Apart, dtype=float))
    Bpart = np.atleast_2d(np.asarray(Bpart, dtype=float))
    Dpart = np.atleast_2d(np.asarray(Dpart, dtype=float))
    stacked = np.vstack([Bpart, Dpart])
    s = la.svdvals(stacked)
    if s.size == 0 or s[0] == 0.0:
        return False
    return bool(s[-1] > 1e-10 * s[0])
