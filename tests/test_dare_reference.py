"""The steady state against an outside reference: scipy's discrete
algebraic Riccati solver, which takes the game's indefinite weight.

With the extended input [B G] and weight blkdiag(R, -lam I), the
stabilizing DARE solution Pi_DARE(lam) is the game Riccati map's fixed
point, and on a system that is not critical (ROADMAP item 23) lambda_bar
is the root of g(lam) = lam - ||G'Pi_DARE(lam) G||. The package finds it
with its own doubling, search and verification; scipy with a Schur
decomposition of the symplectic pencil. On a critical system lambda_bar
is instead the edge lam_c of the pencil: below it the pencil has
eigenvalues on the unit circle, and no stabilizing solution exists.
scipy is a test extra only.
"""
import numpy as np
import scipy.linalg as la
from scipy.optimize import brentq

from stdar import solve_steady_state
from stdar._linalg import top_eig
from conftest import make_problem


def _dare(p, lam):
    return la.solve_discrete_are(p.A, np.hstack([p.B, p.G]), p.Q,
                                 la.block_diag(p.R, -lam * np.eye(p.q)))


def test_lambda_bar_is_the_dare_root():
    # the first 40 make_problem systems of default_rng(9): where g changes
    # sign on lambda_bar (1 -+ 1e-4) its root (brentq, xtol 1e-15
    # lambda_bar) lies within 1e-9 absolute of lambda_bar, the search's
    # tolerance (measured at most 8.7e-10), and Pi_bar within 1e-6 relative
    # of Pi_DARE just above it (measured at most 7.6e-8). A system where g
    # has no sign change in the window (as on a critical system, whose
    # lambda_bar the pencil's unit circle sets, not g's root) or where the
    # DARE raises is skipped and counted: 36 are compared, 4 skipped (8,
    # 28, 29 and 39, each for want of a sign change)
    rng = np.random.default_rng(9)
    compared, skipped = 0, []
    for i in range(40):
        p = make_problem(rng)
        sol = solve_steady_state(p)
        lam_bar = sol.lambda_bar

        def g(lam):
            return lam - top_eig(p.G.T @ _dare(p, lam) @ p.G)

        try:
            root = brentq(g, lam_bar * (1.0 - 1e-4), lam_bar * (1.0 + 1e-4),
                          xtol=1e-15 * lam_bar)
            Pi = _dare(p, lam_bar * (1.0 + 1e-9))
        except (ValueError, np.linalg.LinAlgError):
            skipped.append(i)
            continue
        compared += 1
        assert abs(lam_bar - root) <= 1e-9, i
        assert np.linalg.norm(sol.Pi_bar - Pi) <= 1e-6 * np.linalg.norm(Pi), i
    assert compared == 40 - len(skipped) >= 36, skipped


def _on_unit_circle(p, lam, tol=1e-6):
    # whether the pencil M - zL of the game DARE at lam, in blocks of n, n
    # and d = m + q, has a finite eigenvalue z with ||z| - 1| <= tol
    n, W = p.n, np.hstack([p.B, p.G])
    d, zeros, eye = W.shape[1], np.zeros, np.eye(n)
    M = np.block([[p.A, zeros((n, n)), W], [-p.Q, eye, zeros((n, d))],
                  [zeros((d, 2 * n)), la.block_diag(p.R, -lam * np.eye(p.q))]])
    L = np.block([[eye, zeros((n, n + d))], [zeros((n, n)), p.A.T, zeros((n, d))],
                  [zeros((d, n)), -W.T, zeros((d, d))]])
    z = la.eigvals(M, L)
    return np.abs(np.abs(z[np.isfinite(z)]) - 1.0).min() <= tol


def test_critical_lambda_bar_is_on_the_pencil_edge():
    # on the critical default_rng(9) systems 68, 71, 389 and 521 lambda_bar
    # is the pencil's edge lam_c, found by bisecting on its unit-circle
    # eigenvalues over lambda_bar (1 -+ 1e-6) to 1e-13 relative (the
    # circle's tol 1e-6 and 1e-8 give lam_c within 4e-11 relative). No
    # probe below lam_c is accepted: lambda_bar >= lam_c (1 - 1e-10)
    # (measured +9.4e-10, -2.8e-11, +8.1e-11 and -9.3e-12 relative), and
    # lambda_bar is within the search's 1e-9 of lam_c above it
    rng = np.random.default_rng(9)
    systems = [make_problem(rng) for _ in range(522)]
    for i in (68, 71, 389, 521):
        p = systems[i]
        lam_bar = solve_steady_state(p).lambda_bar
        lo, hi = lam_bar * (1.0 - 1e-6), lam_bar * (1.0 + 1e-6)
        assert _on_unit_circle(p, lo) and not _on_unit_circle(p, hi), i
        while hi - lo > 1e-13 * hi:
            mid = 0.5 * (lo + hi)
            if _on_unit_circle(p, mid):
                lo = mid
            else:
                hi = mid
        assert hi * (1.0 - 1e-10) <= lam_bar <= hi + 1e-9, (i, lam_bar / hi - 1.0)
