"""The steady state against an outside reference: scipy's discrete
algebraic Riccati solver, which takes the game's indefinite weight.

With the extended input [B G] and weight blkdiag(R, -lam I), the
stabilizing DARE solution Pi_DARE(lam) is the game Riccati map's fixed
point, and on a system that is not critical (ROADMAP item 23) lambda_bar
is the root of g(lam) = lam - ||G'Pi_DARE(lam) G||. The package finds it
with its own doubling, search and verification; scipy with a Schur
decomposition of the symplectic pencil. scipy is a test extra only.
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
