"""Independent reference computations used to freeze expected values.

The closed forms, scans and fixed points here are written from the problem
statements with plain numpy (inverses, scans, golden section), not by
calling the package, so tests compare two routes to the same quantity.
The gradient oracles (`fd_gradient`, `envelope_gradient`) and the Riccati
identity check (`receq_crosscheck`) take the package's public `sweep` and
`project_feasible` as given and check what the solver builds on them: its
exact adjoint gradient and the sweep's gains. `slack_gradient_reference`
is that adjoint pass written one stage at a time, against which the
solver's batched form is checked. `game_map_reference` is the
steady-state game Riccati map in its block form, against which the
package's n x n form is checked, and `stage_step_reference` is one step of
the finite-horizon recursion in the same block form, against which the
nested pass's stacked products are checked. `sda_reference` is the
steady probe's doubling in its first form, which the kernel must
reproduce bit for bit. `bordered_pass_reference` is the nested pass in
the bordered form's first arithmetic, with the package's eigenpairs of
each G block, which the pass must reproduce bit for bit.
`shortfall_terms` splits what a re-solving closed loop's cost
falls short of its stage-0 value into per-stage terms, read off the
passes of its re-solves. The single-stage sphere
reference lives in sphere_oracle.py.
"""
import numpy as np

from stdar import MultiplierVector, sweep
from stdar._linalg import eigpairs
from stdar.riccati import project_feasible

_GR = (np.sqrt(5.0) - 1.0) / 2.0


def golden_min(f, lo, hi, tol=1e-11, max_iter=300):
    a, b = float(lo), float(hi)
    c = b - _GR * (b - a)
    d = a + _GR * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a <= tol * (1.0 + abs(a) + abs(b)):
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GR * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GR * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _top(M):
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[-1])


def two_stage_value(A, B, G, Q, R, Pf, alpha0, alpha1, x0, eps=1e-9):
    """Closed-form two-stage optimum by nested golden section.

    Pi_1(l1) = Q + A'Pf A - A'Pf [B G] M1(l1)^{-1} [B G]' Pf A and one more
    step for Pi_0; the multipliers are searched over the nested cone.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    abar = alpha0 + alpha1
    BG = np.hstack([B, G])
    q = G.shape[1]
    m = B.shape[1]

    def M_of(S, lam):
        M = BG.T @ S @ BG
        M[:m, :m] += R
        M[m:, m:] -= lam * np.eye(q)
        return M

    def step(S, lam):
        T = S @ BG
        return Q + A.T @ S @ A - A.T @ T @ np.linalg.inv(M_of(S, lam)) @ T.T @ A

    def phi(l0, l1):
        Pi1 = step(Pf, l1)
        Pi0 = step(Pi1, l0)
        return (float(x0 @ Pi0 @ x0) + alpha0 * l0 + alpha1 * l1) / (2.0 * abar)

    b1 = _top(G.T @ Pf @ G)
    # coercivity: phi >= alpha_j lam_j / (2 abar) caps the minimizer
    ref = phi(_top(G.T @ step(Pf, b1 + 1.0) @ G) + 1.0, b1 + 1.0)
    cap = 2.0 * abar * (ref + 1.0) / min(alpha0, alpha1) + b1 + 10.0

    def inner(l1):
        b0 = _top(G.T @ step(Pf, l1) @ G)
        _, val = golden_min(lambda l0: phi(l0, l1), b0 + eps, b0 + cap, tol=1e-12)
        return val

    _, best = golden_min(inner, b1 + eps, b1 + cap, tol=1e-11)
    return best


def grid_minmax_two_stage_scalar(A, B, G, Q, R, Pf, alpha0, alpha1, x0,
                                 u_tol=1e-9):
    """Brute-force nested minmax for the scalar two-stage game.

    Disturbances live on the stage spheres {+-sqrt(alpha_k)}; controls are
    minimized by golden section (the inner max of convex quadratics is
    unimodal in u).
    """
    s0, s1 = np.sqrt(alpha0), np.sqrt(alpha1)
    abar = alpha0 + alpha1

    def inner(x1):
        def J1(u1):
            best = -np.inf
            for w1 in (-s1, s1):
                x2 = A * x1 + B * u1 + G * w1
                best = max(best, 0.5 * (Q * x1 * x1 + R * u1 * u1 + Pf * x2 * x2))
            return best
        L = 10.0 * (abs(x1) + 1.0) * (abs(A) + abs(B) + abs(G) + 1.0)
        _, val = golden_min(J1, -L, L, tol=u_tol)
        return val

    def J0(u0):
        best = -np.inf
        for w0 in (-s0, s0):
            x1 = A * x0 + B * u0 + G * w0
            best = max(best, 0.5 * (Q * x0 * x0 + R * u0 * u0) + inner(x1))
        return best

    L = 10.0 * (abs(x0) + 1.0) * (abs(A) + abs(B) + abs(G) + 1.0)
    _, val = golden_min(J0, -L, L, tol=u_tol)
    return val / abar


def circle_scan_max(D, d, radius, n_angles=1_000_000):
    """Dense scan of max 0.5 w'Dw + d'w over the circle of given radius."""
    th = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    W = radius * np.vstack([np.cos(th), np.sin(th)])
    vals = 0.5 * np.einsum("ij,ij->j", W, D @ W) + d @ W
    i = int(np.argmax(vals))
    return float(vals[i]), W[:, i].copy()


def lqr_recursion(A, B, Q, R, Pf, n_iter=200_000, rtol=1e-13):
    """Textbook Riccati iteration for the undisturbed LQR."""
    P = Pf.copy()
    for _ in range(n_iter):
        K = np.linalg.solve(B.T @ P @ B + R, B.T @ P @ A)
        Pn = Q + A.T @ P @ (A - B @ K)
        Pn = 0.5 * (Pn + Pn.T)
        if np.linalg.norm(Pn - P) <= rtol * (1.0 + np.linalg.norm(P)):
            return Pn
        P = Pn
    return P


def game_map_reference(A, B, G, Q, R, lam, Pi):
    """One step of the game Riccati map in its block form:
    (sym(Q + A'Pi A - H'M^{-1}H), M^{-1}H) with H = [B G]'Pi A and
    M = [B G]'Pi [B G] + blkdiag(R, -lam I). Raises LinAlgError where M
    is singular."""
    W = np.hstack([B, G])
    q = G.shape[1]
    D = np.block([[R, np.zeros((R.shape[0], q))],
                  [np.zeros((q, R.shape[0])), -lam * np.eye(q)]])
    H = W.T @ Pi @ A
    KJ = np.linalg.solve(W.T @ Pi @ W + D, H)
    Pn = Q + A.T @ Pi @ A - H.T @ KJ
    return 0.5 * (Pn + Pn.T), KJ


def stage_step_reference(A, B, G, Q, R, S, lam):
    """One backward step from Pi_{j+1} = S with M and the right-hand side
    built by np.block as the riccati module docstring writes them:
    returns (Pi_j, M, K, J, ||G'SG||)."""
    m, q = B.shape[1], G.shape[1]
    M = np.block([[B.T @ S @ B + R, B.T @ S @ G],
                  [G.T @ S @ B, G.T @ S @ G - lam * np.eye(q)]])
    rhs = np.block([[B.T @ S @ A], [G.T @ S @ A]])
    KJ = np.linalg.solve(M, rhs)
    Pi = Q + A.T @ S @ A - np.block([A.T @ S @ B, A.T @ S @ G]) @ KJ
    return 0.5 * (Pi + Pi.T), M, KJ[:m], KJ[m:], _top(G.T @ S @ G)


def bordered_pass_reference(p, raw, margin=-np.inf, slack=None):
    """The nested pass over len(raw) stages from Pi_N = Pf, one stage at a
    time in the bordered form's first arithmetic: from Pi_{j+1} = S,
    H = (X + X.T) * 0.5 + C with X = F'(S F); the G block's eigenpairs
    from the package's eigpairs (at q = 1 the entry and eigenvector 1),
    which test_linalg checks against eigh, so that this checks the pass's
    own arithmetic; lam_j = max(raw_j, b_j + margin) + slack_j in floats;
    lam_j taken off the G block's diagonal, M [K; J] = rhs solved and H [K; J; -I] =
    [M [K; J] - rhs; -Pi_j]. Returns Pi, [K; J], the eigenvalues, the
    eigenvectors as rows and lam, each stacked over the stages."""
    m, d, size = p.m, p.m + p.q, len(raw)
    Pi, KJ = [None] * size + [p.Pf], [None] * size
    vals, vecs, lam = [None] * size, [None] * size, [None] * size
    for j in range(size - 1, -1, -1):
        X = p.F.T @ (Pi[j + 1] @ p.F)
        H = (X + X.T) * 0.5 + p.C
        b, vals[j], vecs[j] = eigpairs(H[m:d, m:d])
        lam[j] = max(float(raw[j]), b + margin)
        if slack is not None:
            lam[j] += float(slack[j])
        for r in range(m, d):
            H[r, r] -= lam[j]
        KJ[j] = np.linalg.solve(H[:d, :d], H[:d, d:])
        Pi[j] = -(H @ np.vstack([KJ[j], -np.eye(p.n)]))[d:]
    return tuple(np.array(v) for v in (Pi, KJ, vals, vecs, lam))


def sda_reference(A, Q, Z, x0, G, bound):
    """The structure-preserving doubling as _kernels.fixed_point_numpy
    states it, in its first form: W_k = G_k H_k + I by a strided diagonal
    add, products by @ and norms by np.linalg.norm, the stop tolerance
    1e-12, the divergence tests, the infeasibility exit (from doubling 12,
    max diag(G'H_k G) > bound (1 + 1e-6)) and the 64-doubling cap. Returns
    (status, doublings, X, scale), which the kernel must reproduce bit for
    bit."""
    n, cap = A.shape[0], 1e12 * (1.0 + np.linalg.norm(Q) + x0)
    AG = np.hstack([A, Z])  # [A_k G_k]
    H = Q
    for k in range(64):
        Ak, Gk = AG[:, :n], AG[:, n:]
        W = Gk @ H
        W.ravel()[::n + 1] += 1.0
        try:
            S = np.linalg.solve(W, AG)
        except np.linalg.LinAlgError:
            return -2, k, None, None
        H = H + Ak.T @ (H @ S[:, :n])
        AG = Ak @ S
        AG[:, n:] = Gk + AG[:, n:] @ Ak.T
        h, a2 = np.linalg.norm(H), np.linalg.norm(AG[:, :n]) ** 2
        scale = (1.0 + h * h) ** 0.5
        if not (a2 * x0 <= 1e12 * scale and scale <= cap):
            return -1, k + 1, None, None
        if a2 * (h + x0) <= 1e-12 * scale:
            return 0, k + 1, 0.5 * (H + H.T), scale
        if k + 1 >= 12 and np.diag(G.T @ H @ G).max() > bound * (1.0 + 1e-6):
            return -1, k + 1, None, None
    return 1, 64, None, None


def _scalar_map_terms(A, B, G, Q, R, pi, lams):
    det = (B * B * pi + R) * (G * G * pi - lams) - (B * G * pi) ** 2
    quad = (pi * A) ** 2 * (B * B * (G * G * pi - lams)
                            - 2.0 * (B * G) ** 2 * pi
                            + G * G * (B * B * pi + R)) / det
    return Q + A * A * pi - quad


def steady_scalar_grid(A, B, G, Q, R, Pf, lam_hi=20.0, levels=3,
                       pts=1_500, iters=(20_000, 40_000, 60_000)):
    """Smallest feasible steady-state multiplier by a vectorized grid scan.

    Each grid lambda runs a relaxed scalar fixed point (always averaging
    with the previous iterate, independent of the package's doubling);
    feasibility needs convergence and lam >= G^2 Pi.
    The returned pi carries the critical-slowing error of the iteration
    right at the boundary; compare curvatures via steady_scalar_pi_at.
    """
    def scan(lams, n_iter):
        pi = np.full_like(lams, Pf)
        with np.errstate(all="ignore"):
            for _ in range(n_iter):
                nxt = _scalar_map_terms(A, B, G, Q, R, pi, lams)
                pi = 0.5 * (pi + nxt)
                pi[~np.isfinite(pi)] = np.inf
            resid = np.abs(_scalar_map_terms(A, B, G, Q, R, pi, lams) - pi)
        ok = np.isfinite(pi) & (resid <= 1e-9 * (1.0 + np.abs(pi))) & (lams >= G * G * pi - 1e-9)
        return ok, pi

    lo, hi = 0.0, lam_hi
    lam_star, pi_star = np.nan, np.nan
    for lvl in range(levels):
        lams = np.linspace(lo, hi, pts)
        ok, pi = scan(lams, iters[min(lvl, len(iters) - 1)])
        idx = np.argmax(ok)
        if not ok[idx]:
            raise RuntimeError("no feasible lambda on the grid")
        lam_star, pi_star = float(lams[idx]), float(pi[idx])
        lo = float(lams[max(idx - 1, 0)])
        hi = float(lams[idx])
    return lam_star, pi_star


def steady_scalar_pi_at(A, B, G, Q, R, Pf, lam, iters=200_000, rtol=1e-13):
    """Relaxed scalar fixed point at one fixed multiplier.

    Used to compare curvatures between two routes at a common lambda,
    where the iteration contracts; directly at the boundary multiplier
    the error decays only like 1/t and the comparison would be mush.
    """
    pi = float(Pf)
    with np.errstate(all="ignore"):
        for _ in range(iters):
            nxt = float(_scalar_map_terms(A, B, G, Q, R, pi, lam))
            if not np.isfinite(nxt):
                raise RuntimeError("scalar fixed point diverged")
            new = 0.5 * (pi + nxt)
            if abs(new - pi) <= rtol * (1.0 + abs(pi)):
                return new
            pi = new
    return pi


def steady_scalar_closed_form(A, B, G, Q, R):
    """Scalar steady state (lambda_bar, Pi_bar) from the stationary quadratic.

    At a fixed multiplier the stationary equation is
    c Pi^2 + (1 - Q c - A^2) Pi - Q = 0 with c = B^2/R - G^2/lam, and
    Pi(lam) is its positive root, which rises as lam falls; lambda_bar is
    the smallest lam with lam >= G^2 Pi(lam), found by bisection on that
    test.
    """
    def pi_of(lam):
        c = B * B / R - G * G / lam
        lin = 1.0 - Q * c - A * A
        if abs(c) < 1e-14:
            return Q / lin if lin > 0.0 else np.inf
        disc = lin * lin + 4.0 * c * Q
        if disc < 0.0:
            return np.inf
        root = (-lin + np.sqrt(disc)) / (2.0 * c)
        return root if root > 0.0 else np.inf

    def feasible(lam):
        return lam >= G * G * pi_of(lam)

    hi = 1.0
    while not feasible(hi):
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi, pi_of(hi)


def _multipliers(lam, k):
    if isinstance(lam, MultiplierVector):
        return lam
    return MultiplierVector(np.asarray(lam, dtype=float), stage_offset=k)


def _phi(p, x, sw):
    """The multiplier program's objective at the multipliers of sweep sw."""
    tail = float(p.alpha[sw.stage_offset:] @ sw.lambdas)
    return (float(x @ sw.Pi[0] @ x) + tail) / (2.0 * p.alpha_bar)


def envelope_gradient(p, lam, x, k=0):
    """dphi/dlambda_j = (alpha_j - ||wbar_j||^2) / (2 alpha_bar) along the
    certainty trajectory x+ = (A - BK_j) x + G wbar_j, wbar_j = -J_j x_j.

    lam is a MultiplierVector or raw multipliers for stages k..N-1.
    """
    x = np.asarray(x, dtype=float).ravel()
    sw = sweep(p, _multipliers(lam, k))
    k = sw.stage_offset
    abar = p.alpha_bar
    g = np.zeros(len(sw))
    for j in range(g.size):
        w = -(sw.J[j] @ x)
        g[j] = (p.alpha[k + j] - float(w @ w)) / (2.0 * abar)
        x = p.A @ x - p.B @ (sw.K[j] @ x) + p.G @ w
    return g


def slack_gradient_reference(p, sw, x, dtype=np.float64):
    """The multiplier program's slack gradient at the sweep sw by the
    forward adjoint pass written stage by stage: Acl_j and J_j'J_j are
    formed inside the loop from the sweep's K_j, J_j and top eigenvectors
    v_j (the top rows of sw._eigvecs), one stage at a time.

        g_j = alpha_j - <X_j, J_j'J_j>,  X_{j+1} = Acl_j X_j Acl_j' + g_j (G v_j)(G v_j)'

    Every product is taken in dtype, on the sweep's float64 arrays:
    np.longdouble (80-bit extended on x86-64, eps 1.1e-19) evaluates the
    same pass with 11 more bits than float64.
    """
    k = sw.stage_offset
    g = np.zeros(len(sw), dtype=dtype)
    x = np.asarray(x, dtype=dtype)
    A, B, G = (np.asarray(M, dtype=dtype) for M in (p.A, p.B, p.G))
    X = np.outer(x, x)
    Gv = np.asarray(sw._eigvecs[:, -1], dtype=dtype) @ G.T
    for j in range(g.size):
        J = np.asarray(sw.J[j], dtype=dtype)
        g[j] = p.alpha[k + j] - np.sum((J @ X) * J)
        Acl = A - B @ np.asarray(sw.K[j], dtype=dtype) - G @ J
        X = Acl @ X @ Acl.T + g[j] * np.outer(Gv[j], Gv[j])
    return g / (2.0 * p.alpha_bar)


def fd_gradient(p, lam, x, k=0, step=1e-6):
    """Central differences of phi in the multipliers, with steps
    h_j = step max(1, |lambda_j|).

    Each probe is projected onto the feasible set before it is swept. Where
    the projection moves a probe by more than 1e-3 h_j, as next to a nested
    bound, the difference is a forward one.
    """
    x = np.asarray(x, dtype=float).ravel()
    lam = _multipliers(lam, k)
    k = lam.stage_offset
    base = lam.lambdas
    phi0 = _phi(p, x, sweep(p, lam))
    g = np.zeros(base.size)
    for i in range(base.size):
        h = max(step, step * abs(base[i]))
        up = base.copy()
        up[i] += h
        dn = base.copy()
        dn[i] -= h
        lam_up = project_feasible(p, up, stage_offset=k)
        lam_dn = project_feasible(p, dn, stage_offset=k)
        moved = max(float(np.abs(lam_up.lambdas - up).max()),
                    float(np.abs(lam_dn.lambdas - dn).max()))
        phi_up = _phi(p, x, sweep(p, lam_up))
        if moved <= 1e-3 * h:
            g[i] = (phi_up - _phi(p, x, sweep(p, lam_dn))) / (2.0 * h)
        else:
            # a moved down-probe sits on its bound, where the stage step
            # can fail; it is never swept
            g[i] = (phi_up - phi0) / h
    return g


def _pinv_sym(M, cutoff=1e-11):
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    zero = np.abs(w) <= cutoff * max(np.abs(w).max(), 1e-300)
    return (V * np.where(zero, 0.0, 1.0 / np.where(zero, 1.0, w))) @ V.T


def receq_crosscheck(sw, p):
    """Largest Frobenius discrepancy of the closed-loop Riccati identity.

    Each Pi_j is recomputed as
        Qb + Ab'Pi_{j+1}Ab - Ab'Pi_{j+1}G (G'Pi_{j+1}G - lam_j I)^+ G'Pi_{j+1}Ab
    with Ab = A - B K_j and Qb = Q + K_j'R K_j, and compared against the
    sweep's Pi_j.
    """
    worst = 0.0
    for i in range(len(sw)):
        S = sw.Pi[i + 1]
        Ab = p.A - p.B @ sw.K[i]
        Qb = p.Q + sw.K[i].T @ p.R @ sw.K[i]
        SG = S @ p.G
        T = p.G.T @ SG - float(sw.lambdas[i]) * np.eye(p.q)
        cross = SG.T @ Ab
        alt = Qb + Ab.T @ S @ Ab - cross.T @ _pinv_sym(T) @ cross
        alt = 0.5 * (alt + alt.T)
        worst = max(worst, float(np.linalg.norm(alt - sw.Pi[i], ord="fro")))
    return worst


def shortfall_terms(p, states, disturbances, solutions):
    """(gaps, losses, slacks) of a closed loop that re-solves at every
    stage: solutions[k] is the stage-k solve at states[k], whose control
    u_k = -K_0 x_k took the loop to states[k + 1] under disturbances[k].
    Completing the square in w at each stage and telescoping gives

        sum_k (x_k'Q x_k + u_k'R u_k) + x_N'Pf x_N
            = 2 abar phi_0 - sum(gaps) - sum(losses) - sum(slacks)

    with, for the stage-k pass's Pi_1, J_0 and multipliers lam,
        gap_{k+1} = x'Pi_1 x + sum_{j>k} alpha_j lam_j - 2 abar phi_{k+1},
                    x = x_{k+1}, for k < N - 1 (the terminal gap is 0);
        loss_k    = (w - wbar)'(lam_k I - G'Pi_1 G)(w - wbar), wbar = -J_0 x_k;
        slack_k   = lam_k (alpha_k - ||w_k||^2).
    A gap is what the stage-(k+1) re-solve gains over the tail of the
    stage-k multipliers, a loss what w gives up against the plan wbar, and
    a slack the unused part of the stage bound: none is negative for an
    admissible w and optimal re-solves."""
    gaps, losses, slacks = [], [], []
    for k, sol in enumerate(solutions):
        sw = sweep(p, sol.lam_star)
        lam, Pi1 = sw.lambdas, sw.Pi[1]
        x, w, x1 = states[k], disturbances[k], states[k + 1]
        if k + 1 < len(solutions):
            gaps.append(x1 @ Pi1 @ x1 + p.alpha[k + 1:] @ lam[1:]
                        - 2.0 * p.alpha_bar * solutions[k + 1].value)
        d = w + sw.J[0] @ x
        losses.append(lam[0] * (d @ d) - d @ (p.G.T @ Pi1 @ p.G) @ d)
        slacks.append(lam[0] * (p.alpha[k] - w @ w))
    return np.array(gaps), np.array(losses), np.array(slacks)
