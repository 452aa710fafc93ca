import numpy as np
import pytest
import sympy as sp

from stdar import (MultiplierVector, ProblemData, objective,
                   solve_multipliers, sweep)
from stdar import multiplier
from stdar.multiplier import _reconstruct, _slack_gradient, _tail_map
from stdar.riccati import EPS_BOUNDARY, _nested_pass, project_feasible
from conftest import (assert_same_sweep, fresh, make_problem, orthogonal, rotated,
                      scalar_problem)
import oracles
from oracles import (envelope_gradient, fd_gradient,
                     grid_minmax_two_stage_scalar, slack_gradient_reference,
                     two_stage_value)
from sphere_oracle import BlockSaddle, solve_constrained_minmax


def test_objective_hand_value():
    p = scalar_problem(A=1, B=1, G=1, Q=0.2, R=1, Pf=1, N=1, alpha=1.0, x0=1.0)
    # phi = (Pi0 x^2 + alpha lam) / (2 abar) = (13/15 + 2) / 2
    phi = objective(p, [2.0], np.array([1.0]))
    assert phi == pytest.approx(13.0 / 30.0 + 1.0, abs=1e-12)


def test_objective_rejects_stage_mismatch():
    # a vector carries its start stage: objective at another k raises, as
    # control_at does, for the solve's pass and a plain vector alike
    p = scalar_problem(N=3, Pf=1.0)
    sol = solve_multipliers(p, p.x0, k=1)
    assert objective(p, sol.lam_star, p.x0, k=1) == sol.value
    for lam in (sol.lam_star, fresh(sol.lam_star)):
        with pytest.raises(ValueError, match="start at stage 1, not 0"):
            objective(p, lam, p.x0, k=0)


def test_head_step_is_the_exact_head_minimizer(rng):
    # with the tail of a slack pass held, the head step moves s_0 to the
    # minimizer of phi over s_0 >= 0, against golden section on the same
    # one-dimensional phi; where g_0 >= 0 at s_0 = 0 that minimizer is the
    # bound itself, exactly, and a one-stage program needs no descent step
    seen = {"interior": set(), "bound": set()}
    for i in range(90):
        q = 1 + i % 3
        p = make_problem(rng, n=int(rng.integers(1, 5)), m=int(rng.integers(1, 5)),
                         q=q, N=int(rng.integers(1, 6)))
        k = int(rng.integers(0, p.N))
        x = 10.0 ** rng.uniform(-1.0, 1.0) * rng.standard_normal(p.n)
        s = np.where(rng.random(p.N - k) < 0.5, 0.0, rng.uniform(0.0, 2.0, p.N - k))
        sw = _reconstruct(p, s, k)[0]

        def phi_at(s0):
            return multiplier._phi(p, x, _reconstruct(p, np.r_[s0, s[1:]], k, sw)[0])

        hi = 1.0
        while phi_at(2.0 * hi) < phi_at(hi):
            hi *= 2.0
        s0_ref, phi_ref = oracles.golden_min(phi_at, 0.0, 2.0 * hi, tol=1e-13)
        if phi_at(0.0) <= phi_ref:
            s0_ref, phi_ref = 0.0, phi_at(0.0)
        s_h, sw_h, phi_h, steps = multiplier._head_step(
            p, x, s, sw, multiplier._phi(p, x, sw))
        assert np.array_equal(s_h[1:], s[1:])
        assert steps == (0 if sw_h is sw else 1)
        assert phi_h == multiplier._phi(p, x, sw_h)
        assert abs(phi_h - phi_ref) <= 1e-12 * abs(phi_ref)
        lam_ref = sw.bounds[0] + EPS_BOUNDARY + s0_ref
        assert sw_h.lambdas[0] == pytest.approx(lam_ref, rel=1e-6, abs=1e-6)
        g0 = _slack_gradient(p, _reconstruct(p, np.r_[0.0, s[1:]], k, sw)[0], x)[0]
        if g0 >= 0.0:
            assert s_h[0] == 0.0
            assert sw_h.lambdas[0] == sw.bounds[0] + EPS_BOUNDARY
        seen["bound" if g0 >= 0.0 else "interior"].add(q)
        one = solve_multipliers(p, x, k=p.N - 1)
        assert one.converged
        assert (one.iterations, one.gradient_evals, one.backtracks) == (0, 1, 0)
    assert seen == {"interior": {1, 2, 3}, "bound": {1, 2, 3}}


def test_two_channel_stages_take_no_eigh(rng, monkeypatch):
    # the G block's eigenpairs are a closed form up to q = 2: counted by
    # monkeypatch, np.linalg.eigh is called by no stage of a q = 2 pass and
    # by no q <= 2 head step that gets past its early exit (s_0 > 0), and
    # once per stage it steps by a q = 3 pass
    eigh, eigpairs = np.linalg.eigh, multiplier.eigpairs
    calls = {"eigh": 0, "eigpairs": 0}

    def counted(name, f):
        def call(*args):
            calls[name] += 1
            return f(*args)
        return call

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", eigh))
    monkeypatch.setattr(multiplier, "eigpairs", counted("eigpairs", eigpairs))
    for q in (1, 2, 3):
        p = make_problem(rng, n=3, m=3, q=q, N=8)
        x = rng.standard_normal(p.n)
        s = rng.uniform(0.1, 1.0, p.N)
        calls.update(eigh=0, eigpairs=0)
        sw, _, steps = _reconstruct(p, s, 0)
        cand = s.copy()
        cand[3] += 0.5
        _, _, resteps = _reconstruct(p, cand, 0, sw)
        assert (steps, resteps) == (p.N, 4)
        assert calls["eigh"] == (0 if q < 3 else steps + resteps)
        if q < 3:
            multiplier._head_step(p, x, s, sw, multiplier._phi(p, x, sw))
            assert calls == {"eigh": 0, "eigpairs": 1}


def test_value_recomputes_from_fresh_sweep(rng):
    for _ in range(10):
        p = make_problem(rng)
        sol = solve_multipliers(p, p.x0)
        sw = sweep(p, fresh(sol.lam_star))
        abar = p.alpha_bar
        val = (float(p.x0 @ sw.Pi[0] @ p.x0)
               + float(p.alpha @ sol.lam_star.lambdas)) / (2.0 * abar)
        assert sol.value == pytest.approx(val, rel=1e-10)


def test_solution_carries_its_sweep(rng):
    # the sweep a solve ends on is the sweep at its optimum, bit for bit:
    # cold at k = 0, warm-started at k > 0, and at x = 0, which takes the
    # same descent as any other state
    for _ in range(5):
        p = make_problem(rng)
        k = int(rng.integers(1, p.N))
        cold = solve_multipliers(p, p.x0)
        warm = solve_multipliers(p, rng.standard_normal(p.n), k=k,
                                 init=cold.lam_star.lambdas[k:])
        origin = solve_multipliers(p, np.zeros(p.n), k=k)
        assert origin.gradient_mode == "envelope"
        for sol in (cold, warm, origin):
            assert_same_sweep(sol.lam_star, sweep(p, fresh(sol.lam_star)))


def test_origin_gradient_is_alpha_ratio():
    p = scalar_problem(N=3, Pf=1.0, alpha=[0.5, 1.0, 2.0])
    lam = project_feasible(p, np.full(3, 2.0), margin=0.1)
    x0 = np.zeros(1)
    expect = p.alpha / (2.0 * p.alpha.sum())
    g_env = envelope_gradient(p, lam, x0)
    assert g_env == pytest.approx(expect, abs=0.0)
    g_fd = fd_gradient(p, lam, x0)
    assert g_fd == pytest.approx(expect, abs=1e-9)


def test_origin_solution_is_the_minimum(rng):
    # at x = 0 the lower corner (every multiplier at its nested bound) is
    # not the minimum in general: the solve takes the same descent as at
    # any other state, and its value matches the two-stage closed form
    p = scalar_problem(N=4, Pf=1.0, alpha=[1.0, 0.5, 2.0, 1.0])
    sol = solve_multipliers(p, np.zeros(1))
    corner = project_feasible(p, np.zeros(4))
    corner_value = float(p.alpha @ corner.lambdas) / (2.0 * p.alpha.sum())
    assert corner_value == pytest.approx(0.577778, abs=1e-6)
    assert sol.converged
    assert sol.value == pytest.approx(0.567087, abs=1e-6)
    assert sol.value < corner_value - 1e-3
    assert sol.value == objective(p, fresh(sol.lam_star), np.zeros(1))
    assert not all(sol.boundary_flags)
    for _ in range(10):
        p = make_problem(rng, N=2)
        x = np.zeros(p.n)
        sol = solve_multipliers(p, x)
        cf = two_stage_value(p.A, p.B, p.G, p.Q, p.R, p.Pf,
                             float(p.alpha[0]), float(p.alpha[1]), x)
        assert sol.converged
        assert sol.value == pytest.approx(cf, abs=1e-7 * (1 + abs(cf)))


def test_non_finite_state_rejected(rng):
    p = make_problem(rng)
    for bad in (np.nan, np.inf, -np.inf):
        x = p.x0.copy()
        x[-1] = bad
        with pytest.raises(ValueError, match="not finite"):
            solve_multipliers(p, x)


def minmax_from_single_stage(p, x):
    # the N=1 tail program in unit-sphere coordinates: scale w by sqrt(a),
    # divide the whole objective by a; the sphere multiplier is unchanged
    a = float(p.alpha[0])
    ra = np.sqrt(a)
    bs = BlockSaddle(M11=(p.B.T @ p.Pf @ p.B + p.R) / a,
                     M12=p.B.T @ p.Pf @ p.G / ra,
                     M22=p.G.T @ p.Pf @ p.G,
                     d1=p.B.T @ p.Pf @ p.A @ x / a,
                     d2=p.G.T @ p.Pf @ p.A @ x / ra)
    u0, w0, lam0, val = solve_constrained_minmax(bs)
    const = float(x @ (p.Q + p.A.T @ p.Pf @ p.A) @ x) / (2.0 * a)
    return u0, ra * w0, lam0, val + const


def test_single_stage_matches_minmax_reference():
    p = scalar_problem(A=1, B=1, G=1, Q=0.2, R=1, Pf=1, N=1, alpha=1.0, x0=1.0)
    sol = solve_multipliers(p, p.x0)
    _, _, lam0, val = minmax_from_single_stage(p, p.x0)
    assert sol.value == pytest.approx(val, abs=1e-8)
    assert sol.lam_star.lambdas[0] == pytest.approx(lam0, abs=1e-7)


def test_single_stage_matches_minmax_random(rng):
    for _ in range(15):
        p = make_problem(rng, N=1)
        sol = solve_multipliers(p, p.x0)
        _, _, lam0, val = minmax_from_single_stage(p, p.x0)
        assert sol.value == pytest.approx(val, abs=1e-7 * (1 + abs(val)))
        assert sol.lam_star.lambdas[0] == pytest.approx(lam0, abs=1e-6)


def test_two_stage_closed_form_scalar(rng):
    for _ in range(8):
        A = float(rng.uniform(-1.2, 1.2)); B = float(rng.uniform(0.4, 1.5))
        G = float(rng.uniform(0.3, 1.2)); Q = float(rng.uniform(0.1, 1.0))
        R = float(rng.uniform(0.2, 1.5)); Pf = float(rng.uniform(0.1, 1.5))
        a0 = float(rng.uniform(0.3, 2.0)); a1 = float(rng.uniform(0.3, 2.0))
        x0 = float(rng.uniform(-2.0, 2.0))
        p = scalar_problem(A=A, B=B, G=G, Q=Q, R=R, Pf=Pf, N=2,
                           alpha=[a0, a1], x0=x0)
        sol = solve_multipliers(p, p.x0)
        cf = two_stage_value(p.A, p.B, p.G, p.Q, p.R, p.Pf, a0, a1, p.x0)
        gd = grid_minmax_two_stage_scalar(A, B, G, Q, R, Pf, a0, a1, x0)
        assert sol.value == pytest.approx(cf, abs=1e-7)
        assert sol.value == pytest.approx(gd, abs=2e-3)


def test_two_stage_closed_form_multivariable(rng):
    for _ in range(8):
        p = make_problem(rng, N=2)
        sol = solve_multipliers(p, p.x0)
        cf = two_stage_value(p.A, p.B, p.G, p.Q, p.R, p.Pf,
                             float(p.alpha[0]), float(p.alpha[1]), p.x0)
        assert sol.value == pytest.approx(cf, abs=1e-7 * (1 + abs(cf)))


def test_envelope_matches_fd(rng):
    for _ in range(10):
        p = make_problem(rng)
        lam = project_feasible(p, rng.uniform(0.5, 2.0, p.N), margin=0.05)
        g_fd = fd_gradient(p, lam, p.x0)
        g_env = envelope_gradient(p, lam, p.x0)
        scale = np.abs(g_fd).max() + 1e-12
        assert np.abs(g_env - g_fd).max() <= 1e-4 * scale


def test_fd_matches_symbolic_scalar_derivative():
    # N=1 scalar: phi(lam) = (Pi0(lam) x^2 + a lam) / (2a) with
    # Pi0 = Q + A^2 Pf - v' M(lam)^{-1} v, differentiated symbolically
    A, B, G, Q, R, Pf, a, x = 1.0, 1.0, 1.0, 0.2, 1.0, 1.0, 1.0, 1.0
    lam_s = sp.Symbol("lam")
    M = sp.Matrix([[B * Pf * B + R, B * Pf * G],
                   [G * Pf * B, G * Pf * G - lam_s]])
    v = sp.Matrix([B * Pf * A, G * Pf * A])
    Pi0 = Q + A * Pf * A - (v.T * M.inv() * v)[0, 0]
    phi = (Pi0 * x**2 + a * lam_s) / (2 * a)
    dphi = sp.lambdify(lam_s, sp.diff(phi, lam_s), "numpy")
    p = scalar_problem(A=A, B=B, G=G, Q=Q, R=R, Pf=Pf, N=1, alpha=a, x0=x)
    for lam0 in (1.5, 2.0, 3.0, 5.0):
        g = fd_gradient(p, [lam0], np.array([x]))
        assert g[0] == pytest.approx(float(dphi(lam0)), abs=1e-6)


def test_gradient_accepts_raw_arrays():
    p = scalar_problem(N=2, Pf=1.0)
    g = fd_gradient(p, np.array([3.0, 2.0]), np.array([1.0]))
    assert g.shape == (2,)


def test_convexity_sampling(rng):
    p = make_problem(rng, n=2, m=2, q=2, N=4)
    x = p.x0
    pairs = 0
    while pairs < 200:
        la_raw = rng.uniform(0.2, 4.0, 4)
        lb_raw = rng.uniform(0.2, 4.0, 4)
        la = project_feasible(p, la_raw, margin=0.02).lambdas
        lb = project_feasible(p, lb_raw, margin=0.02).lambdas
        fa = objective(p, la, x)
        fb = objective(p, lb, x)
        skip = False
        for t in (0.25, 0.5, 0.75):
            mid = t * la + (1.0 - t) * lb
            proj = project_feasible(p, mid, margin=0.0).lambdas
            if np.abs(proj - mid).max() > 1e-12:
                skip = True  # the segment left the feasible set
                break
            fm = objective(p, proj, x)
            assert fm <= t * fa + (1.0 - t) * fb + 1e-9
        pairs += 0 if skip else 1


def lam_of_slack(p, s):
    # lambda_j = bound_j(lambda_{j+1:}) + s_j built backward; the nested
    # set maps onto the nonnegative orthant in these coordinates
    lams = np.zeros(p.N)
    S = p.Pf
    for i in range(p.N - 1, -1, -1):
        b = float(np.linalg.eigvalsh(p.G.T @ S @ p.G)[-1])
        lams[i] = b + 1e-9 + s[i]
        if i > 0:
            S = sweep(p, MultiplierVector(lams[i:], stage_offset=i)).Pi[0]
    return lams


def test_optimality_certificate(rng):
    # stationarity must be read in slack coordinates: an active nested
    # bound moves with the tail multipliers, so the raw lambda gradient
    # need not vanish at a constrained optimum
    for _ in range(10):
        p = make_problem(rng)
        sol = solve_multipliers(p, p.x0)
        assert sol.converged
        sw = sweep(p, sol.lam_star)
        g = fd_gradient(p, sol.lam_star, p.x0)
        s = np.maximum(sol.lam_star.lambdas - sw.bounds - 1e-9, 0.0)
        active = s <= 1e-7 * (1.0 + np.abs(sw.bounds))
        # the solver's slack rebuild, against the one written out above
        assert _reconstruct(p, s, 0)[0].lambdas == pytest.approx(
            lam_of_slack(p, s), rel=1e-14, abs=0.0)
        scale = 1.0 + abs(sol.value)
        h = 1e-6

        def psi(sv):
            return objective(p, lam_of_slack(p, sv), p.x0)

        for j in range(p.N):
            up = s.copy(); up[j] += h
            dpsi = (psi(up) - psi(s)) / h
            if active[j]:
                assert dpsi >= -1e-4 * scale
            else:
                dn = s.copy(); dn[j] = max(dn[j] - h, 0.0)
                central = (psi(up) - psi(dn)) / (up[j] - dn[j])
                assert abs(central) <= 1e-4 * scale
            # the componentwise box condition is only valid for stages with
            # no active earlier constraint (their bounds depend on lam_j)
            if not np.any(active[:j]):
                if active[j]:
                    assert g[j] >= -1e-4 * scale
                else:
                    assert abs(g[j]) <= 1e-4 * scale


def test_slack_gradient_matches_central_differences(rng):
    # the adjoint pass against central differences of the slack objective
    # psi written out in test_optimality_certificate, q up to 3
    h = 1e-5
    for _ in range(20):
        p = make_problem(rng)
        s = rng.uniform(0.05, 1.0, p.N)
        g = _slack_gradient(p, _reconstruct(p, s, 0)[0], p.x0)

        def psi(sv):
            return objective(p, lam_of_slack(p, sv), p.x0)

        fd = np.zeros(p.N)
        for j in range(p.N):
            up = s.copy(); up[j] += h
            dn = s.copy(); dn[j] -= h
            fd[j] = (psi(up) - psi(dn)) / (2.0 * h)
        assert np.abs(g - fd).max() <= 1e-6 * np.abs(g).max()


@pytest.mark.parametrize("a,Pf", [(0.9, 1.0), (1.1, 1.0), (0.8, 0.0)])
def test_isotropic_system_matches_scalar(a, Pf):
    # A = aI, B = G = I: every Pi_j is pi_j I, so G'Pi G has a repeated top
    # eigenvalue at every stage and phi depends on x only through |x|: the
    # scalar system at x0 = |x| is the oracle. By the same symmetry every
    # unit top eigenvector gives the same adjoint, so this checks that v_j
    # is a unit vector and that a repeated eigenvalue does not break the
    # solve, not that any choice of v_j descends on a non-isotropic system
    alpha = [0.5, 1.0, 0.8, 1.5]
    x = np.array([0.6, -1.3])
    I2 = np.eye(2)
    r = np.array([np.linalg.norm(x)])
    p = ProblemData(A=a * I2, B=I2, G=I2, Q=0.2 * I2, R=I2, Pf=Pf * I2, N=4,
                    alpha=alpha, x0=x)
    ps = scalar_problem(A=a, Pf=Pf, N=4, alpha=alpha, x0=r[0])
    for s in (np.zeros(4), np.array([0.0, 0.3, 0.0, 1.2])):
        g = _slack_gradient(p, _reconstruct(p, s, 0)[0], x)
        g_ref = _slack_gradient(ps, _reconstruct(ps, s, 0)[0], r)
        assert g == pytest.approx(g_ref, rel=1e-9, abs=1e-12)
    ref = solve_multipliers(ps, r)
    sol = solve_multipliers(p, x)
    assert ref.converged and sol.converged
    assert sol.value == pytest.approx(ref.value, rel=1e-9)


def test_rotation_and_scaling_invariance(rng):
    # the program is the same in orthonormal coordinates x -> Tx, u -> S'u,
    # w -> V'w (conftest.rotated): its multipliers and value stay within
    # 1e-12 and its gains K -> S'KT', J -> V'JT' and Pi -> T Pi T' within
    # 1e-10 (measured 1.2e-15 and 1.3e-14 on these draws); its multipliers
    # and value stay too under alpha -> c alpha with x -> sqrt(c) x, at any
    # horizon
    for _ in range(20):
        p = make_problem(rng, N=int(rng.integers(2, 9)))
        k = int(rng.integers(0, p.N))
        x = rng.standard_normal(p.n)
        T, S, V = (orthogonal(rng, d) for d in (p.n, p.m, p.q))
        c = rng.uniform(0.1, 10.0)
        scaled = type(p)(A=p.A, B=p.B, G=p.G, Q=p.Q, R=p.R, Pf=p.Pf, N=p.N,
                         alpha=c * p.alpha)
        a = solve_multipliers(p, x, k=k)
        rot = solve_multipliers(rotated(p, T, S, V), T @ x, k=k)
        for b in (rot, solve_multipliers(scaled, np.sqrt(c) * x, k=k)):
            lam_a, lam_b = a.lam_star.lambdas, b.lam_star.lambdas
            assert np.abs(lam_b - lam_a).max() <= 1e-12 * np.abs(lam_a).max()
            assert abs(b.value - a.value) <= 1e-12 * abs(a.value)
        for got, want in ((rot.lam_star.K, S.T @ a.lam_star.K @ T.T),
                          (rot.lam_star.J, V.T @ a.lam_star.J @ T.T),
                          (rot.lam_star.Pi, T @ a.lam_star.Pi @ T.T)):
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_scale_coherence_single_stage(rng):
    # alpha -> c alpha with x -> sqrt(c) x leaves the program invariant
    p = make_problem(rng, N=1)
    c = 4.0
    p_scaled = type(p)(A=p.A, B=p.B, G=p.G, Q=p.Q, R=p.R, Pf=p.Pf, N=1,
                       alpha=c * p.alpha, x0=p.x0)
    s1 = solve_multipliers(p, p.x0)
    s2 = solve_multipliers(p_scaled, np.sqrt(c) * p.x0)
    assert s2.lam_star.lambdas[0] == pytest.approx(s1.lam_star.lambdas[0],
                                                   rel=1e-6)
    assert s2.value == pytest.approx(s1.value, rel=1e-8)


def test_shrinking_horizon_consistency(rng):
    from stdar import control_at, worst_disturbance_at
    for _ in range(5):
        p = make_problem(rng, N=4)
        sol0 = solve_multipliers(p, p.x0)
        u0 = control_at(p, p.x0, 0, sol0.lam_star)
        w0 = worst_disturbance_at(p, p.x0, 0, sol0.lam_star, u0)
        x1 = p.A @ p.x0 + p.B @ u0 + p.G @ w0
        sol1 = solve_multipliers(p, x1, k=1)
        assert sol1.lam_star.lambdas == pytest.approx(
            sol0.lam_star.lambdas[1:], abs=1e-6 * (1 + sol0.lam_star.lambdas.max()))


def corner_gradient(p, x, k):
    # the slack gradient at the cold start, the lower corner s = 0, and
    # its projected norm there, min(g, 0)
    sw = _reconstruct(p, np.zeros(p.N - k), k)[0]
    g = _slack_gradient(p, sw, x)
    return g, float(np.linalg.norm(np.minimum(g, 0.0))), sw


def test_interior_ill_conditioned_solve_converges():
    # small B and G: all 16 tail multipliers are interior and phi is
    # ill-conditioned in them, so a projected-gradient step creeps (with a
    # Barzilai-Borwein step it stops at max_iter = 5 000 unconverged, 12%
    # above the minimum). 0.07048129333 is the minimum scipy's L-BFGS-B
    # reaches with gradient tolerance 1e-14
    alpha = [0.27234527657621566, 0.9982821876287793, 1.4817699165869855,
             0.36943357990531006, 0.2681508745008452, 1.5814157269695732,
             0.6181760074955454, 0.8445722089390131, 1.3696649331042712,
             1.6533597895209649, 1.5924999468922345, 0.6817505173781183,
             1.5891172035695693, 1.065601696774996, 0.622640058460263,
             0.43669521473767636, 0.8834455435132502, 0.3668700467902596,
             1.2508474601495088, 1.2474052885656968, 0.8547177377284083]
    p = scalar_problem(A=0.9, B=-0.07799433183569109, G=0.01235852453336173,
                       Q=3.4512262897469164, R=0.5650540597820861,
                       Pf=0.10002410848427355, N=21, alpha=alpha,
                       x0=-0.4269438986061513)
    sol = solve_multipliers(p, p.x0, k=5)
    assert sol.converged
    assert sol.value <= 0.07048129333 * (1.0 + 1e-9)
    assert sol.iterations <= 200
    # it takes 4 610, 8% under the bound (4 160 before the head step; the
    # cause of the rise is not settled)
    assert sol.stage_steps <= 5000
    assert not any(sol.boundary_flags)


def test_random_cold_solves_converge():
    # 200 cold solves, N = 2-40, k uniform, x = 10^U(-1, 1) x0. All
    # converge, 197 of them under the 1e-8 rule, in 1 202 iterations, at
    # most 69 in one solve (1 440 and 79 before the head step); the bounds
    # keep about 4% over both. The floor of 188 under the 1e-8 rule is what
    # projected Barzilai-Borwein steps reached on these draws
    rng = np.random.default_rng(15)
    iterations, tight = [], 0
    for _ in range(200):
        N = int(rng.integers(2, 41))
        p = make_problem(rng, N=N)
        k = int(rng.integers(0, N))
        x = 10.0 ** rng.uniform(-1.0, 1.0) * p.x0
        sol = solve_multipliers(p, x, k=k)
        assert sol.converged
        iterations.append(sol.iterations)
        tight += sol.grad_norm <= 1e-8 * (1.0 + abs(sol.value))
    assert sum(iterations) <= 1250
    assert max(iterations) <= 72
    assert tight >= 188


def test_max_iterations_returns_best_iterate(monkeypatch):
    # the paper's scalar system at x = 0: its lower corner is not optimal
    # (test_origin_solution_is_the_minimum), so the cold solve, which
    # starts there, must step; the cap is a module constant
    p = scalar_problem(N=4, Pf=1.0, alpha=[1.0, 0.5, 2.0, 1.0])
    x = np.zeros(1)
    assert corner_gradient(p, x, 0)[1] > 1e-3
    monkeypatch.setattr(multiplier, "_MAX_ITER", 1)
    sol = solve_multipliers(p, x)
    assert not sol.converged
    assert sol.iterations >= 1
    assert np.isfinite(sol.value)


def test_cold_solve_ends_at_an_optimal_corner(rng):
    # a cold solve starts at the lower corner s = 0; where the projected
    # gradient already vanishes there, it ends after its start pass and
    # one gradient, on the corner itself
    p = make_problem(rng, n=3, m=2, q=2, N=5)
    x = 3.0 * p.x0
    for k in (0, 2):
        _, pgn, corner = corner_gradient(p, x, k)
        assert pgn == 0.0  # g >= 0 at every stage
        sol = solve_multipliers(p, x, k=k)
        assert sol.converged
        assert (sol.iterations, sol.stage_steps, sol.gradient_evals,
                sol.backtracks) == (0, p.N - k, 1, 0)
        assert np.array_equal(sol.lam_star.lambdas, corner.lambdas)
        assert all(sol.boundary_flags)


def test_first_trial_moves_no_slack_by_more_than_one(monkeypatch):
    # all multipliers interior (small B and G): at the corner the last
    # stage's slack gradient is about -267, and it still is once the start
    # point's head step has set s_0, so a unit first step would move that
    # slack by hundreds; the first descent trial is capped at 1
    p = scalar_problem(A=0.9, B=-0.132, G=-0.042, Q=1, R=1, Pf=1, N=5,
                       alpha=1.0, x0=1.0)
    assert corner_gradient(p, p.x0, 0)[0][1:].min() < -100.0
    trials, heads, in_head = [], [], []
    full, head = multiplier._reconstruct, multiplier._head_step

    def record(p, s, k, base=None):
        if base is not None and not in_head:
            trials.append((s.copy(), base))
        return full(p, s, k, base)

    def head_step(*args):
        in_head.append(1)
        try:
            heads.append(head(*args))
        finally:
            in_head.pop()
        return heads[-1]

    monkeypatch.setattr(multiplier, "_reconstruct", record)
    monkeypatch.setattr(multiplier, "_head_step", head_step)
    sol = solve_multipliers(p, p.x0)
    assert sol.converged
    s, start = heads[0][:2]  # the start point, after its head step
    assert trials[0][1] is start
    g = _slack_gradient(p, start, p.x0)
    assert g[1:].min() < -100.0
    step = trials[0][0] - s
    assert np.abs(step).max() == pytest.approx(1.0, rel=1e-12)
    assert np.array_equal(step > 0.0, g < 0.0)


def test_slack_gradient_matches_stagewise_reference(rng):
    # the batched adjoint pass against the same pass written stage by
    # stage, on cold slack passes, warm starts' passes from raw multipliers
    # and trial passes resumed from either
    for i in range(200):
        n = int(rng.integers(1, 4))
        m = int(rng.choice([v for v in (1, 2, 3) if v != n]))
        p = make_problem(rng, n=n, m=m, q=int(rng.integers(1, 4)),
                         N=int(rng.integers(1, 9)))
        k = int(rng.integers(0, p.N))
        size = p.N - k
        s = np.where(rng.random(size) < 0.5, 0.0, rng.uniform(0.0, 1.0, size))
        sw = (_reconstruct(p, s, k)[0] if i % 2 == 0 else
              _nested_pass(p, rng.uniform(0.0, 3.0, size), k, EPS_BOUNDARY)[0])
        if i % 4 >= 2:
            cand = np.maximum(sw.lambdas - sw.bounds - EPS_BOUNDARY, 0.0)
            cand[rng.integers(0, size)] += rng.uniform(0.01, 1.0)
            sw = _reconstruct(p, cand, k, sw)[0]
        x = rng.uniform(0.1, 3.0) * rng.standard_normal(p.n)
        g = _slack_gradient(p, sw, x)
        ref = slack_gradient_reference(p, sw, x)
        assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()


def test_tail_map_gradient_matches_the_loop(rng):
    # a map built over stages t.. of a base pass gives the gradient of any
    # pass resumed from that base which steps only stages below t: its head
    # is the loop's own, bit for bit, and its tail agrees with the loop and
    # the stage-by-stage reference. No map exists at t = 0 or t = N - k
    checked = 0
    for i in range(60):
        n = int(rng.integers(1, 4))
        m = int(rng.choice([v for v in (1, 2, 3) if v != n]))
        p = make_problem(rng, n=n, m=m, q=int(rng.integers(1, 4)),
                         N=int(rng.integers(1, 9)))
        k = int(rng.integers(0, p.N))
        size = p.N - k
        slack = np.where(rng.random(size) < 0.5, 0.0, rng.uniform(0.0, 1.0, size))
        base = None
        if i % 2:  # a slack pass resumed from a warm start's raw pass
            base = _nested_pass(p, rng.uniform(0.0, 3.0, size), k, EPS_BOUNDARY)[0]
            slack = np.maximum(base.lambdas - base.bounds - EPS_BOUNDARY, 0.0)
        base = _reconstruct(p, slack, k, base)[0]
        x = rng.uniform(0.1, 3.0) * rng.standard_normal(p.n)
        assert _tail_map(p, base, 0) is None and _tail_map(p, base, size) is None
        for t in range(1, size):
            tail = _tail_map(p, base, t)
            cand = slack.copy()
            cand[rng.integers(0, t)] += rng.uniform(0.01, 1.0)
            sw, depth, _ = _reconstruct(p, cand, k, base)
            assert depth <= t
            for pass_ in (base, sw):
                g = _slack_gradient(p, pass_, x, tail)
                loop = _slack_gradient(p, pass_, x)
                ref = slack_gradient_reference(p, pass_, x)
                assert np.array_equal(g[:t], loop[:t])
                assert np.abs(g - loop).max() <= 1e-12 * np.abs(loop).max()
                assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()
                checked += 1
    assert checked > 100


def test_tail_maps_leave_solves_unchanged(rng, monkeypatch):
    # cold and warm solves end on the same point, within 1e-12, with the
    # same counts whether their gradients take tails from maps or run the
    # full loop; a map must be rebuilt when a step reaches past it
    def solves(p, x, scale):
        cold = solve_multipliers(p, x)
        return cold, solve_multipliers(p, -x, init=scale * cold.lam_star.lambdas)

    cases = []
    for _ in range(30):
        p = make_problem(rng, N=int(rng.integers(4, 13)))
        x = 2.0 * rng.standard_normal(p.n)
        scale = rng.uniform(0.5, 2.0, p.N)
        cases.append((p, x, scale, solves(p, x, scale)))
    monkeypatch.setattr(multiplier, "_tail_map", lambda *a: None)
    saved = 0
    for p, x, scale, with_maps in cases:
        for a, b in zip(with_maps, solves(p, x, scale)):
            lam = b.lam_star.lambdas
            assert np.abs(a.lam_star.lambdas - lam).max() <= 1e-12 * np.abs(lam).max()
            assert a.value == pytest.approx(b.value, rel=1e-12, abs=0.0)
            assert ((a.iterations, a.stage_steps, a.gradient_evals, a.backtracks)
                    == (b.iterations, b.stage_steps, b.gradient_evals, b.backtracks))
            assert b.adjoint_stages == b.gradient_evals * len(lam)
            saved += b.adjoint_stages - a.adjoint_stages
    assert saved > 0


def test_tail_map_over_long_growing_tails(rng):
    # over 30-50 stages of unstable systems, where many closed loops grow
    # over the tail, a map in use loses at most 1e-12 of the reference's
    # scale beyond what the loop loses; a map whose composed products pass
    # the growth bound is not used, and its gradient is the loop's
    used = refused = grown = 0
    for _ in range(40):
        n = int(rng.integers(1, 5))
        p = make_problem(rng, n=n, q=int(rng.integers(1, 4)),
                         N=int(rng.integers(30, 51)), stable=False)
        slack = np.where(rng.random(p.N) < 0.5, 0.0, rng.uniform(0.0, 1.0, p.N))
        sw = _reconstruct(p, slack, 0)[0]
        x = 3.0 * rng.standard_normal(n)
        ref = slack_gradient_reference(p, sw, x)
        loop = _slack_gradient(p, sw, x)
        loop_err = np.abs(loop - ref).max()
        for t in (1, p.N // 2, p.N - 2):
            tail = _tail_map(p, sw, t)
            g = _slack_gradient(p, sw, x, tail)
            if tail[1] is None:
                refused += 1
                assert np.array_equal(g, loop)
                continue
            used += 1
            grown += max(np.abs(np.linalg.eigvals(p.A - p.B @ K - p.G @ J)).max()
                         for K, J in zip(sw.K[t:], sw.J[t:])) > 1.0
            assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max() + loop_err
    assert used > 50 and refused > 0 and grown > 25


def test_tail_maps_leave_long_solves_unchanged(rng, monkeypatch):
    # cold solves over 30-50 stages of unstable systems end where the loop's
    # do, with the same counts; at n = 5 no map is built, however many
    # steps the descent takes
    built = []

    def recording(p, sw, t):
        built.append(p.n)
        return _tail_map(p, sw, t)

    monkeypatch.setattr(multiplier, "_tail_map", recording)
    cases = []
    for i in range(20):
        n = 5 if i % 2 else int(rng.integers(1, 5))
        p = make_problem(rng, n=n, N=int(rng.integers(30, 51)), stable=False)
        x = 2.0 * rng.standard_normal(n)
        cases.append((p, x, solve_multipliers(p, x)))
    assert built and max(built) <= 4
    monkeypatch.setattr(multiplier, "_tail_map", lambda *a: None)
    saved = stepped = 0
    for p, x, a in cases:
        b = solve_multipliers(p, x)
        lam = b.lam_star.lambdas
        assert np.abs(a.lam_star.lambdas - lam).max() <= 1e-12 * np.abs(lam).max()
        assert a.value == pytest.approx(b.value, rel=1e-12, abs=0.0)
        assert ((a.iterations, a.stage_steps, a.gradient_evals, a.backtracks)
                == (b.iterations, b.stage_steps, b.gradient_evals, b.backtracks))
        if p.n > 4:
            assert a.adjoint_stages == b.adjoint_stages == a.gradient_evals * p.N
            stepped += a.iterations > 0
        saved += b.adjoint_stages - a.adjoint_stages
    assert saved > 0 and stepped > 0


def test_warm_start_accepted(rng):
    p = make_problem(rng, N=3)
    cold = solve_multipliers(p, p.x0)
    warm = solve_multipliers(p, p.x0, init=cold.lam_star.lambdas)
    assert warm.value == pytest.approx(cold.value, rel=1e-9)
    assert warm.iterations <= cold.iterations


def test_cold_start_is_the_warm_start_from_minus_infinity(rng, monkeypatch):
    # a cold solve takes a warm start's one margin pass from raw -inf: that
    # pass is the slack pass at s = 0 bit for bit, and its slacks read back
    # as exact zeros, the lower corner
    starts = []
    descend = multiplier._descend

    def record(p, x, s, sw, start_steps):
        starts.append((s, sw))
        return descend(p, x, s, sw, start_steps)

    monkeypatch.setattr(multiplier, "_descend", record)
    for i in range(40):
        p = make_problem(rng, N=int(rng.integers(1, 9)), degenerate_pf=i % 4 == 0)
        k = int(rng.integers(0, p.N))
        solve_multipliers(p, p.x0, k=k)
        s, sw = starts.pop()
        assert np.array_equal(s, np.zeros(p.N - k))
        assert_same_sweep(sw, _reconstruct(p, np.zeros(p.N - k), k)[0])


def test_warm_resolve_at_the_optimum_costs_its_start_pass(rng):
    # a warm re-solve from a solution's own lam_star (same p, x, k) starts
    # on that solution's sweep. Slacks at their bounds read as 0, not as
    # lam - b - eps_boundary's rounding noise, so a solve that met the
    # 1e-8 rule meets it again at once: its start pass and one gradient.
    # A solve that ended under the 1e-6 rule (no trial accepted) is not at
    # that tolerance, and its re-solve may try steps again from the first
    # step length. The start pass steps the stages it does not copy
    tight = 0
    for _ in range(100):
        p = make_problem(rng)
        k = int(rng.integers(0, p.N))
        x = 10.0 ** rng.uniform(-1.0, 1.0) * rng.standard_normal(p.n)
        sol = solve_multipliers(p, x, k=k)
        assert sol.converged
        warm = solve_multipliers(p, x, k=k, init=sol.lam_star.lambdas)
        assert warm.converged
        assert warm.value <= sol.value
        if sol.grad_norm <= 1e-8 * (1.0 + abs(sol.value)):
            tight += 1
            start = _nested_pass(p, sol.lam_star.lambdas, k, EPS_BOUNDARY)
            assert (warm.iterations, warm.gradient_evals, warm.stage_steps,
                    warm.backtracks) == (0, 1, start[2], 0)
            assert warm.value == sol.value
    assert tight >= 98


def test_no_trial_within_phi_rounding(rng, monkeypatch):
    # every trial pass the descent evaluates predicts a decrease -g.step
    # of phi above phi's rounding; smaller ones end the line search
    # unevaluated. Slack points are read off the start and trial passes.
    # Head re-steps are recorded apart: each moves s_0 alone and lowers phi
    slacks, trials, heads, in_head = {}, [], [], []
    descend, full, head = multiplier._descend, multiplier._reconstruct, multiplier._head_step

    def start(p, x, s, sw, start_steps):
        slacks[id(sw)] = s
        return descend(p, x, s, sw, start_steps)

    def record(p, s, k, base=None):
        out = full(p, s, k, base)
        sw = out[0]
        if base is not None:
            phi = multiplier._phi(p, x, base)
            ds = s - slacks[id(base)]
            if in_head:
                heads.append((phi - multiplier._phi(p, x, sw), abs(phi), ds[1:].any()))
            else:
                g = _slack_gradient(p, base, x)
                trials.append((-float(g @ ds), abs(phi)))
        slacks[id(sw)] = s
        return out

    def head_step(*args):
        in_head.append(1)
        try:
            return head(*args)
        finally:
            in_head.pop()

    monkeypatch.setattr(multiplier, "_descend", start)
    monkeypatch.setattr(multiplier, "_reconstruct", record)
    monkeypatch.setattr(multiplier, "_head_step", head_step)
    for i in range(60):
        p = make_problem(rng, N=int(rng.integers(2, 12)))
        k = int(rng.integers(0, p.N))
        x = 10.0 ** rng.uniform(-1.0, 1.0) * rng.standard_normal(p.n)
        init = (None if i % 2 == 0 else
                rng.uniform(0.0, 3.0) * np.ones(p.N - k))
        assert solve_multipliers(p, x, k=k, init=init).converged
    assert len(trials) > 100
    rounding = 16.0 * np.finfo(float).eps
    assert all(pred > rounding * phi for pred, phi in trials)
    assert len(heads) > 50
    assert not any(moved for _, _, moved in heads)
    assert all(dec > 0.0 for dec, _, _ in heads)


def test_resume_leaves_solves_unchanged(rng, monkeypatch):
    # cold and warm solves end on the same point, value and step counts
    # whether each trial pass resumes from the current sweep or runs full
    def solves(p, x, scale):
        cold = solve_multipliers(p, x)
        init = scale * cold.lam_star.lambdas
        return cold, solve_multipliers(p, -x, init=init)

    cases = []
    for _ in range(10):
        p = make_problem(rng, N=int(rng.integers(4, 9)))
        x = 2.0 * rng.standard_normal(p.n)
        scale = rng.uniform(0.5, 2.0, p.N)
        cases.append((p, x, scale, solves(p, x, scale)))
    full = multiplier._reconstruct
    monkeypatch.setattr(multiplier, "_reconstruct",
                        lambda p, s, k, base=None: full(p, s, k))
    saved = 0
    for p, x, scale, resumed in cases:
        for a, b in zip(resumed, solves(p, x, scale)):
            assert np.array_equal(a.lam_star.lambdas, b.lam_star.lambdas)
            assert a.value == b.value
            assert (a.iterations, a.backtracks) == (b.iterations, b.backtracks)
            assert a.stage_steps <= b.stage_steps
            saved += b.stage_steps - a.stage_steps
    assert saved > 0


def test_gradient_modes(rng):
    # "auto" and "envelope" both run the exact slack gradient; no other
    # mode exists
    p = make_problem(rng, N=3)
    auto = solve_multipliers(p, p.x0)
    env = solve_multipliers(p, p.x0, gradient_mode="envelope")
    assert auto.gradient_mode == env.gradient_mode == "envelope"
    assert auto.value == env.value
    with pytest.raises(ValueError):
        solve_multipliers(p, p.x0, gradient_mode="fd")


def test_monotone_in_horizon_tail_value():
    # sanity: the stage-1 restart never beats the full-horizon bound from
    # the same state under the same multiplier tail
    p = scalar_problem(N=3, Pf=1.0, x0=1.0)
    sol = solve_multipliers(p, p.x0)
    tail = solve_multipliers(p, p.x0, k=1)
    assert np.isfinite(tail.value)
    assert tail.lam_star.lambdas.shape == (2,)
