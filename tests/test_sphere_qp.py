import numpy as np
import pytest
import scipy.linalg as la

from oracles import circle_scan_max, golden_min
from sphere_oracle import (BlockSaddle, NoSolution, RankDeficientD, SphereQP,
                           block_nonsingular, dual_value, saddle_point,
                           solve_constrained_minmax, solve_sphere_qp)


def rand_psd(rng, q, floor=0.0):
    C = rng.standard_normal((q, q))
    return C.T @ C / q + floor * np.eye(q)


def test_pure_eigenvector_case():
    sol = solve_sphere_qp(SphereQP(D=np.diag([2.0, 1.0]), d=np.zeros(2)))
    assert sol.lambda_P == pytest.approx(2.0, abs=1e-12)
    assert sol.value == pytest.approx(1.0, abs=1e-12)
    assert sol.boundary_case
    assert abs(sol.w_star[0]) == pytest.approx(1.0, abs=1e-12)
    assert sol.w_star[1] == pytest.approx(0.0, abs=1e-12)
    assert sol.nullspace.shape == (2, 1)


def test_linear_objective_on_sphere():
    sol = solve_sphere_qp(SphereQP(D=np.zeros((2, 2)), d=np.array([1.0, 0.0])))
    assert sol.lambda_P == pytest.approx(1.0, abs=1e-12)
    assert sol.value == pytest.approx(1.0, abs=1e-12)
    assert not sol.boundary_case
    assert sol.w_star == pytest.approx(np.array([1.0, 0.0]), abs=1e-12)
    assert sol.nullspace.shape == (2, 0)


def test_radius_scaling():
    # max of w'Dw/2 over ||w|| = 3 is 9 * top eig / 2; multiplier stays at
    # the top eigenvalue in original coordinates
    sol = solve_sphere_qp(SphereQP(D=np.diag([2.0, 1.0]), d=np.zeros(2),
                                   radius=3.0))
    assert sol.lambda_P == pytest.approx(2.0, abs=1e-12)
    assert sol.value == pytest.approx(9.0, abs=1e-12)
    assert np.linalg.norm(sol.w_star) == pytest.approx(3.0, rel=1e-12)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        SphereQP(D=np.eye(2), d=np.zeros(2), radius=0.0)
    with pytest.raises(ValueError):
        SphereQP(D=np.eye(2), d=np.zeros(3))
    with pytest.raises(ValueError):
        solve_sphere_qp(SphereQP(D=np.diag([-1.0, 0.0]), d=np.zeros(2)))


def test_matches_circle_scan(rng):
    for _ in range(20):
        D = rand_psd(rng, 2)
        d = rng.standard_normal(2)
        r = float(rng.uniform(0.5, 2.0))
        sol = solve_sphere_qp(SphereQP(D=D, d=d, radius=r))
        ref, _ = circle_scan_max(D, d, r, n_angles=200_000)
        assert sol.value == pytest.approx(ref, abs=1e-4)


def test_kkt_and_norm_invariants(rng):
    for _ in range(60):
        q = int(rng.integers(1, 7))
        D = rand_psd(rng, q)
        kind = rng.integers(0, 3)
        if kind == 0:
            d = rng.standard_normal(q)
        elif kind == 1:
            d = np.zeros(q)
        else:
            # force the boundary case: d orthogonal to the top eigenspace
            # and small enough for the pinv response to stay in the ball
            mu, V = np.linalg.eigh(D)
            d = V[:, :-1] @ rng.standard_normal(q - 1) * 1e-3 if q > 1 else np.zeros(q)
        r = float(rng.uniform(0.5, 2.0))
        qp = SphereQP(D=D, d=d, radius=r)
        sol = solve_sphere_qp(qp)
        assert np.linalg.norm(sol.w_star) == pytest.approx(r, rel=1e-10)
        kkt = np.linalg.norm((D - sol.lambda_P * np.eye(q)) @ sol.w_star + d)
        assert kkt <= 1e-8 * (np.linalg.norm(D, 2) + np.linalg.norm(d) + 1.0)
        assert sol.lambda_P >= np.linalg.eigvalsh(D)[-1] - 1e-9


def test_weak_duality_sandwich(rng):
    D = rand_psd(rng, 3)
    d = rng.standard_normal(3)
    qp = SphereQP(D=D, d=d)
    sol = solve_sphere_qp(qp)
    assert dual_value(qp, sol.lambda_P) == pytest.approx(sol.value, abs=1e-10)
    for _ in range(100):
        lam = sol.lambda_P + float(rng.uniform(0.0, 5.0)) + 1e-9
        assert dual_value(qp, lam) >= sol.value - 1e-10


def test_saddle_point_hand_example():
    bs = BlockSaddle(M11=1.0, M12=np.zeros((1, 1)), M22=0.0,
                     d1=[1.0], d2=[0.0], lam=2.0)
    u, w, L0 = saddle_point(bs)
    assert u == pytest.approx(np.array([-1.0]), abs=1e-12)
    assert w == pytest.approx(np.array([0.0]), abs=1e-12)
    assert L0 == pytest.approx(0.5, abs=1e-12)


def test_saddle_point_zero_linear_term():
    bs = BlockSaddle(M11=np.eye(2), M12=np.zeros((2, 2)), M22=np.eye(2),
                     d1=np.zeros(2), d2=np.zeros(2), lam=3.0)
    u, w, L0 = saddle_point(bs)
    assert np.allclose(u, 0.0) and np.allclose(w, 0.0)
    assert L0 == pytest.approx(1.5, abs=1e-12)


def test_saddle_point_no_solution_below_m22():
    bs = BlockSaddle(M11=1.0, M12=np.zeros((1, 1)), M22=2.0,
                     d1=[1.0], d2=[1.0], lam=1.0)
    with pytest.raises(NoSolution):
        saddle_point(bs)


def test_saddle_point_rank_deficient_d():
    # at lam = ||M22|| the shifted (2,2) block annihilates the top
    # eigendirection; d2 with a component there has no solution
    bs = BlockSaddle(M11=1.0, M12=np.zeros((1, 2)), M22=np.diag([1.0, 0.5]),
                     d1=[0.0], d2=[1.0, 0.0], lam=1.0)
    with pytest.raises(RankDeficientD):
        saddle_point(bs)


def test_saddle_point_inner_optimizer_residuals(rng):
    for _ in range(30):
        m = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        M11 = rand_psd(rng, m, floor=0.5)
        M12 = rng.standard_normal((m, q))
        M22 = rand_psd(rng, q)
        lam = float(np.linalg.eigvalsh(M22)[-1] + rng.uniform(0.1, 2.0))
        d1 = rng.standard_normal(m)
        d2 = rng.standard_normal(q)
        bs = BlockSaddle(M11=M11, M12=M12, M22=M22, d1=d1, d2=d2, lam=lam)
        u, w, L0 = saddle_point(bs)
        assert np.linalg.norm(M11 @ u + M12 @ w + d1) <= 1e-8
        assert np.linalg.norm(M12.T @ u + (M22 - lam * np.eye(q)) @ w + d2) <= 1e-8


def test_minmax_zero_linear_term(rng):
    M22 = rand_psd(rng, 2)
    bs = BlockSaddle(M11=np.eye(2), M12=np.zeros((2, 2)), M22=M22,
                     d1=np.zeros(2), d2=np.zeros(2))
    u0, w0, lam0, value = solve_constrained_minmax(bs)
    top = float(np.linalg.eigvalsh(M22)[-1])
    assert lam0 == pytest.approx(top, abs=1e-9)
    assert value == pytest.approx(0.5 * top, abs=1e-9)
    assert np.linalg.norm(w0) == pytest.approx(1.0, rel=1e-10)
    # w0 lies in the top eigenspace
    assert np.linalg.norm(M22 @ w0 - top * w0) <= 1e-7


def test_minmax_near_isotropic_m22_boundary():
    # M22 - lam0 I is all noise here; the pinv cutoff must key on lam0, not
    # on the noise spectrum, or the tiny d2 turns into a huge response
    bs = BlockSaddle(M11=np.eye(1), M12=np.zeros((1, 2)),
                     M22=np.diag([2.0, 2.0 - 1e-15]),
                     d1=np.array([0.5]), d2=np.array([1e-10, 0.0]))
    u0, w0, lam0, value = solve_constrained_minmax(bs)
    assert lam0 == pytest.approx(2.0, abs=1e-7)
    assert np.linalg.norm(w0) == pytest.approx(1.0, rel=1e-10)
    assert u0 == pytest.approx([-0.5], abs=1e-8)
    assert value == pytest.approx(-0.125 + 0.5 * 2.0, abs=1e-6)


def test_minmax_matches_nested_grid(rng):
    # scalar u, 2-d w on the unit circle; golden over u against angle scan
    for _ in range(3):
        M11 = np.array([[float(rng.uniform(0.5, 2.0))]])
        M12 = rng.standard_normal((1, 2))
        M22 = rand_psd(rng, 2)
        d1 = rng.standard_normal(1)
        d2 = rng.standard_normal(2)
        bs = BlockSaddle(M11=M11, M12=M12, M22=M22, d1=d1, d2=d2)
        u0, w0, lam0, value = solve_constrained_minmax(bs)

        th = np.linspace(0.0, 2.0 * np.pi, 4001, endpoint=False)
        W = np.vstack([np.cos(th), np.sin(th)])

        def inner_max(u):
            z = 0.5 * M11[0, 0] * u * u + d1[0] * u
            vals = (z + u * (M12 @ W).ravel()
                    + 0.5 * np.einsum("ij,ij->j", W, M22 @ W) + d2 @ W)
            return float(vals.max())

        L = 10.0 * (1.0 + abs(float(u0[0])))
        _, ref = golden_min(inner_max, -L, L, tol=1e-10)
        assert value == pytest.approx(ref, abs=1e-3)


def test_block_nonsingular_hand_cases():
    assert not block_nonsingular(np.eye(1), np.zeros((1, 1)), np.zeros((1, 1)))
    assert block_nonsingular(np.eye(1), np.eye(1), np.zeros((1, 1)))
    assert block_nonsingular(np.eye(2), np.array([[1.0, 0.0], [0.0, 0.0]]),
                             np.diag([0.0, -1.0]))


def test_block_nonsingular_matches_svd(rng):
    hits = {True: 0, False: 0}
    for _ in range(100):
        m = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        Apart = rand_psd(rng, m, floor=0.5)
        Bpart = rng.standard_normal((m, q))
        Dpart = -rand_psd(rng, q)
        if rng.integers(0, 2):
            # plant a shared null direction to hit the singular branch
            j = int(rng.integers(0, q))
            Bpart[:, j] = 0.0
            Dpart = -rand_psd(rng, q)
            Dpart[j, :] = 0.0
            Dpart[:, j] = 0.0
        M = np.block([[Apart, Bpart], [Bpart.T, Dpart]])
        svd_says = la.svdvals(M)[-1] > 1e-10 * np.abs(M).max()
        got = block_nonsingular(Apart, Bpart, Dpart)
        assert got == svd_says
        hits[got] += 1
    assert hits[True] > 0 and hits[False] > 0


def test_schur_margin_implies_full_rank_at_boundary(rng):
    # when the w-block Schur complement tops out strictly below ||M22||,
    # the assembled matrix at lam = ||M22|| stays nonsingular
    checked = 0
    for _ in range(50):
        m = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        M11 = rand_psd(rng, m, floor=0.5)
        M12 = rng.standard_normal((m, q))
        M22 = rand_psd(rng, q)
        nu = float(np.linalg.eigvalsh(
            M22 - M12.T @ np.linalg.solve(M11, M12))[-1])
        top = float(np.linalg.eigvalsh(M22)[-1])
        if nu >= top - 1e-8:
            continue
        M = np.block([[M11, M12], [M12.T, M22 - top * np.eye(q)]])
        assert la.svdvals(M)[-1] > 1e-10 * np.abs(M).max()
        checked += 1
    assert checked > 10
