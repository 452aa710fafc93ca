import dataclasses

import numpy as np
import pytest
import scipy.linalg as la

from stdar import (AssumptionViolated, Diverged, NoFeasibleLambda, lmi_certify,
                   lqr_baseline, rollout, solve_multipliers, solve_steady_state,
                   validate_problem)
from stdar import _kernels, steady_state
from stdar._linalg import sqrt_psd, top_eig
from stdar.errors import SingularPi
from stdar.problem import _TOL_PSD, ProblemData
from stdar.riccati import EPS_BOUNDARY
from conftest import make_problem, orthogonal, rotated, scalar_problem
from oracles import (game_map_reference, sda_reference, steady_scalar_closed_form,
                     steady_scalar_grid, steady_scalar_pi_at)


def steady_scalar(A=1.0, B=1.0, G=1.0, Q=0.2, R=1.0, Pf=1.0):
    # N, alpha, x0 are irrelevant to the steady-state program
    return scalar_problem(A=A, B=B, G=G, Q=Q, R=R, Pf=Pf, N=2,
                          alpha=1.0, x0=1.0)


def fixed_point(p, lam):
    # the search's probe at lam, which must reach a fixed point
    status, _, Pi, _, _ = steady_state._probe(p, lam)
    assert status == 0
    return Pi


def coupling(p, lam):
    # Z = B R^{-1} B' - G G'/lam of the map, as the probe forms it
    BRB, GG = p._steady_constants[:2]
    return BRB - GG / lam if lam < np.inf else BRB


def kernel_args(p, lam, x0=None):
    # the doubling kernel's arguments at lam as _probe hands them, from a
    # start of norm x0 (||Pf||, the probe's, by default): Z, the cap
    # 1e12 (1 + ||Q|| + x0), I_n, G and the exit's bound lam + EPS_BOUNDARY
    x0 = np.linalg.norm(p.Pf) if x0 is None else x0
    cap = 1e12 * (1.0 + np.linalg.norm(p.Q) + x0)
    return (p.A, p.Q, coupling(p, lam), x0, cap, np.eye(p.n), p.G,
            lam + EPS_BOUNDARY)


@pytest.mark.parametrize("R", [[[0.0]], np.diag([1.0, 0.0])], ids=["1x1", "2x2"])
def test_singular_R_is_a_violated_assumption(R):
    # ProblemData takes a singular R, which only validate_problem refuses.
    # The finite-horizon solves run on it; the steady state and the LQR
    # baseline, whose map needs R^{-1}, raise validate_problem's error
    n = len(R)
    p = ProblemData(A=0.5 * np.eye(n), B=np.eye(n), G=np.eye(n), Q=np.eye(n),
                    R=R, Pf=np.eye(n), N=3, alpha=1.0, x0=np.ones(n))
    assert solve_multipliers(p, p.x0).converged and rollout(p).converged
    message = "R positive definite: min eigenvalue 0.000e+00"
    for call in (validate_problem, solve_steady_state, lqr_baseline):
        with pytest.raises(AssumptionViolated) as err:
            call(p)
        assert str(err.value) == message, call.__name__


def test_scalar_reference_solution():
    # lam_bar = Pi_bar = 1.2 and K_bar = 1 for the unit-coefficient system
    # with Q = 0.2; the constraint is boundary-active there
    p = steady_scalar()
    sol = solve_steady_state(p)
    assert sol.lambda_bar == pytest.approx(1.2, abs=1e-6)
    assert sol.Pi_bar[0, 0] == pytest.approx(1.2, abs=1e-4)
    assert sol.K_bar[0, 0] == pytest.approx(1.0, abs=1e-4)
    assert sol.residual <= 1e-8
    assert sol.boundary_gap >= -1e-9 * (1.0 + sol.lambda_bar)
    assert sol.boundary_gap <= 1e-2
    assert sol.lmi_feasible
    assert lmi_certify(p, sol).min_eig >= -1e-7


def test_scalar_grid_oracle_agrees():
    # the multiplier agrees tightly; Pi is compared at a common slightly
    # interior lambda because both iterations suffer critical slowing
    # exactly at the boundary-active fixed point
    p = steady_scalar(A=0.5)
    sol = solve_steady_state(p)
    lam_g, pi_g = steady_scalar_grid(0.5, 1.0, 1.0, 0.2, 1.0, 1.0)
    assert sol.lambda_bar == pytest.approx(lam_g, abs=1e-6)
    lam_c = sol.lambda_bar + 1e-6
    pi_o = steady_scalar_pi_at(0.5, 1.0, 1.0, 0.2, 1.0, 1.0, lam_c)
    pi_s = fixed_point(p, lam_c)[0, 0]
    assert pi_s == pytest.approx(pi_o, abs=1e-6)
    assert sol.Pi_bar[0, 0] == pytest.approx(pi_g, abs=1e-3)


def test_weight_homogeneity(rng):
    # scaling (Q, R, Pf) by c scales (lambda_bar, Pi_bar) by c
    c = 4.0
    for _ in range(3):
        p = make_problem(rng, n=2)
        ps = ProblemData(A=p.A, B=p.B, G=p.G, Q=c * p.Q, R=c * p.R,
                         Pf=c * p.Pf, N=p.N, alpha=p.alpha, x0=p.x0)
        sol = solve_steady_state(p)
        sols = solve_steady_state(ps)
        assert sols.lambda_bar == pytest.approx(c * sol.lambda_bar, rel=1e-7)
        assert sols.Pi_bar == pytest.approx(c * sol.Pi_bar, rel=1e-3)


def test_lqr_baseline_closed_forms():
    p = steady_scalar()
    P = lqr_baseline(p)
    assert P[0, 0] == pytest.approx((0.2 + np.sqrt(0.84)) / 2.0, abs=1e-10)
    pz = steady_scalar(Q=0.0, Pf=0.0)
    assert lqr_baseline(pz)[0, 0] == pytest.approx(0.0, abs=1e-12)
    pa = steady_scalar(A=0.0)
    assert lqr_baseline(pa)[0, 0] == pytest.approx(0.2, abs=1e-10)


def test_disturbance_never_cheapens_regulation(rng):
    # Pi_bar dominates the disturbance-free Riccati solution
    for _ in range(5):
        p = make_problem(rng, n=int(rng.integers(1, 4)))
        sol = solve_steady_state(p)
        P_lqr = lqr_baseline(p)
        assert la.eigvalsh(sol.Pi_bar - P_lqr)[0] >= -1e-8


def test_interior_fixed_point_solves_dare(rng):
    # at an interior multiplier the fixed point is the DARE solution for
    # the extended input [B G] with weight blkdiag(R, -lam I)
    for _ in range(5):
        p = make_problem(rng, n=int(rng.integers(1, 4)))
        sol = solve_steady_state(p)
        lam = sol.lambda_bar + 0.1
        Pi = fixed_point(p, lam)
        Bt = np.hstack([p.B, p.G])
        Rt = la.block_diag(p.R, -lam * np.eye(p.q))
        X = la.solve_discrete_are(p.A, Bt, p.Q, Rt)
        assert np.abs(X - Pi).max() <= 1e-11 * (1.0 + np.abs(X).max())


def test_map_matches_block_form(rng):
    # the map's step Q + A'Pi (I + Z Pi)^{-1} A equals the block
    # form with M by the push-through identity, and R^{-1} B'Pi X and
    # -G'Pi X / lam are its gains [K; J]; Pi = Pf, zero for one in four
    for i in range(200):
        p = make_problem(rng, n=int(rng.integers(1, 6)), m=int(rng.integers(1, 5)),
                         q=int(rng.integers(1, 4)), degenerate_pf=i % 4 == 0)
        lam = top_eig(p.G.T @ p.Pf @ p.G) + float(rng.uniform(0.5, 3.0))
        ref, KJ = game_map_reference(p.A, p.B, p.G, p.Q, p.R, lam, p.Pf)
        Z = coupling(p, lam)
        Pn, PX = _kernels.game_step(p.A, p.Q, Z, p.Pf)
        gains = np.vstack([np.linalg.solve(p.R, p.B.T @ PX), -p.G.T @ PX / lam])
        assert np.abs(Pn - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
        assert np.abs(gains - KJ).max() <= 1e-12 * max(1.0, np.abs(KJ).max())


def test_singular_step_reports_singular_m():
    # A = B = G = R = Pf = 1, lam = 0.5: I + Z Pi = 1 + (1 - 2) 1 = 0 and
    # M = [[2, 1], [1, 0.5]] are singular together at the first step
    p = steady_scalar()
    with pytest.raises(np.linalg.LinAlgError):
        game_map_reference(p.A, p.B, p.G, p.Q, p.R, 0.5, p.Pf)
    # Q = 0.25, lam = 0.2: Z = 1 - 1/0.2 = -4, so the first doubling's
    # W = I + Z Q = 0 is singular before any doubling completes
    p = steady_scalar(Q=0.25)
    assert steady_state._probe(p, 0.2)[:2] == (-2, 0)


def test_verify_reports_a_singular_step():
    # X = 1 is PSD, but I + Z X = 1 - 1 = 0: the verifying step at X is
    # singular, which verify reports as -2, not as a failed fixed point
    one = np.array([[1.0]])
    assert _kernels.verify(one, np.zeros((1, 1)), -one, one, 1.0) == (-2, None)


def test_lqr_baseline_solves_dare(rng):
    for i in range(20):
        p = make_problem(rng, n=int(rng.integers(1, 6)), stable=i % 2 == 0)
        X = la.solve_discrete_are(p.A, p.B, p.Q, p.R)
        assert np.abs(lqr_baseline(p) - X).max() <= 1e-9 * np.abs(X).max()


def test_no_fixed_point_stops_early():
    # lam = 0.6875 < 1 leaves the unit-coefficient map with no real fixed
    # point (Z X^2 - 0.2 Z X - 0.2 = 0 has a negative discriminant): the
    # doubling must report it within its 64-doubling cap
    status, doublings, _, _, step = steady_state._probe(steady_scalar(), 0.6875)
    assert status in (-1, 1)
    assert doublings <= 64
    assert step is None


def test_probes_below_the_saddle_node_end_by_the_exit():
    # the paper's example has no fixed point below lambda_bar = 1.2, and
    # its H_k = F^(2^k)(0) pass lam there: from doubling _FP_EXIT_FROM on
    # the kernel proves lam infeasible by diag(G'H_k G) > lam + EPS_BOUNDARY,
    # where it ran to the 64-doubling cap (status 1) before. The solve keeps
    # its answer bit for bit and its 15 probes, while its doublings go
    # 215 -> 114 and its capped probes 2 -> 0
    p = steady_scalar()
    start = _kernels._FP_EXIT_FROM
    for lam, doublings in ((0.5, 15), (0.6875, 14)):
        status, k, X, _ = _kernels.fixed_point_numpy(*kernel_args(p, lam))
        assert (status, k, X) == (-1, doublings, None)
        assert start <= k <= start + 4
        # without the exit the probe runs to the cap
        assert _kernels.fixed_point_numpy(*kernel_args(p, lam)[:-1], np.inf)[:2] == (1, 64)
    sol = solve_steady_state(p)
    assert sol.lambda_bar == 1.1999999998471096
    assert (sol.probes, sol.fp_iterations, sol.capped) == (15, 114, 0)


def test_random_system_counts():
    # host-independent counts over the first 100 make_problem(default_rng(8))
    # systems, drawn in sequence. The exit ends probes with no fixed point
    # early: doublings 10 754 -> 8 076 and capped probes 91 -> 34 against
    # the doubling without it, for the same 911 probes
    rng = np.random.default_rng(8)
    sols = [solve_steady_state(make_problem(rng)) for _ in range(100)]
    assert sum(sol.probes for sol in sols) <= 911
    assert sum(sol.fp_iterations for sol in sols) == 8076
    assert sum(sol.capped for sol in sols) == 34


def test_indefinite_fixed_point_rejected():
    # A = 2, lam = 0.5: the doubling converges to X = -2.7266, a root of
    # X^2 + 2.8 X + 0.2 = 0 with a stable closed loop that would pass the
    # slack test; a Riccati fixed point of the game must be PSD, so the
    # probe's deferred verification rejects it
    status, _, X, top, check = steady_state._probe(steady_scalar(A=2.0), 0.5)
    assert status == 0 and 0.5 - top + EPS_BOUNDARY >= 0.0
    assert X[0, 0] == pytest.approx(-2.7266, abs=1e-4)
    assert check() == (-1, None)


def test_unreachable_unstable_mode_fails_typed():
    # the mode at 2 is one that B cannot reach, so H_k grows like 4^(2^k)
    # and the doubling's relative tests, which grow with it, never trip: it
    # must stop at its cap on ||H_k||, well before the floats overflow,
    # and the solvers raise their own errors, not numpy's RuntimeWarning
    B = np.array([[0.0], [1.0]])
    p = ProblemData(A=np.diag([2.0, 0.5]), B=B, G=B / 2, Q=np.eye(2),
                    R=np.eye(1), Pf=np.eye(2), N=1, alpha=[1.0])
    status, doublings, _, _, _ = steady_state._probe(p, 1.0)
    assert status == -1 and doublings < 10
    with pytest.raises(NoFeasibleLambda):
        solve_steady_state(p)
    with pytest.raises(Diverged):
        lqr_baseline(p)


def test_slow_escape_still_converges():
    # just above lam_bar = 4/9 of the A = 0.5 map, started next to its
    # repelling fixed point: the probe must still return the attracting
    # one, which iterates of the map reach only after passing the pole
    lam = 4.0 / 9.0 + 1e-5
    c = 1.0 - 1.0 / lam
    attracting, repelling = np.sort(np.roots([c, 0.75 - 0.2 * c, -0.2]).real)
    p = steady_scalar(A=0.5, Pf=repelling + 1e-9)
    Pi = fixed_point(p, lam)
    assert Pi[0, 0] == pytest.approx(attracting, abs=1e-8)


def test_multiplier_is_minimal(rng):
    # 1e-4 below lambda_bar the program is infeasible: the iteration either
    # diverges or lands on a fixed point violating lam >= ||G'Pi G||
    probes = [steady_scalar(), steady_scalar(A=0.5)]
    probes += [make_problem(rng, n=int(rng.integers(1, 4))) for _ in range(3)]
    for p in probes:
        sol = solve_steady_state(p)
        lam = sol.lambda_bar - 1e-4
        status, _, Pi, _, _ = steady_state._probe(p, lam)
        if status != 0:
            continue
        assert top_eig(p.G.T @ Pi @ p.G) - lam > 0.5e-4


def test_lmi_certificate_batch(rng):
    for _ in range(8):
        p = make_problem(rng, n=int(rng.integers(1, 4)))
        sol = solve_steady_state(p)
        cert = lmi_certify(p, sol)
        assert cert.feasible
        scale = max(1.0, np.abs(cert.assembled).max())
        assert cert.min_eig >= -1e-7 * scale
        assert np.allclose(cert.P, la.inv(sol.Pi_bar), atol=1e-10 * scale)


def test_lmi_assembly_is_the_block_matrix_bit_for_bit(rng):
    # the certificate's matrix, written block by block into one array,
    # equals np.block's assembly of the docstring's blocks to the bit, at
    # solutions and at random candidates (Pi_bar, K_bar, lambda_bar)
    for i in range(12):
        n = int(rng.integers(1, 5))
        p = make_problem(rng, n=n, m=int(rng.integers(1, 4)),
                         q=int(rng.integers(1, 4)))
        sol = solve_steady_state(p)
        if i % 2:
            C = rng.standard_normal((n, n))
            sol = dataclasses.replace(
                sol, Pi_bar=C @ C.T + 0.1 * np.eye(n),
                K_bar=rng.standard_normal((p.m, n)),
                lambda_bar=float(rng.uniform(0.1, 5.0)))
        cert = lmi_certify(p, sol)
        P, F, q = cert.P, cert.F, p.q
        top_right = np.hstack([P @ sqrt_psd(p.Q), -F.T @ sqrt_psd(p.R)])
        closed = p.A @ P - p.B @ F
        z_nq, z_nm, z_qm = (np.zeros((n, q)), np.zeros((n, n + p.m)),
                            np.zeros((q, n + p.m)))
        ref = np.block([
            [P, closed.T, z_nq, top_right],
            [closed, P, p.G, z_nm],
            [z_nq.T, p.G.T, sol.lambda_bar * np.eye(q), z_qm],
            [top_right.T, z_nm.T, z_qm.T, np.eye(n + p.m)],
        ])
        ref = 0.5 * (ref + ref.T)
        assert cert.assembled.shape == ref.shape
        assert cert.assembled.tobytes() == ref.tobytes()
        assert cert.min_eig == float(np.linalg.eigvalsh(ref)[0])


def test_lmi_assembly_is_exactly_symmetric(rng):
    # the certificate's matrix is written symmetric block by block, from
    # P = sym(Pi_bar^{-1}), so it equals its transpose to the bit, also
    # for a Pi_bar that is not symmetric
    for i in range(8):
        n = int(rng.integers(1, 5))
        p = make_problem(rng, n=n, m=int(rng.integers(1, 4)),
                         q=int(rng.integers(1, 4)))
        sol = solve_steady_state(p)
        if i % 2:
            C = rng.standard_normal((n, n))
            sol = dataclasses.replace(sol, Pi_bar=C @ C.T + np.eye(n)
                                      + 0.1 * np.triu(C, 1))
        assembled = lmi_certify(p, sol).assembled
        assert assembled.tobytes() == np.ascontiguousarray(assembled.T).tobytes()


def test_lmi_rejects_shrunk_multiplier():
    p = steady_scalar()
    sol = solve_steady_state(p)
    bad = dataclasses.replace(sol, lambda_bar=sol.lambda_bar - 0.1)
    cert = lmi_certify(p, bad)
    assert not cert.feasible
    assert cert.min_eig < -1e-3


def test_lmi_decision_is_the_eigenvalue_test():
    # the Cholesky decision is min_eig >= -_TOL_PSD scale, on make_problem's
    # default_rng(8) systems that pass and that fail it: 32 and 89 fail,
    # min_eig / scale -2.9e-7 and -4.7e-6 (non-critical, n = q = 1); 12, 208
    # and 218 pass, by 9.5e-10, 4.8e-10 and 2.6e-10 of their scale
    rng = np.random.default_rng(8)
    systems = [make_problem(rng) for _ in range(219)]
    rejected = []
    for i in (0, 1, 2, 3, 12, 32, 89, 92, 208, 218):
        p = systems[i]
        sol = solve_steady_state(p)
        cert = lmi_certify(p, sol)
        scale = max(1.0, np.abs(cert.assembled).max())
        assert sol.lmi_feasible is cert.feasible
        assert cert.feasible == (cert.min_eig >= -_TOL_PSD * scale)
        if not cert.feasible:
            rejected.append(i)
    assert rejected == [32, 89]


def test_solve_forms_no_certificate_spectrum(rng, monkeypatch):
    # solve_steady_state decides its certificate without its eigenvalues:
    # counted by monkeypatch, np.linalg.eigvalsh never sees the assembled
    # (3n + q + m)-square matrix, which min_eig hands it once when read
    eigvalsh, sizes = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda M: sizes.append(M.shape[0]) or eigvalsh(M))
    for n, m, q in ((1, 1, 1), (2, 2, 2), (3, 2, 3), (6, 3, 2)):
        p = make_problem(rng, n=n, m=m, q=q)
        del sizes[:]
        sol = solve_steady_state(p)
        assert sol.lmi_feasible is not None
        assert 3 * n + q + m not in sizes
        cert = lmi_certify(p, sol)
        del sizes[:]
        assert cert.min_eig == eigvalsh(cert.assembled)[0]
        assert sizes == [3 * n + q + m]


def test_lmi_rejects_singular_pi():
    p = steady_scalar()
    sol = solve_steady_state(p)
    bad = dataclasses.replace(sol, Pi_bar=np.zeros((1, 1)))
    with pytest.raises(SingularPi):
        lmi_certify(p, bad)


def test_singular_solution_has_no_lmi_certificate():
    # Q and Pf leave the second state unweighted and A maps it to 0, so
    # Pi_bar = diag(1.25, 0) is singular: the solve still returns it, with
    # lmi_feasible None, as the certificate needs Pi_bar^{-1}
    p = ProblemData(A=np.diag([0.5, 0.0]), B=np.eye(2), G=np.eye(2),
                    Q=np.diag([1.0, 0.0]), R=np.eye(2), Pf=np.diag([1.0, 0.0]),
                    N=1, alpha=1.0)
    sol = solve_steady_state(p)
    assert sol.lmi_feasible is None
    assert sol.lambda_bar == pytest.approx(1.25, rel=1e-8)
    assert sol.Pi_bar[1, 1] == 0.0
    assert np.allclose(sol.Pi_bar, np.diag([1.25, 0.0]), rtol=1e-8)
    with pytest.raises(SingularPi):
        lmi_certify(p, sol)


def test_certificate_hands_eigvalsh_nothing(rng, monkeypatch):
    # Pi_bar's invertibility is decided by the shifted Cholesky of
    # psd_within, as the certificate itself is: counted by monkeypatch,
    # lmi_certify calls np.linalg.eigvalsh on no matrix
    eigvalsh, shapes = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda M: shapes.append(M.shape) or eigvalsh(M))
    for n, m, q in ((1, 1, 1), (2, 2, 2), (3, 2, 3)):
        p = make_problem(rng, n=n, m=m, q=q)
        sol = solve_steady_state(p)
        del shapes[:]
        lmi_certify(p, sol)
        assert shapes == []


@pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
def test_pi_invertible_above_its_largest_entry_scale(rng, c):
    # Pi_bar = c diag(1, eps) is invertible where its smallest eigenvalue
    # exceeds 1e-12 max(1, max|Pi_ij|): at c = 1, eps = 0.5e-12 raises
    # SingularPi and eps = 2e-12 certifies; at c = 1e-3 the floor 1 of the
    # scale holds, so every eps here is singular
    p = make_problem(rng, n=2)
    sol = solve_steady_state(p)
    decided = {}
    for eps in (0.25e-12, 0.5e-12, 2e-12, 4e-12):
        for Pi in (c * np.diag([1.0, eps]), c * np.diag([eps, 1.0])):
            try:
                lmi_certify(p, dataclasses.replace(sol, Pi_bar=Pi))
                invertible = True
            except SingularPi:
                invertible = False
            assert invertible == (la.eigvalsh(Pi)[0]
                                  > 1e-12 * max(1.0, np.abs(Pi).max()))
            decided[eps] = invertible
    assert decided == {0.25e-12: False, 0.5e-12: False, 2e-12: c >= 1.0,
                       4e-12: c >= 1.0}


def test_solution_invariants(rng):
    for _ in range(5):
        p = make_problem(rng, n=int(rng.integers(1, 4)))
        sol = solve_steady_state(p)
        scale = 1.0 + float(np.abs(sol.Pi_bar).max())
        assert sol.residual <= 1e-6 * scale
        assert sol.boundary_gap >= -1e-9 * (1.0 + sol.lambda_bar)
        assert la.eigvalsh(sol.Pi_bar)[0] >= -1e-9 * scale
        assert sol.lmi_feasible is not None
        assert np.isfinite(lmi_certify(p, sol).min_eig)


def test_search_counters_match_kernel_calls(rng, monkeypatch):
    # probes and fp_iterations count every fixed-point call of the search
    # and its doublings
    calls = []

    def counted(*args):
        out = _kernels.fixed_point_numpy(*args)
        calls.append(out[1])
        return out

    monkeypatch.setattr(steady_state, "fixed_point_numpy", counted)
    sol = solve_steady_state(make_problem(rng, n=3))
    assert sol.probes == len(calls) > 0
    assert sol.fp_iterations == sum(calls)


def test_coupling_terms_formed_once_per_problem(rng, monkeypatch):
    # B R^{-1} B' depends on the problem alone: a solve forms it once, not
    # once per probe, and a later LQR baseline of the same problem reads it
    # from there. Counted as numpy solves of R against B'; the solve's
    # K_bar = R^{-1} B'Pi X is not one of them
    p = None
    formed = []
    solve = np.linalg.solve

    def counted(a, b):
        formed.append(a is p.R and b.base is p.B)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    for p in (_bank_system(rng, 3), make_problem(rng, n=3, m=2, q=2)):
        formed.clear()
        sol = solve_steady_state(p)
        assert sol.probes > 1 and sum(formed) == 1
        formed.clear()
        lqr_baseline(p)
        assert sum(formed) == 0


def test_only_probes_clearing_their_bound_are_verified(rng, monkeypatch):
    # a converged probe whose slack lam - ||G'Pi G|| + EPS_BOUNDARY is
    # negative goes to lo whether or not Pi is a fixed point, and one with
    # a non-negative slack is a candidate, verified only if the search
    # returns it. Where no verification fails, the search runs the
    # verifying map step once per solve, on the returned Pi_bar, and never
    # for a probe below its bound or for a candidate it passed over
    lams, outs, steps = [], [], []
    step, probe = _kernels.game_step, steady_state._probe

    def recording(p, lam):
        lams.append(lam)
        return probe(p, lam)

    def counted(*args):
        outs.append(_kernels.fixed_point_numpy(*args))
        return outs[-1]

    def counted_step(A, Q, Z, Pi):
        steps.append(Pi)
        return step(A, Q, Z, Pi)

    monkeypatch.setattr(steady_state, "_probe", recording)
    monkeypatch.setattr(steady_state, "fixed_point_numpy", counted)
    monkeypatch.setattr(_kernels, "game_step", counted_step)
    below = passed_over = 0
    for n in (2, 3, 4, 6, 8):
        p = _bank_system(rng, n)
        del lams[:], outs[:], steps[:]
        sol = solve_steady_state(p)
        assert len(lams) == len(outs) == sol.probes
        converged = [(lam, out[2]) for lam, out in zip(lams, outs) if out[0] == 0]
        clearing = [Pi for lam, Pi in converged
                    if lam - top_eig(p.G.T @ Pi @ p.G) + EPS_BOUNDARY >= 0.0]
        assert len(steps) == 1 and steps[0] is sol.Pi_bar
        assert any(Pi is sol.Pi_bar for Pi in clearing)
        below += len(converged) - len(clearing)
        passed_over += len(clearing) - 1
    assert below > 0 and passed_over > 0


def test_probe_below_its_bound_is_not_verified(monkeypatch):
    # 1e-4 below lambda_bar = 1.2 of the paper's scalar example the doubling
    # converges, to a Pi whose slack is below -EPS_BOUNDARY: the probe
    # returns it with status 0, its ||G'Pi G|| and its verification
    # deferred, not run
    verified = []
    verify = steady_state.verify
    monkeypatch.setattr(steady_state, "verify",
                        lambda *a: verified.append(1) or verify(*a))
    p = steady_scalar()
    lam = 1.2 - 1e-4
    status, _, Pi, top, check = steady_state._probe(p, lam)
    assert (status, verified) == (0, []) and callable(check)
    assert top == top_eig(p.G.T @ Pi @ p.G) > lam + EPS_BOUNDARY


def test_lqr_baseline_is_the_probe_at_infinity(rng, monkeypatch):
    # lqr_baseline is the probe at lam = inf: one doubling, then its own
    # verification of the fixed point, and no ||G'Pi G||, which has no
    # bound to meet there
    calls = []
    for name in ("fixed_point_numpy", "verify", "top_eig"):
        fn = getattr(steady_state, name)
        monkeypatch.setattr(steady_state, name, lambda *a, name=name, fn=fn:
                            calls.append(name) or fn(*a))
    for p in (steady_scalar(), make_problem(rng, n=3, m=2, q=2)):
        calls.clear()
        P = lqr_baseline(p)
        assert calls == ["fixed_point_numpy", "verify"]
        status, _, Pi, top, check = steady_state._probe(p, np.inf)
        assert (status, top) == (0, None) and check()[0] == 0
        assert np.array_equal(P, Pi)


def _bank_system(rng, n):
    # as the steady benchmark draws them: B = G = R = Pf = I, A scaled to a
    # spectral radius in [0.5, 0.95], Q = C'C/n + 0.5 I
    A = rng.standard_normal((n, n))
    A *= rng.uniform(0.5, 0.95) / float(np.abs(np.linalg.eigvals(A)).max())
    C = rng.standard_normal((n, n))
    eye = np.eye(n)
    return ProblemData(A=A, B=eye, G=eye, Q=C.T @ C / n + 0.5 * eye, R=eye,
                       Pf=eye, N=1, alpha=1.0)


# (A, B, G, Q, R, Pf) of scalar systems whose lambda_bar is not a
# saddle-node of the fixed-point map; the first is the paper's example
_SCALAR_SYSTEMS = [(1.0, 1.0, 1.0, 0.2, 1.0, 1.0), (0.9, 1.0, 0.5, 1.0, 2.0, 1.0),
                   (1.5, 2.0, 1.0, 0.5, 1.0, 0.5), (1.2, 1.0, 1.0, 1.0, 1.0, 1.0),
                   (0.3, 1.0, 2.0, 1.0, 1.0, 0.1)]


def test_saddle_node_doublings():
    # lambda_bar = 4/9 of the A = 0.5 map is a saddle-node: probes next to
    # it converge only linearly, halving their error per doubling, and the
    # map itself needs hundreds of thousands of steps over the search
    sol = solve_steady_state(steady_scalar(A=0.5))
    assert sol.lambda_bar == pytest.approx(4.0 / 9.0, abs=1e-8)
    assert sol.fp_iterations <= 2_000


def test_solution_is_the_verifying_step(rng):
    # K_bar, residual and boundary_gap are those of the map step that
    # verified Pi_bar, bit for bit the step and ||G'Pi_bar G|| taken afresh
    for n in (2, 3, 4, 6, 8):
        p = _bank_system(rng, n)
        sol = solve_steady_state(p)
        Z = coupling(p, sol.lambda_bar)
        Pi_next, PX = _kernels.game_step(p.A, p.Q, Z, sol.Pi_bar)
        assert np.array_equal(sol.K_bar, np.linalg.solve(p.R, p.B.T @ PX))
        assert sol.residual == float(np.linalg.norm(sol.Pi_bar - Pi_next))
        assert sol.boundary_gap == sol.lambda_bar - top_eig(
            p.G.T @ sol.Pi_bar @ p.G)


def test_failed_verification_sends_the_search_up(rng, monkeypatch):
    # verify rejects the first candidate each solve verifies (the paper's
    # scalar example and a bank system): that one goes to lo, the search
    # falls back to the candidates above it, and the answer is a verified
    # fixed point above the rejected probe, with the last verification run
    # on the returned Pi_bar
    verify = steady_state.verify
    checked = []

    def rejecting_first(A, Q, Z, X, scale):
        checked.append(X)
        return (-1, None) if len(checked) == 1 else verify(A, Q, Z, X, scale)

    probes = []
    probe = steady_state._probe

    def recording(p, lam):
        out = probe(p, lam)
        probes.append((lam, out[2]))
        return out

    monkeypatch.setattr(steady_state, "verify", rejecting_first)
    monkeypatch.setattr(steady_state, "_probe", recording)
    for p in (steady_scalar(), _bank_system(rng, 3)):
        del checked[:], probes[:]
        sol = solve_steady_state(p)
        rejected = next(lam for lam, Pi in probes if Pi is checked[0])
        # the rejected candidate was the true answer: the fallback lands
        # within two bracket tolerances of it (measured 7.6e-10 and 5.1e-10)
        assert rejected < sol.lambda_bar <= rejected + 2.0 * steady_state._BRACKET_TOL
        assert sol.residual < 1e-8 * (1.0 + np.linalg.norm(sol.Pi_bar))
        assert len(checked) > 1 and checked[-1] is sol.Pi_bar


def test_search_probe_count(rng):
    # each feasible probe's lower bound on lambda_bar, and the secants
    # through the latest probes, end the search within 20 probes on each of
    # these systems, where bisection to the same bracket took 36-41; the
    # ten random systems take 55 probes and 235 doublings together, counts
    # that do not depend on the host. The search stops once that bound is
    # within the bracket tolerance of hi, with no probe spent to close the
    # bracket
    for A, B, G, Q, R, Pf in _SCALAR_SYSTEMS:
        sol = solve_steady_state(steady_scalar(A=A, B=B, G=G, Q=Q, R=R, Pf=Pf))
        lam, pi = steady_scalar_closed_form(A, B, G, Q, R)
        assert sol.lambda_bar == pytest.approx(lam, abs=1e-8)
        assert sol.Pi_bar[0, 0] == pytest.approx(pi, abs=1e-6)
        assert sol.probes <= 20
    probes = doublings = 0
    for n in (2, 3, 4, 6, 8, 2, 3, 4, 6, 8):
        sol = solve_steady_state(_bank_system(rng, n))
        assert sol.probes <= 20
        probes += sol.probes
        doublings += sol.fp_iterations
    assert probes <= 55
    assert doublings <= 235


def test_search_probes_zero_first_where_the_bound_is_not_above_it():
    # G'Pi G = 0 at every lam: the disturbance enters an unweighted state
    # that no other state sees, so lambda_bar = 0 and each feasible probe's
    # bound ||G'Pi_hi G|| - EPS_BOUNDARY lies below lo = 0. The search then
    # probes lo's clamp, 0.25e-9, which is feasible and ends it: 2 probes
    # and 10 doublings, where midpoints down from the start took 36 probes
    # and 180 doublings to reach 8.7e-10
    eye = np.eye(2)
    p = ProblemData(A=0.5 * eye, B=eye, G=np.array([[0.0], [1.0]]),
                    Q=np.diag([1.0, 0.0]), R=eye, Pf=np.zeros((2, 2)), N=1,
                    alpha=[1.0])
    validate_problem(p, allow_degenerate_terminal=True)
    sol = solve_steady_state(p)
    assert (sol.probes, sol.fp_iterations, sol.capped) == (2, 10, 0)
    assert sol.lambda_bar == 0.25 * steady_state._BRACKET_TOL
    assert sol.boundary_gap == sol.lambda_bar and sol.residual == 0.0
    assert sol.lmi_feasible is None  # Pi_bar is singular: state 2 costs nothing


def test_answer_is_within_the_tolerance_of_the_least_multiplier():
    # where the answer's slack h = boundary_gap + EPS_BOUNDARY is at most the
    # bracket tolerance, lambda_bar is within it of the least multiplier: the
    # probe 2e-9 below lambda_bar, made afresh, is not accepted (not a
    # candidate, or one whose verification fails). Checked on
    # 58 of make_problem's first 60 default_rng(8) systems; the other two
    # (10 and 53) are critical, where no slack is that small. Together the 60
    # solves take at most 519 probes (599 where every secant ran through
    # the bracket's ends and aimed at 0)
    tol = steady_state._BRACKET_TOL
    rng = np.random.default_rng(8)
    probes = checked = 0
    for _ in range(60):
        p = make_problem(rng)
        sol = solve_steady_state(p)
        probes += sol.probes
        if sol.boundary_gap + EPS_BOUNDARY <= tol:
            checked += 1
            lam = sol.lambda_bar - 2.0 * tol
            status, _, _, top, check = steady_state._probe(p, lam)
            assert (status != 0 or lam - top + EPS_BOUNDARY < 0.0
                    or check()[0] != 0)
    assert checked == 58
    assert probes <= 519


def _doubling_reference(A, Q, Z, doublings):
    # the triples (A_k, G_k, H_k), k = 0..doublings, of the doubling's
    # recurrence as the _kernels docstring writes it, with W_k inverted
    triples = [(A, Z, Q)]
    for _ in range(doublings):
        Ak, Gk, Hk = triples[-1]
        Wi = np.linalg.inv(np.eye(A.shape[0]) + Gk @ Hk)
        triples.append((Ak @ Wi @ Ak, Gk + Ak @ Wi @ Gk @ Ak.T,
                        Hk + Ak.T @ Hk @ Wi @ Ak))
    return triples


def test_doubling_stops_on_its_error_bound(rng, monkeypatch):
    # at a fixed point X of the map X - H_k = A_k'X (I + G_k X)^{-1} A_k, so
    # the doubling stops at the first k where ||A_k||^2 (||H_k|| + ||X_0||)
    # is at most 1e-12 (1 + ||H_k||^2)^{1/2} and returns sym(H_k), after one
    # solve per doubling and no step of the map; one step moves what it
    # returns by at most 1e-12 (1 + ||X||). The start enters only the stop
    # test, which a start 1e9 Pf makes wait for a smaller ||A_k||
    solves, symmetrized = [], []
    solve, sym = np.linalg.solve, _kernels.sym
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: solves.append(1) or solve(a, b))
    monkeypatch.setattr(_kernels, "sym", lambda M: symmetrized.append(M) or sym(M))
    norm = np.linalg.norm
    for n in (2, 3, 4, 6, 8):
        p = _bank_system(rng, n)
        lam_bar = solve_steady_state(p).lambda_bar
        for lam, X0 in ((1.01 * lam_bar, p.Pf), (np.inf, p.Pf),
                        (1.01 * lam_bar, 1e9 * p.Pf)):
            args = kernel_args(p, lam, norm(X0))
            Z, x0 = args[2:4]
            del solves[:], symmetrized[:]
            status, k, X, scale = _kernels.fixed_point_numpy(*args)
            assert status == 0 and len(solves) == k and len(symmetrized) == 1
            H = symmetrized[0]
            assert np.array_equal(X, sym(H)) and scale == pytest.approx(
                (1.0 + norm(H) ** 2) ** 0.5, rel=1e-15)
            triples = _doubling_reference(p.A, p.Q, Z, k)
            stops = [norm(Ak) ** 2 * (norm(Hk) + x0)
                     <= 1e-12 * (1.0 + norm(Hk) ** 2) ** 0.5
                     for Ak, _, Hk in triples]
            assert stops[k] and not any(stops[1:k])
            Hk = triples[k][2]
            assert norm(H - Hk) <= 1e-12 * (1.0 + norm(Hk))
            Pn, _ = _kernels.game_step(p.A, p.Q, Z, X)
            assert norm(Pn - X) <= 1e-12 * (1.0 + norm(X))


def test_doubling_stop_test_is_not_a_fixed_point():
    # the doubling meets its stop test here at an X (||X|| = 13) that one
    # step of the map moves by 3.9: the probe must not report it converged
    rng = np.random.default_rng(7)
    for _ in range(132):
        p = make_problem(rng)
    assert steady_state._probe(p, 5.2)[0] == -1


def test_kernel_is_the_reference_doubling_bit_for_bit():
    # the kernel's doubling, one solve and five ndarray.dot products, makes
    # the doubling in its first form (oracles.sda_reference) bit for bit:
    # the same status, count, X and scale, on random systems at multipliers
    # from 0.05 to 50 and at infinity, and at each status: the cap (1) where
    # Q = 0 and lam = 1 make Z = 0 and the map the identity, so that no H_k
    # leaves 0, the scalar example's infeasibility exit at lam = 0.6875 and
    # the unreachable unstable mode (-1), and a singular first W (-2, see
    # test_singular_step_reports_singular_m)
    B = np.array([[0.0], [1.0]])
    unreachable = ProblemData(A=np.diag([2.0, 0.5]), B=B, G=B / 2, Q=np.eye(2),
                              R=np.eye(1), Pf=np.eye(2), N=1, alpha=[1.0])
    cases = [(steady_scalar(Q=0.0), 1.0), (steady_scalar(), 0.6875),
             (unreachable, 1.0), (steady_scalar(Q=0.25), 0.2)]
    rng = np.random.default_rng(8)
    for i in range(60):
        p = make_problem(rng, stable=i % 3 != 0)
        cases += [(p, np.inf)] + [(p, 10.0 ** rng.uniform(-1.3, 1.7)) for _ in range(3)]
    statuses = []
    for p, lam in cases:
        args = kernel_args(p, lam)
        assert p._steady_constants[2:4] == args[3:5]  # ||Pf|| and the cap
        got = _kernels.fixed_point_numpy(*args)
        want = sda_reference(*args[:4], *args[-2:])
        assert got[:2] == want[:2] and got[3] == want[3]
        if want[2] is None:
            assert got[2] is None
        else:
            assert got[2].tobytes() == want[2].tobytes()
        statuses.append(want[:2])
    assert statuses[:4] == [(1, 64), (-1, 14), (-1, 5), (-2, 0)]
    assert {status for status, _ in statuses} == {0, 1, -1, -2}


def _dare_slack(p, lam):
    # lam - ||G'X G|| at the stabilizing DARE solution X for the extended
    # input [B G] with weight blkdiag(R, -lam I)
    X = la.solve_discrete_are(p.A, np.hstack([p.B, p.G]), p.Q,
                              la.block_diag(p.R, -lam * np.eye(p.q)))
    return lam - top_eig(p.G.T @ X @ p.G)


def test_solution_is_a_fixed_point():
    # on these systems a probe can settle on an X that is no fixed point and
    # whose slack clears the boundary; counted feasible, it would end the
    # search well below lambda_bar (near 5.95 for 8.739 at index 50). At
    # the existence edge of 68 and 521 feasibility is not monotone in lam (a
    # probe passes just below ones that fail), so the answer depends on the
    # search's path; whichever probe it accepts must be a fixed point. On
    # default_rng(8) 217, 264 and 285 and default_rng(9) 68, 71, 389 and
    # 521 the candidate the search verifies first fails (on 217 a run of
    # them from 5.69 to 5.99, below lambda_bar = 10.61), so these answers
    # come from its fallback
    rng = np.random.default_rng(8)
    systems = {(8, i): make_problem(rng) for i in range(286)}
    rng = np.random.default_rng(9)
    systems.update({(9, i): make_problem(rng) for i in range(522)})
    for seed, i in ((9, 50), (9, 68), (9, 71), (9, 261), (9, 521), (8, 217),
                    (8, 264), (8, 285), (9, 389)):
        p = systems[seed, i]
        sol = solve_steady_state(p)
        assert sol.residual <= 1e-8 * (1.0 + np.linalg.norm(sol.Pi_bar))
        if (seed, i) in ((9, 50), (9, 261)):
            # lambda_bar is where the DARE's slack changes sign
            assert _dare_slack(p, sol.lambda_bar * (1.0 + 1e-6)) > 0.0
            assert _dare_slack(p, sol.lambda_bar * (1.0 - 1e-6)) < 0.0


def test_rotation_invariance():
    # the steady state is the same in orthonormal coordinates x -> Tx,
    # u -> S'u, w -> V'w (conftest.rotated): lambda_bar within 1e-9
    # relative (measured 2.3e-12), Pi_bar -> T Pi_bar T' and K_bar ->
    # S'K_bar T', on make_problem's default_rng(9) systems 50, 72 and 75,
    # which are not at the existence edge (there the search's path moves
    # lambda_bar)
    rng = np.random.default_rng(9)
    systems = [make_problem(rng) for _ in range(76)]
    for i in (50, 72, 75):
        p = systems[i]
        sol = solve_steady_state(p)
        for _ in range(5):
            T, S, V = (orthogonal(rng, d) for d in (p.n, p.m, p.q))
            rot = solve_steady_state(rotated(p, T, S, V))
            assert abs(rot.lambda_bar - sol.lambda_bar) <= 1e-9 * sol.lambda_bar
            for got, want in ((rot.Pi_bar, T @ sol.Pi_bar @ T.T),
                              (rot.K_bar, S.T @ sol.K_bar @ T.T)):
                assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
