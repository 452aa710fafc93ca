import csv

import numpy as np
import pytest

from stdar import (NoSphereIntersection, control_at, objective,
                   project_feasible, rollout, solve_multipliers, sweep,
                   worst_disturbance_at)
from stdar.cli import main
from stdar.riccati import at_bound
from stdar.scenario import ScenarioFile, save_scenario
import stdar
from stdar import multiplier, riccati
from conftest import make_problem, scalar_problem
from test_multiplier import minmax_from_single_stage


def test_control_at_origin_is_zero(rng, tol):
    p = make_problem(rng)
    lam = project_feasible(p, np.zeros(p.N), margin=0.1, tol=tol)
    u = control_at(p, np.zeros(p.n), 0, lam, tol)
    assert u.shape == (p.m,)
    assert np.all(u == 0.0)


def test_control_at_rejects_stage_mismatch(rng, tol):
    p = make_problem(rng, N=3)
    lam = project_feasible(p, np.zeros(p.N), margin=0.1, tol=tol)
    with pytest.raises(ValueError, match="stage"):
        control_at(p, p.x0, 1, lam, tol)


def test_worst_disturbance_rejects_stage_mismatch(rng, tol):
    p = make_problem(rng, N=3)
    lam = project_feasible(p, np.zeros(p.N), tol=tol)
    with pytest.raises(ValueError, match="stage"):
        worst_disturbance_at(p, p.x0, 1, lam, np.zeros(p.m), tol)


def test_online_decision_stage_steps(rng, tol, monkeypatch):
    # a stage-k solve, cold or warm, steps through its tail once before the
    # descent and runs no projection pass; every trial pass resumes from
    # the current pass, a warm start's included, and steps only the
    # stages from the last one where bounds + eps_boundary + slack
    # differs from its multiplier down. The solve counts that work; the
    # decision's control and disturbance take no stage step
    steps, at_descent, grads, backtracks = [], [], [], []
    trial_steps, fewer = [], {"cold": [], "warm": []}
    step, descend = riccati._stage_step, multiplier._descend
    gradient, reconstruct = multiplier._slack_gradient, multiplier._reconstruct
    monkeypatch.setattr(riccati, "_stage_step",
                        lambda *a: steps.append(1) or step(*a))
    monkeypatch.setattr(multiplier, "_descend",
                        lambda *a: at_descent.append(len(steps)) or descend(*a))
    monkeypatch.setattr(multiplier, "_slack_gradient",
                        lambda *a: grads.append(1) or gradient(*a))
    for module in (riccati, multiplier, stdar):
        monkeypatch.setattr(module, "project_feasible",
                            lambda *a, **kw: pytest.fail("projection pass"),
                            raising=False)

    def traced_reconstruct(p, s, k, tol, base=None):
        if base is not None:
            changed = np.flatnonzero(base.bounds + tol.eps_boundary + s
                                     != base.lam.lambdas)
            trial_steps.append(int(changed[-1]) + 1 if changed.size else 0)
        return reconstruct(p, s, k, tol, base)

    monkeypatch.setattr(multiplier, "_reconstruct", traced_reconstruct)

    def solve(p, x, k, init):
        for log in (steps, at_descent, grads, trial_steps):
            log.clear()
        sol = solve_multipliers(p, x, k=k, init=init, tol=tol)
        assert at_descent == [p.N - k]
        trials = sol.iterations + sol.backtracks
        assert len(trial_steps) == trials
        assert sol.stage_steps == len(steps) == p.N - k + sum(trial_steps)
        assert sol.gradient_evals == len(grads) == 1 + sol.iterations
        backtracks.append(sol.backtracks)
        fewer["cold" if init is None else "warm"].append(
            sol.stage_steps < (p.N - k) * (1 + trials))
        return sol

    for _ in range(5):
        p = make_problem(rng, N=5)
        k = int(rng.integers(1, p.N - 1))
        cold = solve(p, p.x0, k, None)
        x = rng.standard_normal(p.n)
        sol = solve(p, x, k, cold.lam_star.lambdas)
        in_solve = len(steps)
        u = control_at(p, x, k, sol.lam_star, tol)
        worst_disturbance_at(p, x, k, sol.lam_star, u, tol)
        assert len(steps) == in_solve
    assert max(backtracks) > 0
    # resumed trial passes step fewer stages, cold and warm
    assert any(fewer["cold"]) and any(fewer["warm"])


def test_single_stage_policy_matches_minmax(rng, tol):
    # u0 and wbar0 of the N=1 program agree with the sphere-constrained
    # saddle solved in unit coordinates
    for _ in range(10):
        p = make_problem(rng, N=1)
        x = 3.0 * rng.standard_normal(p.n)
        u_ref, w_ref, lam_ref, _ = minmax_from_single_stage(p, x)
        sol = solve_multipliers(p, x, tol=tol)
        assert sol.converged
        u = control_at(p, x, 0, sol.lam_star, tol)
        w = worst_disturbance_at(p, x, 0, sol.lam_star, u, tol)
        assert u == pytest.approx(u_ref, rel=1e-6, abs=1e-7)
        bound = float(np.linalg.eigvalsh(p.G.T @ p.Pf @ p.G)[-1])
        if lam_ref - bound > 1e-6 * (1.0 + bound):
            # interior multiplier: the attaining disturbance is unique
            assert w == pytest.approx(w_ref, rel=1e-6, abs=1e-7)


def test_policy_is_nonlinear_in_state(tol):
    # the multiplier program depends on x, so u(3x) != 3 u(x)
    p = scalar_problem(A=1, B=1, G=1, Q=0.2, R=1, Pf=1, N=3, alpha=1.0, x0=1.0)
    u1 = control_at(p, p.x0, 0, solve_multipliers(p, p.x0, tol=tol).lam_star, tol)
    x3 = 3.0 * p.x0
    u3 = control_at(p, x3, 0, solve_multipliers(p, x3, tol=tol).lam_star, tol)
    assert abs(u3[0] - 3.0 * u1[0]) > 1e-6 * abs(u1[0])


def test_worst_disturbance_attains_bound(rng, tol):
    for _ in range(10):
        p = make_problem(rng)
        x = rng.standard_normal(p.n)
        sol = solve_multipliers(p, x, tol=tol)
        u = control_at(p, x, 0, sol.lam_star, tol)
        w = worst_disturbance_at(p, x, 0, sol.lam_star, u, tol)
        assert float(w @ w) == pytest.approx(p.alpha[0], rel=1e-10)


def test_worst_disturbance_at_origin(rng, tol):
    # zero drive: the response is a pure top-eigenspace completion of
    # G'Pi1 G, still exactly on the sphere
    p = make_problem(rng)
    sol = solve_multipliers(p, np.zeros(p.n), tol=tol)
    w = worst_disturbance_at(p, np.zeros(p.n), 0, sol.lam_star,
                             np.zeros(p.m), tol)
    assert float(w @ w) == pytest.approx(p.alpha[0], rel=1e-10)
    sw = sweep(p, sol.lam_star, tol)
    GPG = p.G.T @ sw.Pi[1] @ p.G
    resid = (GPG - sw.bounds[0] * np.eye(p.q)) @ w
    assert np.linalg.norm(resid) <= 1e-6 * (1.0 + sw.bounds[0])


def test_worst_disturbance_takes_no_eigendecomposition(rng, tol, monkeypatch):
    # the completion reads the eigenpairs of G'Pi G that the solve's pass
    # stored: with numpy's symmetric eigensolvers patched to raise around
    # the call it returns the same disturbance at q = 2 and 3, from the
    # origin (a pure completion on the bound) and from random states
    on_bound = 0
    for q in (2, 3):
        for _ in range(6):
            p = make_problem(rng, n=3, m=3, q=q)
            for x in (np.zeros(p.n), 3.0 * rng.standard_normal(p.n)):
                sol = solve_multipliers(p, x, tol=tol)
                u = control_at(p, x, 0, sol.lam_star, tol)
                w = worst_disturbance_at(p, x, 0, sol.lam_star, u, tol)
                on_bound += bool(sol.boundary_flags[0])
                with monkeypatch.context() as mp:
                    for name in ("eigh", "eigvalsh"):
                        mp.setattr(np.linalg, name,
                                   lambda *a, **kw: pytest.fail("eigendecomposition"))
                    again = worst_disturbance_at(p, x, 0, sol.lam_star, u, tol)
                assert np.array_equal(again, w)
                assert float(w @ w) == pytest.approx(p.alpha[0], rel=1e-10)
    assert on_bound >= 6


def test_disturbance_off_the_sphere_raises(rng, tol):
    # multipliers 0.5 above their bounds are interior and not stage-optimal:
    # the response has no eigenspace to complete along, and from the origin
    # it is zero, from a large state far outside the sphere
    p = make_problem(rng, n=2, m=2, q=2, N=3)
    lam = project_feasible(p, np.zeros(p.N), margin=0.5, tol=tol)
    for x in (np.zeros(p.n), 1e3 * p.x0):
        with pytest.raises(NoSphereIntersection, match="not stage-optimal"):
            worst_disturbance_at(p, x, 0, lam, np.zeros(p.m), tol)
    # at the bound the response lives off the top eigenspace of G'Pi G; from
    # a large state its norm exceeds alpha_0, where no completion can reach
    lam = project_feasible(p, np.zeros(p.N), tol=tol)
    sw = sweep(p, lam, tol)
    assert at_bound(lam.lambdas[0], sw.bounds[0], tol)
    with pytest.raises(NoSphereIntersection, match="off the bound"):
        worst_disturbance_at(p, 1e3 * p.x0, 0, lam, np.zeros(p.m), tol)
    # from the origin the same multipliers complete onto the sphere
    w = worst_disturbance_at(p, np.zeros(p.n), 0, lam, np.zeros(p.m), tol)
    assert float(w @ w) == pytest.approx(p.alpha[0], rel=1e-10)


def test_rollout_zero_mode_from_origin(tol):
    p = scalar_problem(A=1, B=1, G=1, Q=0.2, R=1, Pf=1, N=4,
                       alpha=1.0, x0=0.0)
    traj = rollout(p, mode="zero", tol=tol)
    assert np.all(traj.states == 0.0)
    assert np.all(traj.controls == 0.0)
    assert np.all(traj.disturbances == 0.0)
    assert traj.total_cost == 0.0
    assert np.isnan(traj.value_ratio)
    assert traj.converged


def test_worst_case_ratio_equals_program_value(tol):
    # with every stage bound active the realized cost is abar * phi(x0),
    # so the cost over disturbance energy reproduces the program value
    p = scalar_problem(A=1, B=1, G=1, Q=0.2, R=1, Pf=1, N=2,
                       alpha=1.0, x0=1.0)
    sol = solve_multipliers(p, p.x0, tol=tol)
    traj = rollout(p, mode="worst_case", tol=tol)
    abar = p.alpha_bar
    assert traj.converged
    assert traj.stage_values[0] == pytest.approx(sol.value, rel=1e-8)
    assert traj.total_cost == pytest.approx(sol.value * abar, rel=1e-6)
    assert traj.value_ratio == pytest.approx(sol.value, rel=1e-6)


def test_admissible_disturbance_never_beats_worst_case(rng, tol):
    for _ in range(5):
        p = make_problem(rng)
        sol = solve_multipliers(p, p.x0, tol=tol)
        abar = p.alpha_bar
        w_seq = rng.standard_normal((p.N, p.q))
        w_seq *= (np.sqrt(0.5 * p.alpha)
                  / np.linalg.norm(w_seq, axis=1))[:, None]
        traj = rollout(p, mode="external", w_seq=w_seq, tol=tol)
        assert traj.total_cost <= sol.value * abar * (1.0 + 1e-8) + 1e-10


def test_boundary_activation_along_rollouts(rng, tol):
    for _ in range(10):
        p = make_problem(rng)
        traj = rollout(p, mode="worst_case", tol=tol)
        norms2 = np.sum(traj.disturbances ** 2, axis=1)
        assert np.max(np.abs(norms2 - p.alpha)) <= 1e-8 * (1.0 + p.alpha.max())


def test_stage_value_telescopes(tol):
    # abar phi_k = stage cost + abar phi_{k+1}, closing with the terminal
    # cost at k = N-1
    p = scalar_problem(A=1, B=1, G=1, Q=0.2, R=1, Pf=1, N=4,
                       alpha=1.0, x0=2.0)
    traj = rollout(p, mode="worst_case", tol=tol)
    abar = p.alpha_bar
    scale = 1.0 + abs(traj.stage_values[0])
    for k in range(p.N - 1):
        lhs = abar * traj.stage_values[k]
        rhs = traj.stage_costs[k] + abar * traj.stage_values[k + 1]
        assert abs(lhs - rhs) <= 1e-6 * scale
    last = abar * traj.stage_values[p.N - 1]
    assert abs(last - (traj.stage_costs[p.N - 1] + traj.terminal_cost)) <= 1e-6 * scale


def test_rollout_dynamics_identity(rng, tol):
    p = make_problem(rng)
    traj = rollout(p, mode="worst_case", tol=tol)
    for k in range(p.N):
        step = p.A @ traj.states[k] + p.B @ traj.controls[k] + p.G @ traj.disturbances[k]
        assert np.array_equal(traj.states[k + 1], step)


def test_rollout_rejects_bad_external_input(rng, tol):
    p = make_problem(rng, N=3)
    with pytest.raises(ValueError, match="exceeds"):
        big = np.full((p.N, p.q), 10.0 * np.sqrt(p.alpha.max()))
        rollout(p, mode="external", w_seq=big, tol=tol)
    with pytest.raises(ValueError, match="w_seq"):
        rollout(p, mode="external", w_seq=np.zeros((p.N + 1, p.q)), tol=tol)
    with pytest.raises(ValueError, match="mode"):
        rollout(p, mode="nominal", tol=tol)


def test_rollout_rejects_non_finite_external_input(rng, tol):
    # NaN passes the bound test (NaN > bound is False), so a non-finite
    # disturbance is rejected before it, in any row
    p = make_problem(rng, N=3)
    for row in (0, p.N - 1):
        for bad in (np.nan, np.inf):
            w_seq = np.zeros((p.N, p.q))
            w_seq[row, -1] = bad
            with pytest.raises(ValueError, match="w_seq is not finite"):
                rollout(p, mode="external", w_seq=w_seq, tol=tol)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "long", "short"])
def test_states_and_controls_checked(rng, tol, bad):
    # one state contract: every entry point that takes a state or a
    # control rejects a non-finite one or one of the wrong size
    p = make_problem(rng)
    x = p.x0
    sol = solve_multipliers(p, x, tol=tol)
    lam = sol.lam_star
    u = control_at(p, x, 0, lam, tol)

    def spoil(v):
        if bad == "long":
            return np.append(v, 0.0)
        if bad == "short":
            return v[:-1]
        v = v.copy()
        v[-1] = bad
        return v

    match = "has size" if isinstance(bad, str) else "not finite"
    for call in (lambda: solve_multipliers(p, spoil(x), tol=tol),
                 lambda: objective(p, lam, spoil(x), 0, tol),
                 lambda: control_at(p, spoil(x), 0, lam, tol),
                 lambda: worst_disturbance_at(p, spoil(x), 0, lam, u, tol),
                 lambda: worst_disturbance_at(p, x, 0, lam, spoil(u), tol)):
        with pytest.raises(ValueError, match=match):
            call()


def test_solution_sweep_cannot_be_written(rng, tol):
    # a write into a solution's sweep raises and leaves every later
    # decision from its multipliers as it was
    p = make_problem(rng)
    sol = solve_multipliers(p, p.x0, tol=tol)
    u = control_at(p, p.x0, 0, sol.lam_star, tol)
    with pytest.raises(ValueError, match="read-only"):
        sol.sweep.K[0] *= 2.0
    assert sweep(p, sol.lam_star, tol) is sol.sweep
    assert np.array_equal(control_at(p, p.x0, 0, sol.lam_star, tol), u)


def test_trajectory_csv_round_trip(rng, tol, tmp_path):
    # `stdar rollout` writes the Trajectory to rollout.csv; %.17g survives
    # the float round trip bit for bit, and the terminal row carries x_N
    # and the terminal cost
    p = make_problem(rng)
    sc = tmp_path / "sc.yaml"
    save_scenario(ScenarioFile(problem=p, mode="rollout", rollout_mode="worst_case",
                               out=str(tmp_path / "res")), sc)
    traj = rollout(p, mode="worst_case", tol=tol)
    assert main(["rollout", "--scenario", str(sc)]) == (0 if traj.converged else 3)
    with open(tmp_path / "res" / "rollout.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    header = (["k"] + [f"x[{i}]" for i in range(p.n)]
              + [f"u[{i}]" for i in range(p.m)]
              + [f"w[{i}]" for i in range(p.q)]
              + ["lambda_k", "stage_cost", "iterations", "stage_steps",
                 "converged"])
    assert rows[0] == header
    assert len(rows) == p.N + 2
    for k in range(p.N):
        vals = rows[k + 1]
        assert int(vals[0]) == k
        back = np.array([float(v) for v in vals[1:-3]])
        ref = np.concatenate([traj.states[k], traj.controls[k],
                              traj.disturbances[k],
                              [traj.multipliers[k], traj.stage_costs[k]]])
        assert np.array_equal(back, ref)
        assert [int(v) for v in vals[-3:-1]] == [traj.iterations[k],
                                                 traj.stage_steps[k]]
        assert vals[-1] == str(bool(traj.stage_converged[k]))
    tail = dict(zip(header, rows[p.N + 1]))
    assert int(tail["k"]) == p.N
    assert np.array_equal(np.array([float(tail[f"x[{i}]"]) for i in range(p.n)]),
                          traj.states[p.N])
    assert float(tail["stage_cost"]) == traj.terminal_cost
    assert all(v == "" for c, v in tail.items()
               if c not in ("k", "stage_cost") and not c.startswith("x["))


def test_trajectory_reports_each_resolve_work(rng, tol):
    # iterations[k], stage_steps[k] and stage_converged[k] are those of
    # the stage-k re-solve, repeated here from the recorded states and the
    # same warm starts; converged is all of the flags
    for _ in range(3):
        p = make_problem(rng)
        traj = rollout(p, mode="worst_case", tol=tol)
        assert (traj.iterations.shape == traj.stage_steps.shape
                == traj.stage_converged.shape == (p.N,))
        assert traj.converged == traj.stage_converged.all()
        warm = None
        for k in range(p.N):
            sol = solve_multipliers(p, traj.states[k], k=k, init=warm, tol=tol)
            assert (traj.iterations[k], traj.stage_steps[k],
                    traj.stage_converged[k]) == (
                sol.iterations, sol.stage_steps, sol.converged)
            assert sol.stage_steps >= p.N - k  # the start pass at least
            warm = sol.lam_star.lambdas[1:]


def test_per_stage_saddle_inequality(rng, tol):
    # L(u*, w) <= L(u*, w*) <= L(u, w*) for the stage Lagrangian
    # l(x,u) + 0.5 x+' Pi_{k+1} x+ + 0.5 lam_k (alpha_k - ||w||^2),
    # checked at stages with a strictly interior multiplier; each stage is
    # re-solved fresh so lam, Pi, u and w describe the same tail program
    checked = 0
    for _ in range(8):
        p = make_problem(rng)
        x = p.x0.copy()
        for k in range(p.N):
            sol = solve_multipliers(p, x, k=k, tol=tol)
            sw = sweep(p, sol.lam_star, tol)
            lam_k = float(sol.lam_star.lambdas[0])
            us = control_at(p, x, k, sol.lam_star, tol)
            ws = worst_disturbance_at(p, x, k, sol.lam_star, us, tol)
            if lam_k - sw.bounds[0] > 1e-5 * (1.0 + sw.bounds[0]):
                a_k = float(p.alpha[k])
                Pi1 = sw.Pi[1]
                xk = x

                def L(u, w):
                    xp = p.A @ xk + p.B @ u + p.G @ w
                    return (p.stage_cost(xk, u) + 0.5 * float(xp @ Pi1 @ xp)
                            + 0.5 * lam_k * (a_k - float(w @ w)))

                L0 = L(us, ws)
                scale = 1.0 + abs(L0)
                for _ in range(12):
                    du = 0.5 * rng.standard_normal(p.m)
                    dw = 0.5 * rng.standard_normal(p.q)
                    assert L(us, ws + dw) <= L0 + 1e-8 * scale
                    assert L(us + du, ws) >= L0 - 1e-8 * scale
                    checked += 1
            x = p.A @ x + p.B @ us + p.G @ ws
    assert checked >= 100
