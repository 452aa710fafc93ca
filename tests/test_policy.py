import csv
import gc

import numpy as np
import pytest

from stdar import (MultiplierVector, NoSphereIntersection, ProblemData,
                   control_at, objective, rollout, solve_multipliers, sweep,
                   worst_disturbance_at)
from stdar.cli import main
from stdar.riccati import EPS_BOUNDARY, at_bound, project_feasible
from stdar.scenario import ScenarioFile, save_scenario
import stdar
from stdar import multiplier, policy, riccati
from conftest import fresh, make_problem, orthogonal, rotated, scalar_problem
from oracles import shortfall_terms
from test_multiplier import minmax_from_single_stage


def test_control_at_origin_is_zero(rng):
    p = make_problem(rng)
    lam = project_feasible(p, np.zeros(p.N), margin=0.1)
    u = control_at(p, np.zeros(p.n), 0, lam)
    assert u.shape == (p.m,)
    assert np.all(u == 0.0)


def test_control_at_rejects_stage_mismatch(rng):
    p = make_problem(rng, N=3)
    lam = project_feasible(p, np.zeros(p.N), margin=0.1)
    with pytest.raises(ValueError, match="stage"):
        control_at(p, p.x0, 1, lam)


def test_worst_disturbance_rejects_stage_mismatch(rng):
    p = make_problem(rng, N=3)
    lam = project_feasible(p, np.zeros(p.N))
    with pytest.raises(ValueError, match="stage"):
        worst_disturbance_at(p, p.x0, 1, lam, np.zeros(p.m))


def test_every_stage_offset_check_is_the_one_helper(rng):
    # control_at, worst_disturbance_at and objective check a vector's start
    # stage through riccati._require_offset, with its message, for a
    # solve's pass and a plain vector alike
    assert policy._require_offset is multiplier._require_offset is riccati._require_offset
    p = make_problem(rng, N=4)
    sol = solve_multipliers(p, p.x0, k=2)
    for lam in (sol.lam_star, MultiplierVector(sol.lam_star.lambdas, 2)):
        for call in (lambda: control_at(p, p.x0, 1, lam),
                     lambda: worst_disturbance_at(p, p.x0, 1, lam, np.zeros(p.m)),
                     lambda: objective(p, lam, p.x0, k=1)):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == "multipliers start at stage 2, not 1"


def test_stage_indices_are_read_as_N_is():
    # every stage index is read through problem._integer: an integral float
    # or a numpy integer is that int, bit for bit the same decision, and a
    # fraction, a boolean or a string is refused with the value named; a
    # plain array where a MultiplierVector is read is still a TypeError first
    p = scalar_problem(N=4)
    x, sol = p.x0, solve_multipliers(p, p.x0, k=1)
    u = control_at(p, x, 1, sol.lam_star)
    w = worst_disturbance_at(p, x, 1, sol.lam_star, u)
    entries = {
        "solve_multipliers": lambda k: solve_multipliers(p, x, k=k).value,
        "objective": lambda k: objective(p, sol.lam_star, x, k=k),
        "control_at": lambda k: control_at(p, x, k, sol.lam_star),
        "worst_disturbance_at": lambda k: worst_disturbance_at(p, x, k, sol.lam_star, u),
        "project_feasible": lambda k: project_feasible(
            p, sol.lam_star.lambdas, stage_offset=k).lambdas}
    expected = {"solve_multipliers": sol.value, "objective": sol.value,
                "control_at": u, "worst_disturbance_at": w,
                "project_feasible": sol.lam_star.lambdas}
    for name, call in entries.items():
        for good in (1.0, np.int64(1), np.float64(1.0)):
            assert np.array_equal(call(good), expected[name]), (name, good)
        for bad in (1.5, True, "1"):
            with pytest.raises(ValueError) as err:
                call(bad)
            assert str(err.value) == f"stage offset {bad!r} is not an integer", name
    lam = project_feasible(p, sol.lam_star.lambdas, stage_offset=np.float64(1.0))
    assert type(lam.stage_offset) is int and lam.stage_offset == 1
    for bad in (1.5, True):
        for call in (lambda: control_at(p, x, bad, sol.lam_star.lambdas),
                     lambda: worst_disturbance_at(p, x, bad, sol.lam_star.lambdas, u)):
            with pytest.raises(TypeError, match="MultiplierVector"):
                call()


def test_multiplier_arguments_are_checked_with_typed_errors(rng):
    # a plain array where a MultiplierVector is read raises a TypeError that
    # names it, in sweep and in the decisions alike; a vector given as a
    # solve's init must start at the solve's stage, with the offset check's
    # message, and one that does is read as its raw multipliers
    p = make_problem(rng, N=4)
    sol = solve_multipliers(p, p.x0, k=2)
    lams = np.array(sol.lam_star.lambdas)
    for call in (lambda: sweep(p, lams),
                 lambda: control_at(p, p.x0, 2, lams),
                 lambda: worst_disturbance_at(p, p.x0, 2, lams, np.zeros(p.m))):
        with pytest.raises(TypeError, match="MultiplierVector"):
            call()
    for init in (sol.lam_star, MultiplierVector(lams, 2)):
        with pytest.raises(ValueError) as err:
            solve_multipliers(p, p.x0, k=1, init=init)
        assert str(err.value) == "multipliers start at stage 2, not 1"
        warm = solve_multipliers(p, p.x0, k=2, init=init)
        raw = solve_multipliers(p, p.x0, k=2, init=lams)
        assert np.array_equal(warm.lam_star.lambdas, raw.lam_star.lambdas)
        assert warm.value == raw.value and warm.stage_steps == raw.stage_steps


def test_decision_from_multipliers_alone_runs_no_pass(rng, monkeypatch):
    # a solve's lam_star is the pass it ended on: kept without its
    # solution, it is handed back by sweep, and the control and the
    # worst-case disturbance at it run no further pass
    passes = []
    one_pass = riccati._nested_pass
    monkeypatch.setattr(riccati, "_nested_pass",
                        lambda *a, **kw: passes.append(1) or one_pass(*a, **kw))
    for _ in range(5):
        p = make_problem(rng)
        k = int(rng.integers(0, p.N))
        x = rng.standard_normal(p.n)
        lam = solve_multipliers(p, x, k=k).lam_star
        gc.collect()
        passes.clear()
        u = control_at(p, x, k, lam)
        worst_disturbance_at(p, x, k, lam, u)
        assert passes == []
        assert sweep(p, lam) is lam


def test_sweep_hands_a_pass_back_unchecked(rng, monkeypatch):
    # a pass covers stages k..N-1 by construction and raised on any
    # non-finite multiplier as it set it, so sweep hands a pass of p back
    # before its one vector check, and a decision runs none; any other
    # vector still takes it
    def refuse(*args):
        raise AssertionError("checked again")

    p = make_problem(rng, N=4)
    sol = solve_multipliers(p, p.x0, k=1)
    monkeypatch.setattr(riccati, "_tail_vector", refuse)
    assert sweep(p, sol.lam_star) is sol.lam_star
    u = control_at(p, p.x0, 1, sol.lam_star)
    worst_disturbance_at(p, p.x0, 1, sol.lam_star, u)
    with pytest.raises(AssertionError, match="checked again"):
        sweep(p, fresh(sol.lam_star))


def test_online_decision_stage_steps(rng, monkeypatch):
    # a stage-k solve, cold or warm, passes through its tail once before
    # the descent, stepping each stage it does not copy, and runs no
    # projection pass; every trial pass resumes from the current pass, a
    # warm start's included, and reaches only the stages from the last one
    # where bounds + eps_boundary + slack differs from its multiplier down.
    # A head step moves s_0 alone, at most once per point, and re-steps
    # stage 0 alone, a warm start's start point included: the start slacks
    # are read off the start pass as it adds them, so they give its
    # multipliers back bit for bit. The solve counts the steps taken; the
    # decision's control and disturbance take no stage step
    steps, at_descent, grads, backtracks, heads = [], [], [], [], []
    trial_steps, head_steps, in_head, warm = [], [], [], []
    fewer = {"cold": [], "warm": []}
    step, descend, head = riccati._stage_step, multiplier._descend, multiplier._head_step
    gradient, reconstruct = multiplier._slack_gradient, multiplier._reconstruct
    monkeypatch.setattr(riccati, "_stage_step",
                        lambda *a: steps.append(1) or step(*a))
    monkeypatch.setattr(multiplier, "_descend",  # with the start pass's steps
                        lambda *a: at_descent.append((len(steps), a[4])) or descend(*a))
    monkeypatch.setattr(multiplier, "_slack_gradient",
                        lambda *a: grads.append(1) or gradient(*a))
    for module in (riccati, multiplier, stdar):
        monkeypatch.setattr(module, "project_feasible",
                            lambda *a, **kw: pytest.fail("projection pass"),
                            raising=False)

    def traced_reconstruct(p, s, k, base=None):
        out = reconstruct(p, s, k, base)
        if base is not None:
            changed = np.flatnonzero(base.bounds + EPS_BOUNDARY + s
                                     != base.lambdas)
            assert out[1] == (int(changed[-1]) + 1 if changed.size else 0)
            if in_head:
                assert out[1:] == (1, 1)
            (head_steps if in_head else trial_steps).append(out[2])
        return out

    def traced_head(p, x, s, *a):
        in_head.append(1)
        try:
            out = head(p, x, s, *a)
        finally:
            in_head.pop()
        assert np.array_equal(out[0][1:], s[1:])
        return out

    monkeypatch.setattr(multiplier, "_reconstruct", traced_reconstruct)
    monkeypatch.setattr(multiplier, "_head_step", traced_head)

    def solve(p, x, k, init):
        for log in (steps, at_descent, grads, trial_steps, head_steps, warm):
            log.clear()
        warm.append(init is not None)
        sol = solve_multipliers(p, x, k=k, init=init)
        [(before, start)] = at_descent
        assert before == start <= p.N - k
        trials = sol.iterations + sol.backtracks
        assert len(trial_steps) == trials
        assert len(head_steps) <= 1 + sol.iterations
        assert sol.stage_steps == len(steps) == (
            start + sum(trial_steps) + sum(head_steps))
        assert sol.gradient_evals == len(grads) == 1 + sol.iterations
        backtracks.append(sol.backtracks)
        fewer["warm" if warm[0] else "cold"].append(
            sum(trial_steps) < (p.N - k) * len(trial_steps))
        heads.append(len(head_steps))
        return sol

    # at N = 8 some descent trials leave the last stage's slack at 0
    for _ in range(10):
        p = make_problem(rng, N=8)
        k = int(rng.integers(1, p.N - 1))
        cold = solve(p, p.x0, k, None)
        x = rng.standard_normal(p.n)
        sol = solve(p, x, k, cold.lam_star.lambdas)
        in_solve = len(steps)
        u = control_at(p, x, k, sol.lam_star)
        worst_disturbance_at(p, x, k, sol.lam_star, u)
        assert len(steps) == in_solve
    assert max(backtracks) > 0 and max(heads) > 0
    # resumed trial passes step fewer stages, cold and warm
    assert any(fewer["cold"]) and any(fewer["warm"])


def test_single_stage_policy_matches_minmax(rng):
    # u0 and wbar0 of the N=1 program agree with the sphere-constrained
    # saddle solved in unit coordinates
    for _ in range(10):
        p = make_problem(rng, N=1)
        x = 3.0 * rng.standard_normal(p.n)
        u_ref, w_ref, lam_ref, _ = minmax_from_single_stage(p, x)
        sol = solve_multipliers(p, x)
        assert sol.converged
        u = control_at(p, x, 0, sol.lam_star)
        w = worst_disturbance_at(p, x, 0, sol.lam_star, u)
        assert u == pytest.approx(u_ref, rel=1e-6, abs=1e-7)
        bound = float(np.linalg.eigvalsh(p.G.T @ p.Pf @ p.G)[-1])
        if lam_ref - bound > 1e-6 * (1.0 + bound):
            # interior multiplier: the attaining disturbance is unique
            assert w == pytest.approx(w_ref, rel=1e-6, abs=1e-7)


def test_policy_is_nonlinear_in_state():
    # the multiplier program depends on x, so u(3x) != 3 u(x)
    p = scalar_problem(A=1, B=1, G=1, Q=0.2, R=1, Pf=1, N=3, alpha=1.0, x0=1.0)
    u1 = control_at(p, p.x0, 0, solve_multipliers(p, p.x0).lam_star)
    x3 = 3.0 * p.x0
    u3 = control_at(p, x3, 0, solve_multipliers(p, x3).lam_star)
    assert abs(u3[0] - 3.0 * u1[0]) > 1e-6 * abs(u1[0])


def test_worst_disturbance_attains_bound(rng):
    for _ in range(10):
        p = make_problem(rng)
        x = rng.standard_normal(p.n)
        sol = solve_multipliers(p, x)
        u = control_at(p, x, 0, sol.lam_star)
        w = worst_disturbance_at(p, x, 0, sol.lam_star, u)
        assert float(w @ w) == pytest.approx(p.alpha[0], rel=1e-10)


def test_worst_disturbance_at_origin(rng):
    # zero drive: the response is a pure top-eigenspace completion of
    # G'Pi1 G, still exactly on the sphere
    p = make_problem(rng)
    sol = solve_multipliers(p, np.zeros(p.n))
    w = worst_disturbance_at(p, np.zeros(p.n), 0, sol.lam_star,
                             np.zeros(p.m))
    assert float(w @ w) == pytest.approx(p.alpha[0], rel=1e-10)
    sw = sweep(p, sol.lam_star)
    GPG = p.G.T @ sw.Pi[1] @ p.G
    resid = (GPG - sw.bounds[0] * np.eye(p.q)) @ w
    assert np.linalg.norm(resid) <= 1e-6 * (1.0 + sw.bounds[0])


def test_tie_completion_rotates_with_the_problem(rng):
    # A = 0.9 I, B = G = Q = R = Pf = I: G'Pi G is isotropic, so at a tie
    # the whole plane is its zero eigenspace. The completion follows d_w's
    # part there, so in the coordinates x -> Tx, u -> S'u, w -> V'w
    # (conftest.rotated) the disturbance is V'w, within 1e-5 (measured
    # 1e-6: at a tie d_w is a signal of size EPS_BOUNDARY). Along the
    # eigenvector eigh happens to put last it missed by up to 1.9
    I = np.eye(2)
    p = ProblemData(A=0.9 * I, B=I, G=I, Q=I, R=I, Pf=I, N=2, alpha=0.5)
    x = np.array([1.0, 0.3])

    def decide(p, x):
        lam = solve_multipliers(p, x).lam_star
        assert at_bound(lam.lambdas[0], lam.bounds[0])
        return worst_disturbance_at(p, x, 0, lam, control_at(p, x, 0, lam))

    w = decide(p, x)
    for _ in range(20):
        T, S, V = (orthogonal(rng, 2) for _ in range(3))
        w_rot = decide(rotated(p, T, S, V), T @ x)
        assert np.linalg.norm(w_rot - V.T @ w) <= 1e-5 * np.linalg.norm(w)


def test_worst_disturbance_takes_no_eigendecomposition(rng, monkeypatch):
    # the completion reads the eigenpairs of G'Pi G that the solve's pass
    # stored: with numpy's symmetric eigensolvers patched to raise around
    # the call it returns the same disturbance at q = 2 and 3, from the
    # origin (a pure completion on the bound) and from random states
    on_bound = 0
    for q in (2, 3):
        for _ in range(6):
            p = make_problem(rng, n=3, m=3, q=q)
            for x in (np.zeros(p.n), 3.0 * rng.standard_normal(p.n)):
                sol = solve_multipliers(p, x)
                u = control_at(p, x, 0, sol.lam_star)
                w = worst_disturbance_at(p, x, 0, sol.lam_star, u)
                on_bound += bool(sol.boundary_flags[0])
                with monkeypatch.context() as mp:
                    for name in ("eigh", "eigvalsh"):
                        mp.setattr(np.linalg, name,
                                   lambda *a, **kw: pytest.fail("eigendecomposition"))
                    again = worst_disturbance_at(p, x, 0, sol.lam_star, u)
                assert np.array_equal(again, w)
                assert float(w @ w) == pytest.approx(p.alpha[0], rel=1e-10)
    assert on_bound >= 6


def test_disturbance_off_the_sphere_raises(rng):
    # multipliers 0.5 above their bounds are interior and not stage-optimal:
    # the response has no eigenspace to complete along, and from the origin
    # it is zero, from a large state far outside the sphere
    p = make_problem(rng, n=2, m=2, q=2, N=3)
    lam = project_feasible(p, np.zeros(p.N), margin=0.5)
    for x in (np.zeros(p.n), 1e3 * p.x0):
        with pytest.raises(NoSphereIntersection, match="not stage-optimal"):
            worst_disturbance_at(p, x, 0, lam, np.zeros(p.m))
    # at the bound the response lives off the top eigenspace of G'Pi G; from
    # a large state its norm exceeds alpha_0, where no completion can reach
    lam = project_feasible(p, np.zeros(p.N))
    sw = sweep(p, lam)
    assert at_bound(lam.lambdas[0], sw.bounds[0])
    with pytest.raises(NoSphereIntersection, match="off the bound"):
        worst_disturbance_at(p, 1e3 * p.x0, 0, lam, np.zeros(p.m))
    # from the origin the same multipliers complete onto the sphere
    w = worst_disturbance_at(p, np.zeros(p.n), 0, lam, np.zeros(p.m))
    assert float(w @ w) == pytest.approx(p.alpha[0], rel=1e-10)


def test_rollout_zero_mode_from_origin():
    p = scalar_problem(A=1, B=1, G=1, Q=0.2, R=1, Pf=1, N=4,
                       alpha=1.0, x0=0.0)
    traj = rollout(p, mode="zero")
    assert np.all(traj.states == 0.0)
    assert np.all(traj.controls == 0.0)
    assert np.all(traj.disturbances == 0.0)
    assert traj.total_cost == 0.0
    assert np.isnan(traj.value_ratio)
    assert traj.converged


def test_worst_case_ratio_equals_program_value():
    # with every stage bound active the realized cost is abar * phi(x0),
    # so the cost over disturbance energy reproduces the program value
    p = scalar_problem(A=1, B=1, G=1, Q=0.2, R=1, Pf=1, N=2,
                       alpha=1.0, x0=1.0)
    sol = solve_multipliers(p, p.x0)
    traj = rollout(p, mode="worst_case")
    abar = p.alpha_bar
    assert traj.converged
    assert traj.stage_values[0] == pytest.approx(sol.value, rel=1e-8)
    assert traj.total_cost == pytest.approx(sol.value * abar, rel=1e-6)
    assert traj.value_ratio == pytest.approx(sol.value, rel=1e-6)


def test_admissible_disturbance_never_beats_worst_case(rng):
    for _ in range(5):
        p = make_problem(rng)
        sol = solve_multipliers(p, p.x0)
        abar = p.alpha_bar
        w_seq = rng.standard_normal((p.N, p.q))
        w_seq *= (np.sqrt(0.5 * p.alpha)
                  / np.linalg.norm(w_seq, axis=1))[:, None]
        traj = rollout(p, mode="external", w_seq=w_seq)
        assert traj.total_cost <= sol.value * abar * (1.0 + 1e-8) + 1e-10


def test_resolving_cost_falls_short_by_its_gaps_losses_and_slacks():
    # rollout's loop replayed through the public calls is rollout bit for
    # bit, and its cost obeys the identity of oracles.shortfall_terms:
    #   sum(x'Qx + u'Ru) + x_N'Pf x_N = 2 abar phi_0 - gaps - losses - slacks
    # within 1e-12 of its largest term, every term at least -1e-12 of it.
    # So the total cost (the halved sum) is at most abar phi_0 for every
    # admissible disturbance, worst-case, zero or drawn inside each stage's
    # ball, with equality only where every gap, loss and slack vanishes.
    # Measured over these 40 programs: residual 4.2e-16 of the largest
    # term, smallest term -1.7e-16
    rng = np.random.default_rng(5)
    for _ in range(40):
        p = make_problem(rng, N=int(rng.integers(3, 10)))
        for mode in ("worst_case", "zero", "external"):
            w_seq = None
            if mode == "external":
                w_seq = rng.standard_normal((p.N, p.q))
                w_seq *= (np.sqrt(p.alpha * rng.uniform(0.0, 1.0, p.N))
                          / np.linalg.norm(w_seq, axis=1))[:, None]
            traj = rollout(p, mode, w_seq)
            x, warm, solutions, states, controls, disturbances = p.x0, None, [], [p.x0], [], []
            for k in range(p.N):
                sol = solve_multipliers(p, x, k=k, init=warm)
                u = control_at(p, x, k, sol.lam_star)
                if mode == "worst_case":
                    w = worst_disturbance_at(p, x, k, sol.lam_star, u)
                else:
                    w = np.zeros(p.q) if mode == "zero" else w_seq[k]
                x = p.A @ x + p.B @ u + p.G @ w
                warm = sol.lam_star.lambdas[1:] if k < p.N - 1 else None
                solutions.append(sol)
                states.append(x)
                controls.append(u)
                disturbances.append(w)
            states, controls, disturbances = map(np.array, (states, controls, disturbances))
            assert np.array_equal(states, traj.states)
            assert np.array_equal(controls, traj.controls)
            assert np.array_equal(disturbances, traj.disturbances)

            gaps, losses, slacks = shortfall_terms(p, states, disturbances, solutions)
            cost = states[-1] @ p.Pf @ states[-1] + sum(
                x @ p.Q @ x + u @ p.R @ u for x, u in zip(states, controls))
            bound = 2.0 * p.alpha_bar * solutions[0].value
            shortfall = np.concatenate([gaps, losses, slacks])
            scale = np.abs(np.concatenate([[cost, bound], shortfall])).max()
            assert abs(cost - (bound - shortfall.sum())) <= 1e-12 * scale, mode
            assert shortfall.min() >= -1e-12 * scale, mode
            assert traj.total_cost <= p.alpha_bar * solutions[0].value * (1.0 + 1e-12)


def test_boundary_activation_along_rollouts(rng):
    for _ in range(10):
        p = make_problem(rng)
        traj = rollout(p, mode="worst_case")
        norms2 = np.sum(traj.disturbances ** 2, axis=1)
        assert np.max(np.abs(norms2 - p.alpha)) <= 1e-8 * (1.0 + p.alpha.max())


def test_stage_value_telescopes():
    # abar phi_k = stage cost + abar phi_{k+1}, closing with the terminal
    # cost at k = N-1
    p = scalar_problem(A=1, B=1, G=1, Q=0.2, R=1, Pf=1, N=4,
                       alpha=1.0, x0=2.0)
    traj = rollout(p, mode="worst_case")
    abar = p.alpha_bar
    scale = 1.0 + abs(traj.stage_values[0])
    for k in range(p.N - 1):
        lhs = abar * traj.stage_values[k]
        rhs = traj.stage_costs[k] + abar * traj.stage_values[k + 1]
        assert abs(lhs - rhs) <= 1e-6 * scale
    last = abar * traj.stage_values[p.N - 1]
    assert abs(last - (traj.stage_costs[p.N - 1] + traj.terminal_cost)) <= 1e-6 * scale


def test_rollout_dynamics_identity(rng):
    p = make_problem(rng)
    traj = rollout(p, mode="worst_case")
    for k in range(p.N):
        step = p.A @ traj.states[k] + p.B @ traj.controls[k] + p.G @ traj.disturbances[k]
        assert np.array_equal(traj.states[k + 1], step)


def test_rollout_rotates_with_the_problem(rng):
    # in the coordinates x -> Tx, u -> S'u, w -> V'w (conftest.rotated) a
    # worst-case rollout is the same closed loop: its ratio and multipliers
    # stay within 1e-12 relative, and its states, controls and disturbances
    # map to T x, S'u and V'w within 1e-10 (measured about 1e-13). The
    # records keep their kinds: integer counts, boolean flags, N + 1 states
    def near(a, b, tol):
        return np.abs(a - b).max() <= tol * max(np.abs(b).max(), 1e-300)

    for _ in range(10):
        p = make_problem(rng, N=int(rng.integers(2, 9)))
        traj = rollout(p, mode="worst_case")
        for _ in range(2):
            T, S, V = (orthogonal(rng, d) for d in (p.n, p.m, p.q))
            rot = rollout(rotated(p, T, S, V), mode="worst_case")
            assert near(rot.value_ratio, traj.value_ratio, 1e-12)
            assert near(rot.multipliers, traj.multipliers, 1e-12)
            assert near(rot.states, traj.states @ T.T, 1e-10)
            assert near(rot.controls, traj.controls @ S, 1e-10)
            assert near(rot.disturbances, traj.disturbances @ V, 1e-10)
            assert rot.states.shape == (p.N + 1, p.n)
            assert rot.iterations.dtype.kind == rot.stage_steps.dtype.kind == "i"
            assert rot.stage_converged.dtype == bool


def test_rollout_rejects_bad_external_input(rng):
    p = make_problem(rng, N=3)
    with pytest.raises(ValueError, match="exceeds"):
        big = np.full((p.N, p.q), 10.0 * np.sqrt(p.alpha.max()))
        rollout(p, mode="external", w_seq=big)
    with pytest.raises(ValueError, match="w_seq"):
        rollout(p, mode="external", w_seq=np.zeros((p.N + 1, p.q)))
    with pytest.raises(ValueError, match="mode"):
        rollout(p, mode="nominal")


def test_rollout_rejects_non_finite_external_input(rng):
    # NaN passes the bound test (NaN > bound is False), so a non-finite
    # disturbance is rejected before it, in any row
    p = make_problem(rng, N=3)
    for row in (0, p.N - 1):
        for bad in (np.nan, np.inf):
            w_seq = np.zeros((p.N, p.q))
            w_seq[row, -1] = bad
            with pytest.raises(ValueError, match="^w_seq contains non-finite entries$"):
                rollout(p, mode="external", w_seq=w_seq)


@pytest.mark.parametrize("N", [1, 3])
def test_rollout_external_without_w_seq_says_it_is_required(N):
    # a missing w_seq is named as missing, not read as a NaN scalar, which
    # would report it as not finite (N = 1) or as shaped (1, 1) (N = 3)
    with pytest.raises(ValueError, match="^rollout mode external requires w_seq$"):
        rollout(scalar_problem(N=N), mode="external")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "long", "short"])
def test_states_and_controls_checked(rng, bad):
    # one state contract: every entry point that takes a state or a
    # control rejects a non-finite one or one of the wrong size
    p = make_problem(rng)
    x = p.x0
    sol = solve_multipliers(p, x)
    lam = sol.lam_star
    u = control_at(p, x, 0, lam)

    def spoil(v):
        if bad == "long":
            return np.append(v, 0.0)
        if bad == "short":
            return v[:-1]
        v = v.copy()
        v[-1] = bad
        return v

    match = "has size" if isinstance(bad, str) else "not finite"
    for call in (lambda: solve_multipliers(p, spoil(x)),
                 lambda: objective(p, lam, spoil(x), 0),
                 lambda: control_at(p, spoil(x), 0, lam),
                 lambda: worst_disturbance_at(p, spoil(x), 0, lam, u),
                 lambda: worst_disturbance_at(p, x, 0, lam, spoil(u))):
        with pytest.raises(ValueError, match=match):
            call()


def test_solution_sweep_cannot_be_written(rng):
    # a write into a solution's sweep raises and leaves every later
    # decision from its multipliers as it was
    p = make_problem(rng)
    sol = solve_multipliers(p, p.x0)
    u = control_at(p, p.x0, 0, sol.lam_star)
    with pytest.raises(ValueError, match="read-only"):
        sol.lam_star.K[0] *= 2.0
    assert sweep(p, sol.lam_star) is sol.lam_star
    assert np.array_equal(control_at(p, p.x0, 0, sol.lam_star), u)


def test_trajectory_csv_round_trip(rng, tmp_path):
    # `stdar rollout` writes the Trajectory to rollout.csv; %.17g survives
    # the float round trip bit for bit, and the terminal row carries x_N
    # and the terminal cost
    p = make_problem(rng)
    sc = tmp_path / "sc.yaml"
    save_scenario(ScenarioFile(problem=p, rollout_mode="worst_case",
                               out=str(tmp_path / "res")), sc)
    traj = rollout(p, mode="worst_case")
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


def test_trajectory_reports_each_resolve_work(rng):
    # iterations[k], stage_steps[k] and stage_converged[k] are those of
    # the stage-k re-solve, repeated here from the recorded states and the
    # same warm starts; converged is all of the flags
    for _ in range(3):
        p = make_problem(rng)
        traj = rollout(p, mode="worst_case")
        assert (traj.iterations.shape == traj.stage_steps.shape
                == traj.stage_converged.shape == (p.N,))
        assert traj.converged == traj.stage_converged.all()
        warm = None
        for k in range(p.N):
            sol = solve_multipliers(p, traj.states[k], k=k, init=warm)
            assert (traj.iterations[k], traj.stage_steps[k],
                    traj.stage_converged[k]) == (
                sol.iterations, sol.stage_steps, sol.converged)
            assert sol.stage_steps >= p.N - k  # the start pass at least
            warm = sol.lam_star.lambdas[1:]


def test_per_stage_saddle_inequality(rng):
    # L(u*, w) <= L(u*, w*) <= L(u, w*) for the stage Lagrangian
    # l(x,u) + 0.5 x+' Pi_{k+1} x+ + 0.5 lam_k (alpha_k - ||w||^2),
    # checked at stages with a strictly interior multiplier; each stage is
    # re-solved fresh so lam, Pi, u and w describe the same tail program
    checked = 0
    for _ in range(8):
        p = make_problem(rng)
        x = p.x0.copy()
        for k in range(p.N):
            sol = solve_multipliers(p, x, k=k)
            sw = sweep(p, sol.lam_star)
            lam_k = float(sol.lam_star.lambdas[0])
            us = control_at(p, x, k, sol.lam_star)
            ws = worst_disturbance_at(p, x, k, sol.lam_star, us)
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
