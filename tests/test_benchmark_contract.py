"""The names the benchmark harness resolves in the package.

benchmark/run.py builds its api namespace from API_NAMES, and
benchmark/tracing.py wraps the functions named in TARGETS where the
package's modules bind them. A name removed or renamed in the package
breaks the benchmark, not the package's own tests, so these tests read
both lists from benchmark/ and resolve them. One short run each of the
long_horizon, steady and online workloads checks that the harness runs end
to end, and one pass over each of the online, long_horizon and steady
banks bounds the solver work its solves report, counts that do not depend
on the host. The steady bank's systems also check the steady state against
the finite-horizon program and that the doubling's infeasibility exit
ends no probe at or above lambda_bar, and the long_horizon bank's systems
check that passes which copy the stages of their turnpike are the
recursion bit for bit, and an online bank pass with eigh's eigenpairs in place of the
2 x 2 closed form does the same work within 1e-12 of the package's
outputs. Each online bank episode falls short of its stage-0 value by
the gaps, losses and slacks of its re-solves. The checker's own self-test runs as shipped, and three failing
episodes of online banks, the benchmark's own among them, are replayed
with some tie completions reflected, against the checker's saddle test.
"""
import ast
import importlib.util
import json
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import stdar
import stdar.scenario
from conftest import make_problem
from oracles import bordered_pass_reference, sda_reference, shortfall_terms

BENCH = pathlib.Path(__file__).resolve().parents[1] / "benchmark"


def api_names():
    # read rather than imported: importing run.py sets BLAS environment
    # variables for the whole process
    tree = ast.parse((BENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "API_NAMES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no API_NAMES in benchmark/run.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_target_and_restores_bindings(rng):
    tracing = load_tracing()
    api = SimpleNamespace(**{name: getattr(stdar, name) for name in api_names()})
    holders = [api] + [getattr(stdar, user) for *_, users in tracing.TARGETS
                       for user in users]
    before = [(h, attr, getattr(h, attr, None))
              for h in holders for _, _, attr, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    try:
        tracer.install(api, stdar)
        wrapped = {attr for _, attr, _ in tracer.saved}
        # every target resolves in its home module; riccati.project_feasible
        # and _kernels.fixed_point_compiled are bound by no package module
        # or api name, as no solve calls them, so their spans count 0
        for _, home, attr, _ in tracing.TARGETS:
            assert callable(getattr(getattr(stdar, home), attr))
        unbound = {"project_feasible", "fixed_point_compiled"}
        assert wrapped == {attr for _, _, attr, _ in tracing.TARGETS} - unbound

        # one Online decision pair as the benchmark makes it: the stage-0
        # gradient mode is passed on to the warm-started stage-1 solve
        p = make_problem(rng, N=3)
        sol = api.solve_multipliers(p, p.x0, k=0, init=None, gradient_mode="auto")
        assert sol.gradient_mode == "envelope"
        u = api.control_at(p, p.x0, 0, sol.lam_star)
        w = api.worst_disturbance_at(p, p.x0, 0, sol.lam_star, u)
        x1 = p.A @ p.x0 + p.B @ u + p.G @ w
        warm = np.array(sol.lam_star.lambdas)[1:]
        sol1 = api.solve_multipliers(p, x1, k=1, init=warm,
                                     gradient_mode=sol.gradient_mode)
        assert sol1.converged
        metrics = tracing.layer_metrics(tracer)
        assert metrics["multiplier.solve_calls"][0] == 2
        assert metrics["policy.control_calls"][0] == 1
        assert metrics["policy.disturbance_calls"][0] == 1
        assert metrics["riccati.sweep_calls"][0] >= 2
    finally:
        tracer.uninstall()
    for holder, attr, fn in before:
        assert getattr(holder, attr, None) is fn


def test_traced_kernel_counts_match_steady_solution(rng):
    # kernels.* are read from the engine under the name the tracer wraps;
    # an engine that no longer runs under that name would leave them at 0
    tracing = load_tracing()
    api = SimpleNamespace(**{name: getattr(stdar, name) for name in api_names()})
    tracer = tracing.Tracer()
    try:
        tracer.install(api, stdar)
        sol = api.solve_steady_state(make_problem(rng, n=3))
        metrics = tracing.layer_metrics(tracer)
    finally:
        tracer.uninstall()
    assert metrics["kernels.fp_calls"][0] == sol.probes > 0
    assert metrics["kernels.fp_iterations"][0] == sol.fp_iterations > 0
    assert metrics["kernels.fp_capped"][0] == sol.capped


def load_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports checker
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def bank_pass(monkeypatch, workload, solver="solve_multipliers"):
    # one pass over a workload's bank with the workload's own run; returns
    # the solutions its calls of the named solver return, the bank and each
    # case's result
    workloads = load_workloads(monkeypatch)
    api = SimpleNamespace(**{name: getattr(stdar, name) for name in api_names()})
    api.begin_op = lambda: None
    solutions = []

    def solve(*args, **kwargs):
        solutions.append(getattr(stdar, solver)(*args, **kwargs))
        return solutions[-1]

    setattr(api, solver, solve)
    wl = getattr(workloads, workload)()
    cases = wl.bank()
    results = []
    for case in cases:
        case.build(api)
        results.append(wl.run(api, case, np.random.default_rng(0)))
    assert len(solutions) == sum(wl.ops(case) for case in cases)
    return solutions, cases, results


def count_stage_norms(monkeypatch):
    # counts the stage steps of riccati's passes and the Frobenius norms
    # they form. A step forms one, of its residual, unless the residual
    # exceeds 1e-8 and the check forms its scale too
    counts = {"steps": 0, "norms": 0}
    step, norm = stdar.riccati._stage_step, stdar.riccati.fro_norm

    def counted_step(*args):
        counts["steps"] += 1
        return step(*args)

    def counted_norm(v):
        counts["norms"] += 1
        return norm(v)

    monkeypatch.setattr(stdar.riccati, "_stage_step", counted_step)
    monkeypatch.setattr(stdar.riccati, "fro_norm", counted_norm)
    return counts


def test_online_bank_counts(monkeypatch):
    # host-independent work of one pass over the online bank, summed over
    # its 72 decisions, counted on the solutions the workload's own solve
    # calls return, pinned exactly as the steady bank's are. Warm re-solves
    # that start at their optimum take their start pass and one gradient,
    # and no trial is rejected on rounding; a tied decision (head multiplier
    # at its bound, g_0 >= 0) takes no head step. The episode-1 stage-0
    # decision, whose slack 10 is free, takes 2 iterations on the secular
    # gradient (8 on the slack gradient, 100 stage steps where it takes 34).
    # Every stage step (507) settles its check on the residual alone
    counts = count_stage_norms(monkeypatch)
    solutions, _, results = bank_pass(monkeypatch, "Online")
    assert counts["norms"] == counts["steps"] == sum(
        sol.stage_steps for sol in solutions)
    assert not any(res.wrong for res in results)
    assert len(solutions) == 72
    # the failed ops are the 12 decisions of episode 1, whose worst-case
    # rollout misses its stage-0 value (the saddle failure, ROADMAP item 3)
    assert [res.failed for res in results] == [0, 12, 0, 0, 0, 0]
    assert all(sol.converged for sol in solutions)
    assert sum(sol.stage_steps for sol in solutions) == 507
    assert sum(sol.iterations for sol in solutions) == 7
    assert sum(sol.gradient_evals for sol in solutions) == 79
    assert sum(sol.adjoint_stages for sol in solutions) == 513
    assert sum(sol.backtracks for sol in solutions) == 0


def test_online_tie_sign_follows_the_plan(monkeypatch):
    # at a tie (head multiplier at its bound) the completion takes the sign
    # of z.d_w, z the top eigenvector of G'Pi G and d_w = G'Pi (Ax + Bu).
    # There d_w = (G'Pi G - lam I) J_0 x, so z.d_w is (lam - b) z.wbar, an
    # O(EPS_BOUNDARY) multiple of the plan's wbar = -J_0 x: at every one of
    # the 71 ties of an online bank pass the two signs agree, and neither
    # is 0, and the returned w, which extends d_w's part along z, has the
    # same sign along z. The rule is pinned here, not changed (ROADMAP item 16)
    ties, decide = [], stdar.worst_disturbance_at

    def record(p, x, k, lam, u):
        sw, w = stdar.sweep(p, lam), decide(p, x, k, lam, u)
        if stdar.riccati.at_bound(lam.lambdas[0], sw.bounds[0]):
            z = sw._eigvecs[0, -1]
            d_w = p.G.T @ (sw.Pi[1] @ (p.A @ x + p.B @ u))
            ties.append((np.sign(z @ d_w), np.sign(-z @ (sw.J[0] @ x)),
                         np.sign(z @ w)))
        return w

    monkeypatch.setattr(stdar, "worst_disturbance_at", record)
    bank_pass(monkeypatch, "Online", "worst_disturbance_at")
    assert len(ties) == 71
    assert all(a == b == c != 0 for a, b, c in ties)


def test_online_shortfall_is_its_gaps(monkeypatch):
    # each episode of the online bank, run by Online.run, falls short of
    # its stage-0 value phi_0 by its gaps, losses and slacks over 2 abar
    # (oracles.shortfall_terms), within 1e-12 of phi_0. Its disturbances
    # are on their spheres, so the slacks are rounding. Episode 1, the one
    # that fails the saddle check, falls 1.8796e-4 short, its gaps 1.8796e-4
    # and its losses 3.2e-10: its re-solves gain on the tails of the
    # earlier solves (ROADMAP items 3 and 17). The other five fall 2.4e-10
    # to 4.3e-10 short, all of it losses at the EPS_BOUNDARY level
    workloads = load_workloads(monkeypatch)
    check_episode = workloads.checker.check_episode
    api = SimpleNamespace(**{name: getattr(stdar, name) for name in api_names()})
    api.begin_op = lambda: None
    seen = {}

    def solve(p, x, **kwargs):
        seen["states"].append(x)
        seen["solutions"].append(stdar.solve_multipliers(p, x, **kwargs))
        return seen["solutions"][-1]

    def control(*args):
        seen["controls"].append(stdar.control_at(*args))
        return seen["controls"][-1]

    def decide(*args):
        seen["disturbances"].append(stdar.worst_disturbance_at(*args))
        return seen["disturbances"][-1]

    def episode(sys, x0, lams0, cost, energy):
        seen["ratio"] = cost / energy
        return check_episode(sys, x0, lams0, cost, energy)

    api.solve_multipliers, api.control_at, api.worst_disturbance_at = solve, control, decide
    monkeypatch.setattr(workloads.checker, "check_episode", episode)
    wl = workloads.Online()
    failed, parts = [], []
    for case in wl.bank():
        seen.update(states=[], solutions=[], controls=[], disturbances=[])
        case.build(api)
        failed.append(wl.run(api, case, np.random.default_rng(0)).failed)
        p, x, u, w = case.problem, *(seen[key][-1] for key in
                                       ("states", "controls", "disturbances"))
        states = np.array(seen["states"] + [p.A @ x + p.B @ u + p.G @ w])
        gaps, losses, slacks = shortfall_terms(p, states, seen["disturbances"],
                                               seen["solutions"])
        phi0 = seen["solutions"][0].value
        gap, loss, slack = (t.sum() / (2.0 * p.alpha_bar) for t in (gaps, losses, slacks))
        assert abs(phi0 - seen["ratio"] - (gap + loss + slack)) <= 1e-12 * phi0
        parts.append((phi0, gap, loss))
    assert failed == [0, 12, 0, 0, 0, 0]
    phi0, gap, loss = np.array(parts).T
    assert gap[1] > 1e-4 and loss.max() < 1e-9
    assert (np.delete(gap, 1) <= 1e-12 * np.delete(phi0, 1)).all()


@pytest.mark.parametrize("bank_seed, case, flipped, tied, lo, hi", [
    (2, 1, range(9), [*range(10), 11], -3.8e-7, -3.6e-7),
    (0, 0, (7,), range(11), -6.6e-7, -6.3e-7),
    (1, 3, (9,), range(12), -2.7e-10, -2.4e-10)],
    ids=["seed2-case1", "seed0-case0", "seed1-case3"])
def test_online_saddle_takes_the_opposite_sign_at_some_ties(monkeypatch, bank_seed,
                                                            case, flipped, tied,
                                                            lo, hi):
    # three failing episodes of Online banks, each replayed through
    # Online.run once with its tie completions reflected in the top
    # eigenvector z of G'Pi G, w -> w - 2(z.w)z, at the listed stages. By
    # default each completes its ties with the plan's sign
    # (test_online_tie_sign_follows_the_plan) and fails the checker:
    # - bank seed 2, case 1, a (3,2,1) plant and the bank's own failing
    #   episode (test_online_bank_counts), ties at stages 0-9 and 11 and
    #   ends 1.19e-4 below its stage-0 value; reflected at stages 0-8 it
    #   keeps every tie and ends 3.70e-7 below it;
    # - bank seed 0, case 0, a (2,2,1) plant, ties at stages 0-10 and ends
    #   2.09e-6 below; reflected at stage 7 alone it keeps every tie and
    #   ends 6.44e-7 below;
    # - bank seed 1, case 3, a (3,3,2) plant, ties at stages 0-10 and ends
    #   2.44e-5 below; reflected at stage 9 alone it ends 2.57e-10 below,
    #   and stage 11 then ties too.
    # The checker accepts each reflected episode: an admissible sequence
    # attains the value, so the episode fails on the tie rule, and at the
    # reflected ties the saddle takes the sign opposite to the plan's
    # wbar = -J_0 x (ROADMAP items 3 and 16); at the other ties it follows
    # the plan. A replay takes tens of ms, but scoring all 2^11 patterns of
    # an episode takes 20-60 s, so only the listed pattern is replayed
    workloads = load_workloads(monkeypatch)
    check_episode, decide = workloads.checker.check_episode, stdar.worst_disturbance_at
    wl = workloads.Online()
    wl.bank_seed = bank_seed
    case = wl.bank()[case]
    api = SimpleNamespace(**{name: getattr(stdar, name) for name in api_names()})
    api.begin_op = lambda: None
    case.build(api)
    ties, verdicts = [], []

    def reflect(p, x, k, lam, u):
        # per tie its stage and the signs of z.w and of z.wbar
        w = decide(p, x, k, lam, u)
        if stdar.riccati.at_bound(lam.lambdas[0], lam.bounds[0]):
            z = lam._eigvecs[0, -1]
            if k in flipped:
                w = w - 2.0 * (z @ w) * z
            ties.append((k, np.sign(z @ w), np.sign(-z @ (lam.J[0] @ x))))
        return w

    def record(sys, x0, lams0, cost, energy):
        # the checker's verdict, and the ratio less the stage-0 value
        # relative to it
        phi0 = workloads.checker.recursion(sys, lams0, x0)[0]
        verdicts.append((check_episode(sys, x0, lams0, cost, energy),
                         (cost / energy - phi0) / phi0))
        return verdicts[-1][0]

    api.worst_disturbance_at = reflect
    monkeypatch.setattr(workloads.checker, "check_episode", record)
    res = wl.run(api, case, np.random.default_rng(0))
    assert not res.wrong and res.failed == 0 and len(verdicts) == 1
    why, rel = verdicts[0]
    assert why is None and lo < rel < hi, rel
    assert [k for k, *_ in ties] == list(tied)
    assert all(sign == (-plan if k in flipped else plan) != 0
               for k, sign, plan in ties)


def test_long_horizon_bank_counts(monkeypatch):
    # the same count over one pass of the long_horizon bank, 6 cold solves
    # from the lower corner. Four end at their corner; the two scalar ops,
    # whose only interior multiplier is the head's, end after their start
    # pass, one head step and one gradient. The N = 40 op, with interior
    # multipliers at stages 0 and 1, takes the descent's work: 2 iterations
    # on the secular gradient, no backtrack (7 and 4 on the slack gradient,
    # 43 stage steps where it takes 23). Each gradient costs N stage
    # updates, 320 over the bank's 8. The cold corner passes settle to a fixed point (n = 1), a 2-cycle (n = 2)
    # and a 10-cycle (n = 3), whose stages they copy: their start passes
    # step 4 of 30, 16 of 40 and 33 of 50 stages, so the bank takes 135
    # stage steps, not the 269 it took when every stage was stepped. The
    # counts are pinned exactly, as the steady bank's are.
    # Every stage step (115) settles its check on the residual alone
    counts = count_stage_norms(monkeypatch)
    solutions, cases, _ = bank_pass(monkeypatch, "LongHorizon")
    assert counts["norms"] == counts["steps"] == sum(
        sol.stage_steps for sol in solutions)
    assert len(solutions) == 6
    assert all(sol.converged for sol in solutions)
    assert sum(sol.stage_steps for sol in solutions) == 115
    assert sum(sol.iterations for sol in solutions) == 2
    assert sum(sol.gradient_evals for sol in solutions) == 8
    assert sum(sol.backtracks for sol in solutions) == 0
    assert all(sol.adjoint_stages == sol.gradient_evals * case.problem.N
               for sol, case in zip(solutions, cases))
    assert sum(sol.adjoint_stages for sol in solutions) == 320


def test_one_pole_model_on_the_iterating_bank_ops(monkeypatch):
    # why the descent runs on the secular gradient gh_j = u_j - alpha_j^-1/2:
    # on the ops of both banks that iterate, the online episode-1 stage-0
    # decision (slack 10 free) and the long_horizon N = 40 op (slacks 0
    # and 1 free), u_j = (alpha_j - 2 alpha_bar g_j)^-1/2, 1/||wbar_j|| in
    # the envelope, is affine in s_j within 1e-4 relative over [0, 2 s_j*],
    # the other slacks held at the optimum's and s_0 at its head step.
    # The online op's increments are 0.208949, 0.208962, 0.208970, ...
    # (4.2e-5 off its chord), the long_horizon op's equal to 1e-15
    workloads = load_workloads(monkeypatch)
    api = SimpleNamespace(**{name: getattr(stdar, name) for name in api_names()})
    checked = []
    for workload, index, free in (("Online", 1, [10]), ("LongHorizon", 2, [0, 1])):
        case = getattr(workloads, workload)().bank()[index]
        case.build(api)
        p, x = case.problem, case.x0
        sol = stdar.solve_multipliers(p, x)
        assert sol.iterations > 0
        sw = sol.lam_star
        s_opt = sw.lambdas - sw.bounds - stdar.riccati.EPS_BOUNDARY
        assert list(np.flatnonzero(s_opt > 1e-6)) == free
        for j in free:
            grid, u = np.linspace(0.0, 2.0 * s_opt[j], 9), []
            for v in grid:
                s = s_opt.copy()
                s[j] = v
                pass_ = stdar.multiplier._reconstruct(p, s, 0)[0]
                if j:
                    s, pass_, _, _ = stdar.multiplier._head_step(
                        p, x, s, pass_, stdar.multiplier._phi(p, x, pass_))
                g = stdar.multiplier._slack_gradient(p, pass_, x)
                u.append((p.alpha[j] - 2.0 * p.alpha_bar * g[j]) ** -0.5)
            u = np.array(u)
            chord = u[0] + (u[-1] - u[0]) * grid / grid[-1]
            assert np.abs(u - chord).max() <= 1e-4 * np.abs(u).min()
            checked.append((workload, j))
    assert len(checked) == 3


def test_steady_bank_counts(monkeypatch):
    # the same count over one pass of the steady bank: the paper's scalar
    # example and 40 random systems, each solved and given its LQR baseline.
    # The scalar example's two probes below its saddle-node end by the
    # doubling's infeasibility exit, a falling ||H_k||_F, after 3 doublings
    # each; run to the 64-doubling cap they made it 1 109 doublings and 2
    # capped probes. The search verifies only the candidate it returns, and
    # each LQR baseline verifies its one
    verified = {"search": 0, "lqr": 0}
    phase = ["search"]
    verify, lqr_baseline = stdar.steady_state.verify, stdar.lqr_baseline

    def counted_verify(*args):
        verified[phase[0]] += 1
        return verify(*args)

    def counted_lqr(p):
        phase[0] = "lqr"
        try:
            return lqr_baseline(p)
        finally:
            phase[0] = "search"

    monkeypatch.setattr(stdar.steady_state, "verify", counted_verify)
    monkeypatch.setattr(stdar, "lqr_baseline", counted_lqr)
    solutions, _, results = bank_pass(monkeypatch, "Steady", "solve_steady_state")
    assert not any(res.wrong or res.failed for res in results)
    assert len(solutions) == 41
    assert sum(sol.probes for sol in solutions) == 232
    assert sum(sol.fp_iterations for sol in solutions) == 988
    assert [sol.capped for sol in solutions] == [0] * 41
    assert verified == {"search": 41, "lqr": 41}


def test_exit_never_ends_a_feasible_probe(monkeypatch):
    # soundness of the doubling's infeasibility exit: ||H_k||_F cannot fall
    # where a fixed point lies in D_lam = {X PSD : ||G'XG|| < lam}, and
    # every lam above the least multiplier has one there, so each probe at
    # or above its solve's lambda_bar ends as the same doubling does without
    # the exit
    # (oracles.sda_reference, exit=False). Checked over the steady bank, the
    # first 40 make_problem(default_rng(9)) systems (test_dare_reference.py's
    # set) and the seven whose first verified candidate failed under the
    # diag(G'H_k G) exit: default_rng(8) 217, 264, 285 and default_rng(9)
    # 68, 71, 389, 521
    fp, probe = stdar._kernels.fixed_point_numpy, stdar.steady_state._probe
    lams, calls = [], []
    monkeypatch.setattr(stdar.steady_state, "_probe",
                        lambda p, lam: lams.append(lam) or probe(p, lam))
    monkeypatch.setattr(stdar.steady_state, "fixed_point_numpy",
                        lambda *args: calls.append((args, fp(*args))) or calls[-1][1])
    cases = load_workloads(monkeypatch).Steady().bank()
    api = SimpleNamespace(ProblemData=stdar.ProblemData,
                          validate_problem=stdar.validate_problem)
    for case in cases:
        case.build(api)
    drawn = {}
    for seed, count in ((8, 286), (9, 522)):
        rng = np.random.default_rng(seed)
        drawn[seed] = [make_problem(rng) for _ in range(count)]
    systems = [case.problem for case in cases] + drawn[9][:40]
    systems += [drawn[8][i] for i in (217, 264, 285)]
    systems += [drawn[9][i] for i in (68, 71, 389, 521)]
    probes = checked = 0
    for p in systems:
        del lams[:], calls[:]
        lam_bar = stdar.solve_steady_state(p).lambda_bar
        assert len(lams) == len(calls)
        probes += len(calls)
        for lam, (args, out) in zip(lams, calls):
            if lam >= lam_bar:
                checked += 1
                assert out[:2] == sda_reference(*args[:4], exit=False)[:2], lam
    assert (len(systems), probes, checked) == (88, 850, 565)


def test_finite_horizon_program_meets_the_steady_state(monkeypatch):
    # the paper's two results meet: with alpha = 1 and x = 0 the nested
    # recursion at margin 0, lam_j = ||G'Pi_{j+1}G|| from Pi_N = Pf, is the
    # finite-horizon program's, and at N = 200 its lam_0 is lambda_bar on
    # the first 12 steady bank systems (the paper's scalar example, n to 24)
    # and on make_problem's default_rng(9) systems 50, 72, 73 and 74 (q = 2
    # or 3, so 200 eigh stages; 2.8e-11, 6.6e-12, 1.7e-11 and 3.7e-13).
    # Left out: system 75 (1.2e-6, about EPS_BOUNDARY / lambda_bar at
    # lambda_bar = 2.7e-4) and the critical systems 68, 71 and 521, where
    # the recursion meets a fixed point whose closed loop is unstable
    names = ("A", "B", "G", "Q", "R", "Pf")
    systems = [[case.sys[k] for k in names]
               for case in load_workloads(monkeypatch).Steady().bank()[:12]]
    rng = np.random.default_rng(9)
    drawn = [make_problem(rng) for _ in range(75)]
    systems += [[getattr(drawn[i], k) for k in names] for i in (50, 72, 73, 74)]
    for system in systems:
        p = stdar.ProblemData(*system, N=200, alpha=1.0)
        sw = stdar.riccati._nested_pass(p, np.full(p.N, -np.inf), 0, 0.0)[0]
        lam_bar = stdar.solve_steady_state(p).lambda_bar
        assert abs(sw.lambdas[0] - lam_bar) <= 1e-9 * lam_bar, p.n


def test_passes_that_copy_are_the_recursion_bit_for_bit(monkeypatch):
    # a pass copies stage i from the first stage j > i it set from the same
    # raw multiplier, slack and bytes of Pi_{j+1} as stage i's Pi_{i+1},
    # and a copy is the recursion: every array the pass stores equals
    # bordered_pass_reference, which steps every stage. The systems are the
    # long_horizon bank's n = 1 (N = 30), n = 2 (N = 40) and n = 3 (N = 50)
    # and scenarios/turnpike.yaml's (N = 100). Their cold corner passes step
    # 4, 16, 33 and 6 stages, then repeat a cycle of period 1, 2, 10 and 3
    # (no shorter one) and copy the rest, each stage from one a whole
    # number of periods above it. The passes are the corner pass, the sweep
    # at its multipliers and the slack pass at s = 0, each of the two with
    # stage 2's input raised by 0.5 (so stage 2 has the Pi bytes of a stage
    # above it but not its raw multiplier or slack, and is stepped, with
    # the two below it), and the slack passes of a cold solve, some of
    # whose trial passes settle and copy on the turnpike too
    eps = stdar.riccati.EPS_BOUNDARY
    nested, reconstruct = stdar.riccati._nested_pass, stdar.multiplier._reconstruct
    cases = load_workloads(monkeypatch).LongHorizon().bank()[::2]
    for case in cases:
        case.build(stdar)
    turnpike = stdar.scenario.load_scenario(BENCH.parent / "scenarios" / "turnpike.yaml")
    trials = []

    def record(p, s, k, base=None):
        trials.append((reconstruct(p, s, k, base), (np.full(s.size, -np.inf), eps, s)))
        return trials[-1][0]

    monkeypatch.setattr(stdar.multiplier, "_reconstruct", record)
    systems = [(case.problem, case.x0) for case in cases] + [
        (turnpike.problem, turnpike.x0_list[1])]
    for (p, x0), (steps, period) in zip(systems, [(4, 1), (16, 2), (33, 10), (6, 3)]):
        lower, slack = np.full(p.N, -np.inf), np.zeros(p.N)
        corner = nested(p, lower, 0, eps)
        assert corner[1:] == (p.N, steps)
        cycle = corner[0].Pi[:p.N - steps + 1]  # the copied stages' inputs and outputs
        assert [np.array_equal(cycle, corner[0].Pi[d:d + cycle.shape[0]])
                for d in range(1, period + 1)] == [False] * (period - 1) + [True]
        raw = np.array(corner[0].lambdas)
        raw[2] += 0.5
        slack[2] = 0.5
        passes = [(corner, (lower, eps)), (nested(p, raw, 0), (raw,)),
                  (reconstruct(p, slack, 0), (lower, eps, slack))]
        trials.clear()
        assert stdar.solve_multipliers(p, x0).converged
        for (sw, _, _), args in passes + trials:
            Pi, KJ, vals, vecs, lam = bordered_pass_reference(p, *args)
            assert np.array_equal(sw.Pi, Pi)
            assert np.array_equal(sw._gains, KJ)
            assert np.array_equal(sw._eigvals, vals)
            assert np.array_equal(sw._eigvecs, vecs)
            assert np.array_equal(sw.lambdas, lam)
        assert [taken for (_, _, taken), _ in passes[1:]] == [steps + 3] * 2
        if p is turnpike.problem:
            assert any(taken < depth for (_, depth, taken), _ in trials)


def test_online_bank_with_eigh_eigenpairs(monkeypatch):
    # the passes' and the head step's eigenpairs taken from eigh instead of
    # eigpairs' closed form: every solve of an online bank pass does the
    # same work, the same ops fail, and the multipliers, values and
    # disturbances agree within 1e-12 relative. Only the two q = 2 episodes
    # reach the 2 x 2 closed form; the four q = 1 episodes agree bit for bit
    def eigh_pairs(M):
        if not np.isfinite(M).all():
            raise ValueError("eigh_pairs of a matrix with non-finite entries")
        w, V = np.linalg.eigh(M)
        return float(w[-1]), w, V.T

    def bank_with_disturbances():
        disturbances, decide = [], stdar.worst_disturbance_at

        def record(*args):
            disturbances.append(decide(*args))
            return disturbances[-1]

        monkeypatch.setattr(stdar, "worst_disturbance_at", record)
        solutions, cases, results = bank_pass(monkeypatch, "Online")
        monkeypatch.setattr(stdar, "worst_disturbance_at", decide)
        return solutions, disturbances, cases, [res.failed for res in results]

    own, own_w, cases, own_failed = bank_with_disturbances()
    monkeypatch.setattr(stdar.riccati, "eigpairs", eigh_pairs)
    monkeypatch.setattr(stdar.multiplier, "eigpairs", eigh_pairs)
    ref, ref_w, _, ref_failed = bank_with_disturbances()
    assert own_failed == ref_failed == [0, 12, 0, 0, 0, 0]
    counts = ("stage_steps", "iterations", "gradient_evals", "adjoint_stages",
              "backtracks", "converged")
    assert len(own) == len(ref) == len(own_w) == len(ref_w) == 72
    for i, (a, b, w_a, w_b) in enumerate(zip(own, ref, own_w, ref_w)):
        assert [getattr(a, c) for c in counts] == [getattr(b, c) for c in counts]
        lam_a, lam_b = a.lam_star.lambdas, b.lam_star.lambdas
        if cases[i // 12].problem.q == 1:
            assert np.array_equal(lam_a, lam_b) and a.value == b.value
            assert np.array_equal(w_a, w_b)
        assert np.abs(lam_a - lam_b).max() <= 1e-12 * np.abs(lam_b).max()
        assert abs(a.value - b.value) <= 1e-12 * abs(b.value)
        assert np.abs(w_a - w_b).max() <= 1e-12 * np.abs(w_b).max()


def test_checker_selftest_passes():
    # the checker accepts the package's real outputs and rejects corrupted
    # ones: benchmark/selftest.py exits 0 only when every case behaves
    run = subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                         cwd=BENCH.parent, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "0 unexpected verdicts" in run.stdout


def short_run(workload):
    # the last JSON line of one short untraced run
    run = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.strip().splitlines()[-1])


def test_long_horizon_run_is_correct():
    # every op solved and passing the checker
    last = short_run("long_horizon")
    assert last["correct"] is True
    assert last["failed"] == 0
    assert last["attempted"] > 0


def test_steady_run_is_correct():
    # every steady-state design solved and passing the checker
    last = short_run("steady")
    assert last["correct"] is True
    assert last["failed"] == 0
    assert last["attempted"] > 0


def test_online_run_is_correct():
    # every decision passes the checker; the failed ops are at most the one
    # episode of six whose worst-case rollout misses its stage-0 value (the
    # saddle failure, ROADMAP item 3). The bound becomes 0 once that is mended
    last = short_run("online")
    assert last["correct"] is True
    assert last["attempted"] > 0
    assert last["failed"] <= last["attempted"] // 6
