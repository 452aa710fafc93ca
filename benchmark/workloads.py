"""Benchmark inputs and operations, one class per workload.

Each workload's inputs are a fixed bank, drawn once from the workload's
bank seed; the run's seed shuffles the order of the ops in every pass and
draws the checker's random perturbations. The package's cost is chaotic in
its inputs: a rounding-level change (the same 3x3 system in other
orthogonal coordinates) moves one cold solve from 3 to 14 iterations and
from 2 s to 10 s, and one random 3x3 steady-state system in some 250 takes
7.6 s instead of 50 ms. A run over fresh random inputs therefore cannot
repeat; over a fixed bank every run does the same work.

A run makes several passes over the bank (`passes`), so that each op is
timed more than once. Each op is timed on its own, in CPU time of the
process; the checks against `checker` run outside the timed region. An op
that raises counts as failed; an op whose output fails a check makes the
run incorrect.
"""
from __future__ import annotations

import time

import numpy as np

import checker

_PAPER_SCALAR = dict(A=1.0, B=1.0, G=1.0, Q=0.2, R=1.0, Pf=1.0)


def _scaled(rng, n, radius):
    A = rng.standard_normal((n, n))
    return A * (radius / float(np.abs(np.linalg.eigvals(A)).max()))


def _pd(rng, n, floor):
    C = rng.standard_normal((n, n))
    return C.T @ C / n + floor * np.eye(n)


def _system(A, B, G, Q, R, Pf, alpha):
    mat = lambda v: np.atleast_2d(np.asarray(v, dtype=float))
    return dict(A=mat(A), B=mat(B), G=mat(G), Q=mat(Q), R=mat(R), Pf=mat(Pf),
                alpha=np.atleast_1d(np.asarray(alpha, dtype=float)))


class Case:
    """One problem: the raw arrays the checker reads and the package's
    ProblemData built from them during set-up."""

    def __init__(self, sys, x0, degenerate=False, scalar_reference=False):
        self.sys = sys
        self.x0 = x0
        self.degenerate = degenerate
        self.scalar_reference = scalar_reference
        self.problem = None

    def build(self, api):
        s = self.sys
        self.problem = api.ProblemData(A=s["A"], B=s["B"], G=s["G"], Q=s["Q"],
                                       R=s["R"], Pf=s["Pf"], N=s["alpha"].size,
                                       alpha=s["alpha"], x0=self.x0)
        api.validate_problem(self.problem,
                             allow_degenerate_terminal=self.degenerate)


class Result:
    """Op times of one group, with failures and check failures."""

    def __init__(self):
        self.times = []
        self.failed = 0
        self.faults = []    # why ops failed
        self.wrong = []     # outputs that failed a check


class _Bank:
    # CPU seconds one pass over the bank takes on an idle machine
    pass_seconds = 1.0

    def passes(self, seconds):
        """Passes over the bank in a run of about `seconds`, at least two."""
        return max(2, round(seconds / self.pass_seconds))


class Online(_Bank):
    """Closed-loop worst-case episodes; one op is one control decision.

    On some of these plants the worst-case rollout falls short of the
    stage-0 value the controller was solved for, a fault of the package
    (see README.md). Those episodes fail the saddle check in every run and
    every decision in them counts as failed.
    """

    name = "online"
    horizon = 12
    # (n, m, q): states, inputs, disturbance channels, cycled over episodes
    shapes = ((2, 2, 1), (3, 2, 1), (3, 3, 1), (3, 3, 2), (4, 2, 1), (4, 3, 2))
    rounds = 1          # episodes: rounds x len(shapes)
    # One round from seed 2 takes about 6 CPU s: five quick episodes and a
    # slow one (about 4.7 s) that fails the saddle check. The first plant of
    # seed 0 alone takes about 12 s, too long to time it more than once.
    bank_seed = 2
    pass_seconds = 6.0

    def bank(self):
        rng = np.random.default_rng(self.bank_seed)
        cases = []
        for i in range(self.rounds * len(self.shapes)):
            n, m, q = self.shapes[i % len(self.shapes)]
            B = rng.standard_normal((n, m))
            G = 0.5 * B @ rng.standard_normal((m, q))
            sys = _system(_scaled(rng, n, rng.uniform(0.6, 1.0)), B, G,
                          _pd(rng, n, 0.1), _pd(rng, m, 0.5), _pd(rng, n, 0.1),
                          rng.uniform(0.2, 1.0, self.horizon))
            cases.append(Case(sys, rng.standard_normal(n)))
        return cases

    def warmup_case(self):
        sys = _system([[0.9, 0.2], [0.0, 0.8]], [[1.0, 0.0], [0.0, 1.0]],
                      [[0.3], [0.1]], np.eye(2), np.eye(2), np.eye(2), [0.5, 0.5, 0.5])
        return Case(sys, np.array([1.0, -1.0]))

    def ops(self, case):
        return case.sys["alpha"].size

    def run(self, api, case, rng):
        p, s = case.problem, case.sys
        res = Result()
        x = case.x0.copy()
        warm, mode = None, "auto"
        cost, energy, lams0 = 0.0, 0.0, None
        for k in range(p.N):
            api.begin_op()
            t0 = time.process_time()
            try:
                sol = api.solve_multipliers(p, x, k=k, init=warm, gradient_mode=mode)
                u = api.control_at(p, x, k, sol.lam_star)
                w = api.worst_disturbance_at(p, x, k, sol.lam_star, u)
            except api.RegulatorError:
                res.failed += p.N - k
                return res
            res.times.append(time.process_time() - t0)
            lams = np.array(sol.lam_star.lambdas)
            why = checker.check_decision(s, k, x, lams, sol.value, u, w)
            if why:
                res.wrong.append(why)
            if k == 0:
                lams0 = lams
                if sol.gradient_mode in ("fd", "envelope"):
                    mode = sol.gradient_mode  # as rollout: reuse the stage-0 gate
            cost += 0.5 * float(x @ s["Q"] @ x + u @ s["R"] @ u)
            energy += float(w @ w)
            x = s["A"] @ x + s["B"] @ u + s["G"] @ w
            warm = lams[1:] if k < p.N - 1 else None
        cost += 0.5 * float(x @ s["Pf"] @ x)
        why = checker.check_episode(s, case.x0, lams0, cost, energy)
        if why:
            # the worst-case rollout misses the value the controller was
            # solved for: every decision of the episode counts as failed
            res.failed += p.N
            res.faults.append(why)
        return res


class LongHorizon(_Bank):
    """Cold full-horizon synthesis: the multiplier program and the sweep at
    its optimum, which gives the gain schedule."""

    name = "long_horizon"
    # (n, terminal weight Pf = I or 0, horizon N) of the bank's systems;
    # each is solved from x0_per_system initial states
    bank_spec = ((1, "0", 30), (2, "I", 40), (3, "0", 50))
    x0_per_system = 2
    bank_seed = 1
    pass_seconds = 9.0

    def bank(self):
        rng = np.random.default_rng(self.bank_seed)
        cases = []
        for n, term, N in self.bank_spec:
            if n == 1:
                A = [[rng.uniform(0.7, 1.1)]]
                B = [[rng.uniform(0.7, 1.3)]]
                G = [[rng.uniform(0.5, 1.0)]]
                Q = [[rng.uniform(0.1, 0.5)]]
                R = [[rng.uniform(0.5, 1.5)]]
            else:
                B = rng.standard_normal((n, n))
                A = _scaled(rng, n, rng.uniform(0.7, 1.05))
                G = 0.5 * B @ rng.standard_normal((n, 1))
                Q, R = _pd(rng, n, 0.1), _pd(rng, n, 0.5)
            Pf = np.eye(n) if term == "I" else np.zeros((n, n))
            sys = _system(A, B, G, Q, R, Pf, rng.uniform(0.5, 1.5, N))
            cases += [Case(sys, 2.0 * rng.standard_normal(n), degenerate=(term == "0"))
                      for _ in range(self.x0_per_system)]
        return cases

    def warmup_case(self):
        sys = _system([[1.0]], [[1.0]], [[1.0]], [[0.2]], [[1.0]], [[1.0]], [1.0] * 4)
        return Case(sys, np.array([2.0]))

    def ops(self, case):
        return 1

    def run(self, api, case, rng):
        p = case.problem
        res = Result()
        api.begin_op()
        t0 = time.process_time()
        try:
            sol = api.solve_multipliers(p, case.x0)
            sw = api.sweep(p, sol.lam_star)
        except api.RegulatorError:
            res.failed = 1
            return res
        res.times.append(time.process_time() - t0)
        why = checker.check_synthesis(case.sys, case.x0, np.array(sol.lam_star.lambdas),
                                      sol.value, sw.K, rng)
        if why:
            res.wrong.append(why)
        return res


class Steady(_Bank):
    """Steady-state design as `stdar steady` runs it: the steady-state
    solve (bisection, fixed point, LMI certificate) and the LQR baseline,
    on the paper's scalar example and on random multivariable systems."""

    name = "steady"
    sizes = (2, 3, 4, 6, 8, 12, 16, 24)   # n of the random systems, cycled
    # random systems: rounds x len(sizes). The scalar example sends its
    # infeasible probes to the fixed-point cap (about 7 s); so does the 41st
    # random system of seed 0, a 2x2 one, which five rounds leave out so
    # that a pass stays near 9 s.
    rounds = 5
    bank_seed = 0
    pass_seconds = 9.0

    def bank(self):
        rng = np.random.default_rng(self.bank_seed)
        cases = [Case(_system(*(_PAPER_SCALAR[k] for k in ("A", "B", "G", "Q", "R", "Pf")),
                              [1.0]), np.array([1.0]), scalar_reference=True)]
        for i in range(self.rounds * len(self.sizes)):
            cases.append(self._random(rng, self.sizes[i % len(self.sizes)]))
        return cases

    def _random(self, rng, n):
        eye = np.eye(n)
        sys = _system(_scaled(rng, n, rng.uniform(0.5, 0.95)), eye, eye,
                      _pd(rng, n, 0.5), eye, eye, [1.0])
        return Case(sys, np.zeros(n))

    def warmup_case(self):
        return self._random(np.random.default_rng(0), 3)

    def ops(self, case):
        return 1

    def run(self, api, case, rng):
        p = case.problem
        res = Result()
        api.begin_op()
        t0 = time.process_time()
        try:
            sol = api.solve_steady_state(p)
            P_lqr = api.lqr_baseline(p)
        except api.RegulatorError:
            res.failed = 1
            return res
        res.times.append(time.process_time() - t0)
        why = checker.check_steady(case.sys, sol.lambda_bar, sol.Pi_bar, P_lqr)
        if not why and case.scalar_reference:
            why = checker.check_scalar_steady(case.sys, sol.lambda_bar, sol.Pi_bar)
        if why:
            res.wrong.append(why)
        return res


WORKLOADS = {w.name: w for w in (Online(), LongHorizon(), Steady())}
