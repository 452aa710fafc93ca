"""Self-test of the benchmark's checker: it accepts the package's real
outputs and rejects corrupted ones.

    python3 benchmark/selftest.py

Exits 0 when every case behaves, 1 otherwise.
"""
import sys

import run  # sets the thread environment before numpy loads

stdar = run._import_package()

import numpy as np  # noqa: E402

import checker  # noqa: E402
import workloads  # noqa: E402


def _built(case):
    case.build(run._api(stdar))
    return case


def online_cases():
    """One real decision at stage 0 of a bank plant, then corruptions."""
    wl = workloads.WORKLOADS["online"]
    case = _built(wl.bank()[0])
    p, s, x = case.problem, case.sys, case.x0
    sol = stdar.solve_multipliers(p, x)
    u = stdar.control_at(p, x, 0, sol.lam_star)
    w = stdar.worst_disturbance_at(p, x, 0, sol.lam_star, u)
    lams = np.array(sol.lam_star.lambdas)
    _, bounds, _ = checker.recursion(s, lams, x)
    below = lams.copy()
    below[1] = bounds[1] - 1e-3
    return [
        ("decision as returned", True, checker.check_decision(s, 0, x, lams, sol.value, u, w)),
        ("control sign flipped", False, checker.check_decision(s, 0, x, lams, sol.value, -u, w)),
        ("multiplier below its bound", False,
         checker.check_decision(s, 0, x, below, sol.value, u, w)),
        ("disturbance off its sphere", False,
         checker.check_decision(s, 0, x, lams, sol.value, u, 1.01 * w)),
    ]


def synthesis_cases():
    """A real cold solve on a bank system, then corruptions; the last one
    is consistent in value but not optimal."""
    wl = workloads.WORKLOADS["long_horizon"]
    case = _built(wl.bank()[2])
    p, s, x = case.problem, case.sys, case.x0
    rng = np.random.default_rng(0)
    sol = stdar.solve_multipliers(p, x)
    sw = stdar.sweep(p, sol.lam_star)
    lams = np.array(sol.lam_star.lambdas)
    _, bounds, _ = checker.recursion(s, lams, x)
    below = lams.copy()
    below[0] = bounds[0] - 1e-3
    raised = lams.copy()
    raised[0] += 0.1 * (1.0 + raised[0])
    phi_raised, _, gains_raised = checker.recursion(s, raised, x)
    return [
        ("solve as returned", True, checker.check_synthesis(s, x, lams, sol.value, sw.K, rng)),
        ("multiplier below its bound", False,
         checker.check_synthesis(s, x, below, sol.value, sw.K, rng)),
        ("value off the multipliers", False,
         checker.check_synthesis(s, x, lams, sol.value * (1 + 1e-6), sw.K, rng)),
        ("gain sign flipped", False,
         checker.check_synthesis(s, x, lams, sol.value, [-K for K in sw.K], rng)),
        ("feasible but not optimal", False,
         checker.check_synthesis(s, x, raised, phi_raised, gains_raised, rng)),
    ]


def steady_cases():
    """Real steady-state solves (a random system and the paper's scalar
    example), then corruptions."""
    wl = workloads.WORKLOADS["steady"]
    scalar, rand = (_built(c) for c in wl.bank()[:2])
    out = []
    for case in (rand, scalar):
        sol = stdar.solve_steady_state(case.problem)  # the scalar one is left in sol
        P_lqr = stdar.lqr_baseline(case.problem)
        s, n = case.sys, case.sys["A"].shape[0]
        out += [
            (f"n={n} as returned", True, checker.check_steady(s, sol.lambda_bar, sol.Pi_bar, P_lqr)),
            (f"n={n} Pi_bar perturbed", False,
             checker.check_steady(s, sol.lambda_bar, sol.Pi_bar - 1e-4 * np.eye(n), P_lqr)),
            (f"n={n} lambda_bar below ||G'Pi G||", False,
             checker.check_steady(s, 0.5 * sol.lambda_bar, sol.Pi_bar, P_lqr)),
            (f"n={n} LQR baseline perturbed", False,
             checker.check_steady(s, sol.lambda_bar, sol.Pi_bar, P_lqr * (1 + 1e-6))),
        ]
    out += [
        ("scalar example as returned", True,
         checker.check_scalar_steady(scalar.sys, sol.lambda_bar, sol.Pi_bar)),
        ("scalar example lambda_bar shifted", False,
         checker.check_scalar_steady(scalar.sys, sol.lambda_bar + 1e-5, sol.Pi_bar)),
    ]
    return out


def main():
    bad = 0
    for label, should_pass, why in online_cases() + synthesis_cases() + steady_cases():
        ok = (why is None) == should_pass
        bad += not ok
        verdict = "accepted" if why is None else f"rejected ({why})"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}")
    print(f"{bad} unexpected verdicts")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
