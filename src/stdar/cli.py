"""Command-line interface.

Subcommands: validate, finite, policy-curve, rollout, steady, bench. Each
reads a scenario file and returns exit code 0 on success, 2 on validation
failure, 3 on solver non-convergence; all but validate write CSV outputs
into the run's output directory (overridable with --out). Floats are
emitted with 17 significant digits so files re-parse bit-for-bit.
"""
from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from ._linalg import top_eig
from .errors import (AssumptionViolated, DimensionMismatch, Diverged,
                     RegulatorError, ScenarioError)
from .multiplier import solve_multipliers
from .policy import rollout
from .problem import ProblemData, validate_problem
from .scenario import load_scenario
from .steady_state import lqr_baseline, solve_steady_state


def _fmt(v) -> str:
    return f"{float(v):.17g}"


def _write_csv(path, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _load(args):
    """Load the scenario and validate its problem, printing the warnings."""
    sc = load_scenario(args.scenario)
    report = validate_problem(sc.problem,
                              allow_degenerate_terminal=sc.allow_degenerate_terminal)
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return sc


def _out_dir(args, sc) -> str:
    """Make the output directory, after the command's checks of sc."""
    out = args.out if args.out is not None else sc.out
    os.makedirs(out, exist_ok=True)
    return out


def cmd_validate(args) -> int:
    p = _load(args).problem
    print(f"ok: n={p.n} m={p.m} q={p.q} N={p.N}")
    return 0


def _pi_header(n: int) -> list:
    return [f"Pi[{r}][{c}]" for r in range(n) for c in range(n)]


def cmd_finite(args) -> int:
    sc = _load(args)
    out = _out_dir(args, sc)
    p = sc.problem
    x0s = list(sc.x0_list) if sc.x0_list else [p.x0]
    summary_rows = []
    failures = not_converged = 0
    for i, x0 in enumerate(x0s):
        try:
            sol = solve_multipliers(p, x0)
        except RegulatorError as exc:
            failures += 1
            summary_rows.append([str(i)] + [_fmt(v) for v in x0]
                                + [""] * 8 + [f'"{exc}"'])
            continue
        not_converged += not sol.converged
        sw = sol.lam_star
        lams = sw.lambdas
        rows = []
        for k in range(p.N + 1):
            tail = float(p.alpha[k:] @ lams[k:]) if k < p.N else 0.0
            val = (float(x0 @ sw.Pi[k] @ x0) + tail) / (2.0 * p.alpha_bar)
            lam_cell = _fmt(lams[k]) if k < p.N else ""
            rows.append([str(k)] + [_fmt(v) for v in sw.Pi[k].ravel()]
                        + [lam_cell, _fmt(val)])
        _write_csv(os.path.join(out, f"finite_x0_{i}.csv"),
                   ["k"] + _pi_header(p.n) + ["lambda_k", "value"], rows)
        summary_rows.append([str(i)] + [_fmt(v) for v in x0]
                            + [_fmt(sol.value), _fmt(sol.grad_norm),
                               str(sol.iterations), str(sol.converged),
                               str(sol.stage_steps), str(sol.gradient_evals),
                               str(sol.adjoint_stages), str(sol.backtracks), ""])
    _write_csv(os.path.join(out, "finite_summary.csv"),
               ["i"] + [f"x0[{j}]" for j in range(p.n)]
               + ["value", "grad_norm", "iterations", "converged",
                  "stage_steps", "gradient_evals", "adjoint_stages", "backtracks",
                  "error"],
               summary_rows)
    if failures or not_converged:
        print(f"{failures} of {len(x0s)} initial states failed, "
              f"{not_converged} did not converge", file=sys.stderr)
        return 3
    return 0


def cmd_policy_curve(args) -> int:
    sc = _load(args)
    p = sc.problem
    if p.n != 1 or p.m != 1:
        raise ScenarioError("policy-curve needs a scalar system (n = m = 1)")
    if sc.grid is None:
        raise ScenarioError("policy-curve needs run.grid (lo, hi, points)")
    out = _out_dir(args, sc)
    lo, hi, pts = sc.grid
    xs = np.linspace(lo, hi, pts)
    # solve once per |x|: the program depends on x only through x^2, so
    # sharing the multiplier across the sign pair makes the curve exactly odd
    order = np.argsort(np.abs(xs), kind="stable")
    gains: dict = {}
    init = None
    not_converged = 0
    for idx in order:
        key = abs(float(xs[idx]))
        if key in gains:
            continue
        sol = solve_multipliers(p, np.array([key]), init=init)
        gains[key] = float(sol.lam_star.K[0][0, 0])
        not_converged += 0 if sol.converged else 1
        init = sol.lam_star.lambdas
    rows = [[_fmt(x), _fmt(-gains[abs(float(x))] * float(x))] for x in xs]
    _write_csv(os.path.join(out, "policy_curve.csv"), ["x0", "u0"], rows)
    if not_converged:
        print(f"{not_converged} grid points did not converge", file=sys.stderr)
        return 3
    return 0


def cmd_rollout(args) -> int:
    sc = _load(args)
    p = sc.problem
    w_seq = None
    if sc.rollout_mode == "external":
        if sc.w_file is None:
            raise ScenarioError("rollout_mode external needs run.w_file")
        w_seq = np.loadtxt(sc.w_file, delimiter=",", ndmin=2)
    tr = rollout(p, mode=sc.rollout_mode, w_seq=w_seq)  # checks w_seq first
    out = _out_dir(args, sc)
    header = (["k"] + [f"x[{i}]" for i in range(p.n)]
              + [f"u[{i}]" for i in range(p.m)] + [f"w[{i}]" for i in range(p.q)]
              + ["lambda_k", "stage_cost", "iterations", "stage_steps", "converged"])
    rows = [[str(k)] + [_fmt(v) for v in np.concatenate(
                [tr.states[k], tr.controls[k], tr.disturbances[k],
                 [tr.multipliers[k], tr.stage_costs[k]]])]
            + [str(tr.iterations[k]), str(tr.stage_steps[k]),
               str(bool(tr.stage_converged[k]))] for k in range(p.N)]
    # the terminal row carries x_N and the terminal cost
    rows.append([str(p.N)] + [_fmt(v) for v in tr.states[p.N]]
                + [""] * (p.m + p.q + 1) + [_fmt(tr.terminal_cost), "", "", ""])
    _write_csv(os.path.join(out, "rollout.csv"), header, rows)
    print(f"total cost {tr.total_cost:.12g}  ratio {tr.value_ratio:.12g}  "
          f"converged {tr.converged}")
    if not tr.converged:
        return 3
    return 0


def cmd_steady(args) -> int:
    sc = _load(args)
    p = sc.problem
    sol = solve_steady_state(p)
    out = _out_dir(args, sc)
    try:
        lqr_top = top_eig(lqr_baseline(p))
    except Diverged:
        lqr_top = float("nan")
    header = (["lambda_bar", "residual", "boundary_gap", "lmi_min_eig",
               "lqr_top_eig"] + _pi_header(p.n)
              + [f"K[{r}][{c}]" for r in range(p.m) for c in range(p.n)]
              + ["probes", "fp_iterations", "capped"])
    row = ([_fmt(sol.lambda_bar), _fmt(sol.residual), _fmt(sol.boundary_gap),
            _fmt(sol.lmi_min_eig), _fmt(lqr_top)]
           + [_fmt(v) for v in sol.Pi_bar.ravel()]
           + [_fmt(v) for v in sol.K_bar.ravel()]
           + [str(sol.probes), str(sol.fp_iterations), str(sol.capped)])
    _write_csv(os.path.join(out, "steady.csv"), header, [row])
    print(f"lambda_bar {sol.lambda_bar:.12g}  boundary_gap {sol.boundary_gap:.3e}  "
          f"lmi_min_eig {sol.lmi_min_eig:.3e}")
    return 0


def _random_stable(rng: np.random.Generator, n: int) -> ProblemData:
    A = rng.standard_normal((n, n))
    rho = float(np.abs(np.linalg.eigvals(A)).max())
    A *= 0.9 / rho
    eye = np.eye(n)
    return ProblemData(A=A, B=eye, G=eye, Q=eye, R=eye, Pf=eye, N=1, alpha=1.0)


def cmd_bench(args) -> int:
    sc = _load(args)
    out = _out_dir(args, sc)
    rng = np.random.default_rng(sc.seed)
    solve_steady_state(_random_stable(rng, 2))  # untimed: first-call costs
    rng = np.random.default_rng(sc.seed)        # timed instances
    done = []  # (n, median seconds, median probes, median doublings) per size solved
    for n in sc.sizes:
        runs = []
        for _ in range(sc.instances):
            prob = _random_stable(rng, n)
            t0 = time.perf_counter()
            try:
                sol = solve_steady_state(prob)
            except RegulatorError as exc:
                print(f"n={n}: {exc}", file=sys.stderr)
                continue
            runs.append((time.perf_counter() - t0, sol.probes, sol.fp_iterations))
        if runs:
            done.append((n, *np.median(runs, axis=0).tolist()))
    _write_csv(os.path.join(out, "bench.csv"),
               ["n", "median_s", "probes", "fp_iterations"],
               [[str(n)] + [_fmt(v) for v in meds] for n, *meds in done])
    if len(done) >= 2:
        sizes, meds, *_ = zip(*done)
        slope = float(np.polyfit(np.log(sizes), np.log(meds), 1)[0])
        report = f"fitted exponent: {slope:.4f}"
    else:
        report = "fitted exponent: undefined (need at least two sizes)"
    with open(os.path.join(out, "bench_report.txt"), "w") as fh:
        fh.write(report + "\n")
    print(report)
    return 0 if done else 3


def _build_parser() -> argparse.ArgumentParser:
    # the scenario sets the whole run; a subcommand that writes takes --out
    reads = argparse.ArgumentParser(add_help=False)
    reads.add_argument("--scenario", required=True, help="scenario YAML path")
    writes = argparse.ArgumentParser(add_help=False, parents=[reads])
    writes.add_argument("--out", default=None, help="output directory override")
    ap = argparse.ArgumentParser(
        prog="stdar",
        description="Stage-bound disturbance attenuation regulator toolkit")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn, flags, text in (
            ("validate", cmd_validate, reads, "check problem assumptions"),
            ("finite", cmd_finite, writes, "finite-horizon solves over x0_list"),
            ("policy-curve", cmd_policy_curve, writes, "u0*(x0) over a grid"),
            ("rollout", cmd_rollout, writes, "closed-loop simulation"),
            ("steady", cmd_steady, writes, "steady-state solve with LMI certificate"),
            ("bench", cmd_bench, writes, "complexity benchmark")):
        sub.add_parser(name, parents=[flags], help=text).set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ScenarioError, AssumptionViolated, DimensionMismatch,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RegulatorError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
