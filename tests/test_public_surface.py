"""The package's public surface, and the README example that uses it."""
import argparse
import ast
import dataclasses
import importlib
import inspect
import pathlib
import re

import numpy as np
import pytest

import stdar
from stdar.cli import _build_parser

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = pathlib.Path(stdar.__file__).resolve().parent

PUBLIC = [
    "AssumptionViolated", "DimensionMismatch", "Diverged",
    "InfeasibleMultiplier", "LmiCertificate", "MultiplierSolution",
    "MultiplierVector", "NoFeasibleLambda", "NoSphereIntersection",
    "ProblemData", "RegulatorError", "RiccatiSweep", "ScenarioError",
    "SingularM", "SingularPi", "SteadyStateSolution", "Trajectory",
    "ValidationReport", "control_at", "lmi_certify", "lqr_baseline",
    "objective", "rollout", "solve_multipliers", "solve_steady_state",
    "sweep", "validate_problem", "worst_disturbance_at",
]


def _subcommands():
    """The long options of each subcommand, by its name."""
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {opt for a in parser._actions for opt in a.option_strings
                   if opt.startswith("--")} - {"--help"}
            for name, parser in sub.choices.items()}


def test_public_surface():
    assert sorted(stdar.__all__) == PUBLIC
    # the scenario layer is the command line's, imported from its module
    for name in ("ScenarioFile", "load_scenario", "save_scenario"):
        assert not hasattr(stdar, name), name
        assert getattr(importlib.import_module("stdar.scenario"), name)
    for name in PUBLIC:
        assert getattr(stdar, name) is not None
    # the steady state has one probe, steady_state._probe; the projection
    # stays in riccati, where no solver calls it
    for module, name in ((stdar, "project_feasible"),
                         (stdar.steady_state, "_double"),
                         (stdar.steady_state, "_prober"),
                         (stdar.steady_state, "_sqrt_psd"),
                         (stdar._kernels, "coupling"),
                         (stdar._kernels, "couplings"),
                         (stdar.problem, "_pbh_unit_circle_rank")):
        assert not hasattr(module, name), name
    # an error carries its message alone, and a certificate holds no copy
    # of the multiplier its caller passed in
    assert not hasattr(stdar.AssumptionViolated("R positive definite: x"), "which")
    assert [f.name for f in dataclasses.fields(stdar.LmiCertificate)] == [
        "P", "F", "assembled", "feasible"]
    # a pass is the multiplier vector it set and keeps what its readers
    # read, and the doubling's stop rule (_FP_TOL, _FP_MAX_DOUBLINGS) lives
    # in _kernels alone; its infeasibility exit, a falling ||H_k||_F, needs
    # no constant of its own
    assert issubclass(stdar.RiccatiSweep, stdar.MultiplierVector)
    one = np.array([[1.0]])
    p = stdar.ProblemData(A=one, B=one, G=one, Q=one, R=one, Pf=one, N=2,
                          alpha=1.0, x0=np.ones(1))
    assert list(vars(stdar.solve_multipliers(p, p.x0).lam_star)) == [
        "lambdas", "stage_offset", "Pi", "K", "J", "bounds", "_eigvals",
        "_eigvecs", "_gains", "_problem"]
    for fn, params in ((stdar._kernels.fixed_point_numpy, "A Q Z x0 cap eye"),
                       (stdar._kernels.verify, "A Q Z X scale")):
        assert list(inspect.signature(fn).parameters) == params.split()
    for name in ("_FP_TOL", "_FP_MAX_DOUBLINGS"):
        assert hasattr(stdar._kernels, name)
        assert not hasattr(stdar.steady_state, name), name
    for name in ("_FP_EXIT_FROM", "_FP_EXIT_MARGIN"):
        assert not hasattr(stdar._kernels, name), name
    # the tolerances are module constants where they are read, not a setting
    assert not hasattr(stdar, "Tolerances")
    assert not hasattr(stdar.problem, "_DEFAULT_TOL")
    for name in stdar.__all__:
        obj = getattr(stdar, name)
        if inspect.isfunction(obj):
            assert "tol" not in inspect.signature(obj).parameters, name
    assert hasattr(stdar.ProblemData, "alpha_bar")
    assert [f.name for f in dataclasses.fields(stdar.MultiplierSolution)] == [
        "lam_star", "value", "grad_norm", "boundary_flags", "iterations",
        "converged", "stage_steps", "gradient_evals", "adjoint_stages",
        "backtracks"]
    # the one gradient mode is a class attribute that callers still read
    assert stdar.MultiplierSolution.gradient_mode == "envelope"
    assert list(inspect.signature(stdar.solve_multipliers).parameters) == [
        "p", "x", "k", "init", "gradient_mode"]
    assert [f.name for f in dataclasses.fields(stdar.SteadyStateSolution)] == [
        "lambda_bar", "Pi_bar", "K_bar", "residual", "boundary_gap",
        "lmi_feasible", "probes", "fp_iterations", "capped"]
    assert not hasattr(stdar.ProblemData, "schedule")
    assert "W" not in {f.name for f in dataclasses.fields(stdar.ProblemData)}
    assert not hasattr(stdar.Trajectory, "to_csv")  # cli writes rollout.csv
    # a Trajectory keeps its re-solves; the per-stage counts are read off them
    assert [f.name for f in dataclasses.fields(stdar.Trajectory)] == [
        "states", "controls", "disturbances", "stage_costs", "terminal_cost",
        "value_ratio", "solutions"]
    assert [f.name for f in dataclasses.fields(stdar.ValidationReport)] == [
        "stabilizable", "detectable", "strict_weights", "degenerate_terminal",
        "warnings"]
    for fn, removed in ((stdar.rollout, ("gradient_mode", "max_iter", "x0")),
                        (stdar.solve_multipliers, ("max_iter",)),
                        (stdar.lqr_baseline, ("rtol", "max_iter"))):
        params = inspect.signature(fn).parameters
        assert not any(name in params for name in removed), fn.__name__
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("stdar.sphere_qp")
    for flag in ("--tol-fd-step", "--tol-psd"):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["validate", "--scenario", "s.yaml", flag, "1e-6"])
    # the scenario file sets the whole run: every subcommand takes
    # --scenario, and those that write take --out, which validate does not
    flags = _subcommands()
    assert not [name for name in flags if "--seed" in flags[name]]
    assert flags["validate"] == {"--scenario"}
    assert sum(map(len, flags.values())) == 11


def test_readme_synopsis_matches_the_parser():
    # README's command-line synopsis has one line per subcommand, and its
    # flags are the options that subcommand takes, no more and no fewer
    section = README.read_text().split("## Command line", 1)[1]
    documented = {line.split()[1]: set(re.findall(r"--[\w-]+", line))
                  for line in section.split("```", 2)[1].splitlines()
                  if line.startswith("stdar ")}
    flags = _subcommands()
    assert len(flags) == 6 and documented.keys() == flags.keys()
    for name, options in flags.items():
        assert options == documented[name], name


def test_every_exported_error_is_raised():
    # a static scan of the package: each exported RegulatorError subclass
    # appears in some raise statement, so no error type outlives its raiser
    raised = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    exported = (getattr(stdar, name) for name in stdar.__all__)
    errors = {e.__name__ for e in exported if isinstance(e, type)
              and issubclass(e, stdar.RegulatorError)} - {"RegulatorError"}
    assert errors and errors <= raised, sorted(errors - raised)


def test_only_cli_and_scenario_write_files():
    # a static scan of the package: open in a write mode (any mode but
    # r, b and t, or one not spelt out) appears only in cli, which writes
    # the run's outputs, and scenario, whose save_scenario writes a file
    writers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "open"):
                continue
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), None)
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and set(mode.value) <= set("rbt")):
                writers.add(path.stem)
    assert "cli" in writers and writers <= {"cli", "scenario"}, sorted(writers)


def test_readme_library_example(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    assert len(capsys.readouterr().out.strip().splitlines()) == 3
