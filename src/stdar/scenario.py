"""Scenario files: one YAML document describing a problem and a run.

Layout:

    problem:
      A: [[...]]          # n x n
      B: [[...]]          # n x m
      G: [[...]]          # n x q
      Q: [[...]]          # n x n
      R: [[...]]          # m x m
      Pf: [[...]]         # n x n
      N: 100
      alpha: 1.0          # scalar or list of N
      x0: [1.0]           # optional
    run:
      mode: finite        # finite | steady | rollout | bench | policy_curve
      out: results        # output directory
      seed: 0
      x0_list: [[1.0], [3.0]]                 # finite
      grid: {lo: -2.0, hi: 2.0, points: 401}  # policy_curve
      rollout_mode: worst_case                # rollout; w_file for external
      sizes: [6, 10, 14]                      # bench
      instances: 4                            # bench
      allow_degenerate_terminal: true

Serialization round-trips: floats are written in shortest-exact form, so
parse -> save -> parse is the identity.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import yaml

from .errors import ScenarioError
from .problem import ProblemData

_MODES = ("finite", "steady", "rollout", "bench", "policy_curve")
_ROLLOUT_MODES = ("worst_case", "zero", "external")


@dataclass(frozen=True)
class ScenarioFile:
    problem: ProblemData
    mode: str
    out: str = "."
    seed: int = 0
    x0_list: tuple = ()
    grid: tuple | None = None          # (lo, hi, points)
    rollout_mode: str = "worst_case"
    w_file: str | None = None
    sizes: tuple = (2, 6, 10, 14, 18, 22, 26, 30, 34, 38, 42, 46, 50,
                    54, 58, 62, 66, 70, 74, 78)
    instances: int = 4
    allow_degenerate_terminal: bool = False


def _need(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ScenarioError(f"missing key {key!r} in {where}")
    return mapping[key]


def _integer(v) -> int:
    """A YAML integer, or a float with an integral value; not a boolean."""
    if type(v) is int or isinstance(v, float) and v.is_integer():
        return int(v)
    raise ValueError(f"{v!r} is not an integer")


def _boolean(v) -> bool:
    if type(v) is not bool:  # a string such as "false" is no flag
        raise ValueError(f"{v!r} is not true or false")
    return v


def _run_value(run: dict, key: str, default, convert, path):
    try:
        return convert(run.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{path}: bad run.{key}: {exc}") from None


def load_scenario(path) -> ScenarioFile:
    """Parse a scenario YAML file; errors carry a line number when the
    parser provides one, and the key of a value of the wrong type."""
    with open(path) as fh:
        text = fh.read()
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"line {mark.line + 1}" if mark is not None else "unknown line"
        raise ScenarioError(f"{path}: parse error at {where}: {exc}") from None
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: top level must be a mapping")
    prob = _need(doc, "problem", "scenario")
    run = doc.get("run", {})
    if not isinstance(prob, dict) or not isinstance(run, dict):
        raise ScenarioError(f"{path}: 'problem' and 'run' must be mappings")

    try:
        kwargs = dict(
            A=np.array(_need(prob, "A", "problem"), dtype=float),
            B=np.array(_need(prob, "B", "problem"), dtype=float),
            G=np.array(_need(prob, "G", "problem"), dtype=float),
            Q=np.array(_need(prob, "Q", "problem"), dtype=float),
            R=np.array(_need(prob, "R", "problem"), dtype=float),
            Pf=np.array(_need(prob, "Pf", "problem"), dtype=float),
            N=int(_need(prob, "N", "problem")),
            alpha=prob.get("alpha", 1.0),
        )
        if "x0" in prob:
            kwargs["x0"] = np.array(prob["x0"], dtype=float)
        problem = ProblemData(**kwargs)
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{path}: bad problem data: {exc}") from None

    mode = run.get("mode", "finite")
    if mode not in _MODES:
        raise ScenarioError(f"{path}: unknown run mode {mode!r}")
    rollout_mode = run.get("rollout_mode", "worst_case")
    if rollout_mode not in _ROLLOUT_MODES:
        raise ScenarioError(f"{path}: unknown rollout mode {rollout_mode!r}")
    grid = None
    if "grid" in run:
        g = run["grid"]
        try:
            grid = (float(g["lo"]), float(g["hi"]), _integer(g["points"]))
        except (TypeError, KeyError, ValueError) as exc:
            raise ScenarioError(f"{path}: run.grid needs lo, hi, points ({exc})") from None
        if grid[2] < 1:
            raise ScenarioError(f"{path}: run.grid needs at least one point")
    x0_list = _run_value(run, "x0_list", [], lambda vs: tuple(
        np.array(v, dtype=float).ravel() for v in vs), path)
    for i, v in enumerate(x0_list):
        if v.size != problem.n:
            raise ScenarioError(
                f"{path}: x0_list[{i}] has size {v.size}, expected {problem.n}")
    return ScenarioFile(
        problem=problem, mode=mode, out=str(run.get("out", ".")),
        seed=_run_value(run, "seed", 0, _integer, path), x0_list=x0_list, grid=grid,
        rollout_mode=rollout_mode, w_file=run.get("w_file"),
        sizes=_run_value(run, "sizes", ScenarioFile.sizes,
                         lambda v: tuple(_integer(s) for s in v), path),
        instances=_run_value(run, "instances", 4, _integer, path),
        allow_degenerate_terminal=_run_value(run, "allow_degenerate_terminal",
                                             False, _boolean, path))


def save_scenario(sc: ScenarioFile, path) -> None:
    p = sc.problem
    doc: dict = {
        "problem": {
            "A": p.A.tolist(), "B": p.B.tolist(), "G": p.G.tolist(),
            "Q": p.Q.tolist(), "R": p.R.tolist(), "Pf": p.Pf.tolist(),
            "N": p.N, "alpha": p.alpha.tolist(), "x0": p.x0.tolist(),
        },
        "run": {
            "mode": sc.mode, "out": sc.out, "seed": sc.seed,
            "rollout_mode": sc.rollout_mode,
            "sizes": list(sc.sizes), "instances": sc.instances,
            "allow_degenerate_terminal": sc.allow_degenerate_terminal,
        },
    }
    if sc.x0_list:
        doc["run"]["x0_list"] = [v.tolist() for v in sc.x0_list]
    if sc.grid is not None:
        doc["run"]["grid"] = {"lo": sc.grid[0], "hi": sc.grid[1], "points": sc.grid[2]}
    if sc.w_file is not None:
        doc["run"]["w_file"] = sc.w_file
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)
