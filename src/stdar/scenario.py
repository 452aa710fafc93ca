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

from dataclasses import dataclass, fields

import numpy as np
import yaml

from .errors import DimensionMismatch, ScenarioError
from .policy import _ROLLOUT_MODES
from .problem import ProblemData, _integer

_MATRICES = ("A", "B", "G", "Q", "R", "Pf")


@dataclass(frozen=True)
class ScenarioFile:
    problem: ProblemData
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


_KEYS = {"scenario": ("problem", "run"), "problem": _MATRICES + ("N", "alpha", "x0"),
         "run": tuple(f.name for f in fields(ScenarioFile) if f.name != "problem"),
         "run.grid": ("lo", "hi", "points")}  # run's keys are ScenarioFile's fields


def _need(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ScenarioError(f"missing key {key!r} in {where}")
    return mapping[key]


def _known(mapping: dict, where: str, path) -> None:
    """Raise ScenarioError at the first key of mapping the layout lacks."""
    for key in mapping:
        if key not in _KEYS[where]:
            raise ScenarioError(f"{path}: unknown key {key!r} in {where}")


def _count(v, least: int = 1) -> int:  # an integer of at least `least`
    if _integer(v) < least:
        raise ValueError(f"{v!r} is below {least}")
    return int(v)


def _sizes(v) -> tuple:  # bench's sizes: at least one, each a count
    if not v:
        raise ValueError("no size given")
    return tuple(_count(s) for s in v)


def _floats(v) -> np.ndarray:
    """A finite number or nested lists of them as a float array; a YAML
    boolean or string is a typo, which numpy would read as 1.0 or parse,
    and a .nan or .inf no value a run can use."""
    if isinstance(v, (bool, str)):
        raise ValueError(f"{v!r} is not a number")
    arr = np.array([_floats(x) for x in v] if isinstance(v, list) else v,
                   dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{v!r} is not finite")
    return arr


def _boolean(v) -> bool:
    if type(v) is not bool:  # a string such as "false" is no flag
        raise ValueError(f"{v!r} is not true or false")
    return v


def _path(v):
    """A YAML scalar as the path it spells, None (null) as None; a list
    or mapping is a typo, not a path."""
    if isinstance(v, (list, dict)):
        raise TypeError(f"{v!r} is not a path")
    return v if v is None else str(v)


def _value(section: dict, key: str, default, convert, path, where="run"):
    try:
        return convert(section.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{path}: bad {where}.{key}: {exc}") from None


def load_scenario(path) -> ScenarioFile:
    """Parse a scenario YAML file; errors carry a line number when the
    parser provides one, and the key of a value of the wrong type or of a
    key the layout does not have."""
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
    _known(doc, "scenario", path)
    prob = _need(doc, "problem", "scenario")
    run = doc.get("run", {})
    if not isinstance(prob, dict) or not isinstance(run, dict):
        raise ScenarioError(f"{path}: 'problem' and 'run' must be mappings")
    _known(prob, "problem", path)
    _known(run, "run", path)

    for key in _MATRICES + ("N",):
        _need(prob, key, "problem")
    kwargs = {key: _value(prob, key, None, _integer if key == "N" else _floats,
                          path, "problem") for key in prob}
    try:
        problem = ProblemData(**{"alpha": 1.0, **kwargs})
    except (TypeError, ValueError, DimensionMismatch) as exc:
        raise ScenarioError(f"{path}: bad problem data: {exc}") from None

    rollout_mode = run.get("rollout_mode", "worst_case")
    if rollout_mode not in _ROLLOUT_MODES:
        raise ScenarioError(f"{path}: unknown rollout mode {rollout_mode!r}")
    grid = None
    if "grid" in run:
        g = run["grid"]
        try:
            grid = (float(_floats(g["lo"])), float(_floats(g["hi"])),
                    _count(g["points"]))
        except (TypeError, KeyError, ValueError) as exc:
            raise ScenarioError(f"{path}: run.grid needs lo, hi, points ({exc})") from None
        _known(g, "run.grid", path)
    x0_list = _value(run, "x0_list", [], list, path)
    for i, v in enumerate(x0_list):
        try:
            x0_list[i] = _floats(v).ravel()
            if x0_list[i].size != problem.n:
                raise ValueError(f"size {x0_list[i].size}, expected {problem.n}")
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"{path}: bad run.x0_list[{i}]: {exc}") from None
    return ScenarioFile(
        problem=problem, out=_value(run, "out", None, _path, path) or ".",
        seed=_value(run, "seed", 0, lambda v: _count(v, 0), path),
        x0_list=tuple(x0_list), grid=grid,
        rollout_mode=rollout_mode, w_file=_value(run, "w_file", None, _path, path),
        sizes=_value(run, "sizes", ScenarioFile.sizes, _sizes, path),
        instances=_value(run, "instances", 4, _count, path),
        allow_degenerate_terminal=_value(run, "allow_degenerate_terminal",
                                         False, _boolean, path))


def save_scenario(sc: ScenarioFile, path) -> None:
    p = sc.problem
    doc: dict = {
        "problem": {**{key: getattr(p, key).tolist() for key in _MATRICES},
                    "N": p.N, "alpha": p.alpha.tolist(), "x0": p.x0.tolist()},
        "run": {
            "out": sc.out, "seed": sc.seed,
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
