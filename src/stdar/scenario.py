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

from dataclasses import dataclass

import numpy as np
import yaml

from .errors import DimensionMismatch, ScenarioError
from .policy import _ROLLOUT_MODES
from .problem import ProblemData, _as_point, _integer

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


def _need(mapping: dict, name: str, path):  # the value at name's last key
    key = name.rpartition(".")[2]
    if key not in mapping:
        raise ScenarioError(f"{path}: missing key {name}")
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


def _sizes(v) -> tuple:  # bench's sizes: at least one, each a count, none twice
    if not v:
        raise ValueError("no size given")
    sizes = tuple(_count(s) for s in v)
    if len(set(sizes)) < len(sizes):
        raise ValueError(f"{list(sizes)} repeats a size")
    return sizes


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


def _grid(g) -> tuple:  # policy-curve's (lo, hi, points)
    try:
        return (float(_floats(g["lo"])), float(_floats(g["hi"])), _count(g["points"]))
    except (TypeError, KeyError, ValueError) as exc:
        raise ValueError(f"grid needs lo, hi, points ({exc})") from None


def _rollout_mode(v) -> str:
    if v not in _ROLLOUT_MODES:
        raise ValueError(f"unknown rollout mode {v!r}")
    return v


def _boolean(v) -> bool:
    if type(v) is not bool:  # a string such as "false" is no flag
        raise ValueError(f"{v!r} is not true or false")
    return v


def _path(v):
    """A YAML scalar as the path it spells; None where it is null or empty,
    which leaves the default. A list or mapping is a typo, not a path."""
    if isinstance(v, (list, dict)):
        raise TypeError(f"{v!r} is not a path")
    return None if v is None or v == "" else str(v)


# the layout's keys; run's are ScenarioFile's fields, each with its
# converter (x0_list's entries are then checked as states of the problem)
_KEYS = {"scenario": ("problem", "run"), "problem": _MATRICES + ("N", "alpha", "x0"),
         "run": {"out": _path, "seed": lambda v: _count(v, 0), "x0_list": list,
                 "grid": _grid, "rollout_mode": _rollout_mode, "w_file": _path,
                 "sizes": _sizes, "instances": _count,
                 "allow_degenerate_terminal": _boolean},
         "run.grid": ("lo", "hi", "points")}


def _value(path, where: str, convert, *args):
    try:
        return convert(*args)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{path}: bad {where}: {exc}") from None


def load_scenario(path) -> ScenarioFile:
    """Parse a scenario YAML file; errors carry a line number when the
    parser provides one, and the key of a value of the wrong type or of a
    key the layout does not have. Each run key the file gives goes through
    its converter in `_KEYS`; a key it leaves out, or a null or empty
    path, takes ScenarioFile's default, where every run default lives."""
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
    prob = _need(doc, "problem", path)
    run = doc.get("run", {})
    if not isinstance(prob, dict) or not isinstance(run, dict):
        raise ScenarioError(f"{path}: 'problem' and 'run' must be mappings")
    _known(prob, "problem", path)
    _known(run, "run", path)

    for key in _MATRICES + ("N",):
        _need(prob, f"problem.{key}", path)
    kwargs = {key: _value(path, f"problem.{key}", _integer if key == "N" else _floats, v)
              for key, v in prob.items()}
    try:
        problem = ProblemData(**{"alpha": 1.0, **kwargs})
    except (TypeError, ValueError, DimensionMismatch) as exc:
        raise ScenarioError(f"{path}: bad problem data: {exc}") from None

    given = {key: _value(path, f"run.{key}", _KEYS["run"][key], v)
             for key, v in run.items()}
    _known(run.get("grid", {}), "run.grid", path)  # a mapping, as _grid read it
    if "x0_list" in given:
        state = lambda v: _as_point(_floats(v), problem.n, "state")
        given["x0_list"] = tuple(_value(path, f"run.x0_list[{i}]", state, v)
                                 for i, v in enumerate(given["x0_list"]))
    return ScenarioFile(problem=problem,
                        **{key: v for key, v in given.items() if v is not None})


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
