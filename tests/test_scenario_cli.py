import csv
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import stdar.cli
import stdar.multiplier

from stdar import (Diverged, ProblemData, lmi_certify, lqr_baseline,
                   rollout, solve_multipliers, solve_steady_state, sweep)
from stdar._linalg import top_eig
from stdar.cli import main, _random_stable
from stdar.errors import ScenarioError, SingularM
from stdar.scenario import _KEYS, ScenarioFile, load_scenario, save_scenario
from conftest import scalar_problem


def write_scenario(tmp_path, p, name="sc.yaml", **run):
    sc = ScenarioFile(problem=p, **run)
    path = tmp_path / name
    save_scenario(sc, path)
    return str(path)


def sec5(N=4, x0=1.0):
    return scalar_problem(A=1, B=1, G=1, Q=0.2, R=1, Pf=1, N=N,
                          alpha=1.0, x0=x0)


def test_save_load_round_trip(tmp_path):
    p = sec5()
    path = tmp_path / "a.yaml"
    sc = ScenarioFile(problem=p, out="res", seed=7,
                      x0_list=(np.array([0.0]), np.array([2.0])),
                      grid=(-1.0, 1.0, 11))
    save_scenario(sc, path)
    back = load_scenario(path)
    assert back.out == "res" and back.seed == 7
    assert back.grid == (-1.0, 1.0, 11)
    assert len(back.x0_list) == 2
    for f in ("A", "B", "G", "Q", "R", "Pf"):
        assert np.array_equal(getattr(back.problem, f), getattr(p, f))
    assert np.array_equal(back.problem.alpha, p.alpha)
    assert np.array_equal(back.problem.x0, p.x0)
    # parse -> save -> parse is the identity on the file itself
    path2 = tmp_path / "b.yaml"
    save_scenario(back, path2)
    assert path.read_text() == path2.read_text()


def test_scalar_alpha_broadcasts(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text(
        "problem:\n  A: [[0.5]]\n  B: [[1.0]]\n  G: [[1.0]]\n"
        "  Q: [[0.2]]\n  R: [[1.0]]\n  Pf: [[1.0]]\n  N: 3\n  alpha: 2.0\n")
    sc = load_scenario(path)
    assert np.array_equal(sc.problem.alpha, np.full(3, 2.0))


def test_loader_error_reporting(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("problem:\n  A: [[1.0]\n  B: x\n")
    with pytest.raises(ScenarioError, match="line 3"):
        load_scenario(bad)
    bad.write_text("- 1\n- 2\n")
    with pytest.raises(ScenarioError, match="top level"):
        load_scenario(bad)
    bad.write_text("problem:\n  A: [[1.0]]\n")
    with pytest.raises(ScenarioError, match=r"missing key problem\.B"):
        load_scenario(bad)

    base = ("problem:\n  A: [[1.0]]\n  B: [[1.0]]\n  G: [[1.0]]\n"
            "  Q: [[0.2]]\n  R: [[1.0]]\n  Pf: [[1.0]]\n  N: 2\n")
    bad.write_text(base + "run:\n  rollout_mode: adversary\n")
    with pytest.raises(ScenarioError, match="unknown rollout mode"):
        load_scenario(bad)
    bad.write_text(base + "run:\n  x0_list: [[1.0, 2.0]]\n")
    with pytest.raises(ScenarioError, match=r"run\.x0_list\[0\]: state has size 2, expected 1$"):
        load_scenario(bad)
    bad.write_text(base + "run:\n  x0_list: [[1.0], [.nan]]\n")
    with pytest.raises(ScenarioError, match=r"run\.x0_list\[1\]: nan is not finite"):
        load_scenario(bad)
    for grid in ("{lo: 0.0, hi: 1.0}", "{lo: a, hi: 1.0, points: 3}"):
        bad.write_text(base + f"run:\n  grid: {grid}\n")
        with pytest.raises(ScenarioError, match="grid needs"):
            load_scenario(bad)
    # an integral float is an integer; a YAML boolean is the flag
    bad.write_text(base + "run:\n  seed: 2.0\n  allow_degenerate_terminal: false\n")
    sc = load_scenario(bad)
    assert sc.seed == 2 and type(sc.seed) is int
    assert sc.allow_degenerate_terminal is False
    # a scalar path is the path it spells; null takes the default
    bad.write_text(base + "run:\n  out: 2024\n  w_file: 7\n")
    sc = load_scenario(bad)
    assert (sc.out, sc.w_file) == ("2024", "7")
    bad.write_text(base + "run:\n  out: null\n  w_file: null\n")
    sc = load_scenario(bad)
    assert (sc.out, sc.w_file) == (".", None)


_PROBLEM = ("problem:\n  A: [[1.0]]\n  B: [[1.0]]\n  G: [[1.0]]\n"
            "  Q: [[0.2]]\n  R: [[1.0]]\n  Pf: [[1.0]]\n  N: 2\n")


def test_run_defaults_live_in_scenario_file(tmp_path):
    # each run key is a ScenarioFile field with its converter, and a key the
    # file leaves out, or a null or empty path, takes the field's default:
    # the loader states no default of its own
    run_fields = dataclasses.fields(ScenarioFile)[1:]
    assert list(_KEYS["run"]) == [f.name for f in run_fields]
    path = tmp_path / "sc.yaml"
    path.write_text(_PROBLEM + "run:\n  out: ''\n  w_file: null\n")
    sc = load_scenario(path)
    assert [getattr(sc, f.name) for f in run_fields] == [f.default for f in run_fields]


@pytest.mark.parametrize("text, match", [
    ("problem: 5\n", "'problem' and 'run' must be mappings"),
    (_PROBLEM + "run: [1, 2]\n", "'problem' and 'run' must be mappings"),
    (_PROBLEM.replace("B: [[1.0]]", "B: [[1.0], [2.0]]"),
     "bad problem data: B has 2 rows, expected 1"),
    (_PROBLEM + "  alpha: [1.0, 2.0, 3.0]\n",
     "bad problem data: alpha must have length 2, got 3"),
    (_PROBLEM + "  x0: [1.0, 2.0]\n", "bad problem data: x0 must have length 1, got 2"),
    ("problem:\n  A: [[1.0]]\n", "missing key problem.B"),
    ("run:\n  seed: 1\n", "missing key problem")],
    ids=["problem-scalar", "run-list", "B-rows", "alpha-length", "x0-length",
         "B-missing", "problem-missing"])
def test_malformed_section_names_the_file(tmp_path, capsys, text, match):
    # a section that is no mapping or is missing, a problem key that is
    # missing, or problem data of the wrong shape, is a ScenarioError
    # naming the file, and the CLI exits 2
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    with pytest.raises(ScenarioError, match=match):
        load_scenario(bad)
    assert main(["validate", "--scenario", str(bad)]) == 2
    assert f"error: {bad}: {match}" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [
    "x0_list: 5", "seed: [1]", "sizes: 7", "instances: [2]", "seed: one",
    "allow_degenerate_terminal: 'false'", "allow_degenerate_terminal: 0",
    "seed: 1.5", "seed: true", "instances: 2.7", "sizes: [6, 10.5]",
    "grid: {lo: -1.0, hi: 1.0, points: 2.5}",
    "out: [a, b]", "out: {x: 1}", "w_file: [a]", "instances: 0",
    "instances: -3", "sizes: [0, -2]", "sizes: [6, 0]",
    "grid: {lo: -1.0, hi: 1.0, points: 0}",
    "grid: {lo: true, hi: '2', points: 3}", "grid: {lo: .nan, hi: 1.0, points: 3}",
    "grid: {lo: -1.0, hi: .inf, points: 3}",
    "x0_list: [[1.0], [.nan]]", "x0_list: [[.inf]]", "seed: -1",
    "sizes: [6, 6]", "rollout_mode: [worst_case]"])
def test_mistyped_run_key_is_a_scenario_error(tmp_path, capsys, entry):
    # a run value of the wrong type names its key and exits 2 from the CLI:
    # a flag takes only a YAML boolean, so a quoted 'false' is no flag, and
    # an integer key takes no fraction and no boolean, which int() would
    # truncate or read as 1; a path is a scalar, so a list or mapping under
    # out would name a directory such as "['a', 'b']". A count is at least
    # 1: instances: 0 would make `stdar bench` write a header-only
    # bench.csv and exit 3, and a size of 0 would reach numpy. A number is
    # finite: grid ends of .nan or .inf, or an x0_list entry with one,
    # would reach the solver. A seed is at least 0, as numpy takes it
    bad = tmp_path / "bad.yaml"
    bad.write_text("problem:\n  A: [[1.0]]\n  B: [[1.0]]\n  G: [[1.0]]\n"
                   "  Q: [[0.2]]\n  R: [[1.0]]\n  Pf: [[1.0]]\n  N: 2\n"
                   f"run:\n  {entry}\n")
    key = entry.split(":")[0]
    with pytest.raises(ScenarioError, match=f"run.{key}"):
        load_scenario(bad)
    assert main(["validate", "--scenario", str(bad)]) == 2
    assert f"run.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("N", "2.7"), ("N", "true"), ("N", "'3'"), ("A", "[[true]]"),
    ("Q", "[['0.2']]"), ("alpha", "true"), ("alpha", "[1.0, '2']"),
    ("x0", "[yes]")])
def test_mistyped_problem_value_is_a_scenario_error(tmp_path, capsys, key, value):
    # a problem value takes numbers only, and N an integer: int() would
    # truncate 2.7 to 2 and read true as 1, and numpy would read a YAML
    # boolean as 1.0 and parse a quoted number. The error names the key
    # and the CLI exits 2
    entries = {"A": "[[1.0]]", "B": "[[1.0]]", "G": "[[1.0]]", "Q": "[[0.2]]",
               "R": "[[1.0]]", "Pf": "[[1.0]]", "N": "2", key: value}
    bad = tmp_path / "bad.yaml"
    bad.write_text("problem:\n" + "".join(f"  {k}: {v}\n" for k, v in entries.items()))
    with pytest.raises(ScenarioError, match=f"problem.{key}"):
        load_scenario(bad)
    assert main(["validate", "--scenario", str(bad)]) == 2
    assert f"problem.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("where, key, entry", [
    ("problem", "x_0", "  x_0: [3.0]"), ("run", "x0list", "  x0list: [[1.0], [3.0]]"),
    ("run", "instance", "  instance: 9"), ("run", "mode", "  mode: steady"),
    ("run.grid", "step", "  grid: {lo: 0.0, hi: 1.0, points: 3, step: 1}"),
    ("scenario", "runs", "runs: {mode: steady}")])
def test_misspelt_key_is_a_scenario_error(tmp_path, capsys, where, key, entry):
    # a key the layout lacks would be ignored, its value lost: x_0 would
    # leave x0 = 0 and x0list no x0_list, and `stdar finite` would solve at
    # the origin and exit 0. The error names the key and the CLI exits 2
    problem = ("problem:\n  A: [[1.0]]\n  B: [[1.0]]\n  G: [[1.0]]\n"
               "  Q: [[0.2]]\n  R: [[1.0]]\n  Pf: [[1.0]]\n  N: 2\n")
    text = {"problem": problem + entry + "\nrun:\n  out: res\n",
            "run": problem + "run:\n  out: res\n" + entry + "\n",
            "run.grid": problem + "run:\n  out: res\n" + entry + "\n",
            "scenario": problem + entry + "\n"}[where]
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    with pytest.raises(ScenarioError, match=f"unknown key '{key}' in {where}"):
        load_scenario(bad)
    assert main(["finite", "--scenario", str(bad), "--out", str(tmp_path / "res")]) == 2
    assert f"unknown key '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


def test_every_shipped_scenario_loads():
    paths = sorted((Path(__file__).parents[1] / "scenarios").glob("*.yaml"))
    assert paths
    for path in paths:
        load_scenario(path)


def test_cli_validate(tmp_path, capsys):
    path = write_scenario(tmp_path, sec5())
    rc = main(["validate", "--scenario", path])
    assert rc == 0
    outp = capsys.readouterr()
    assert "ok: n=1 m=1 q=1 N=4\n" in outp.out


def test_cli_finite_matches_library(tmp_path, capsys):
    p = sec5()
    path = write_scenario(tmp_path, p, out=str(tmp_path / "res"),
                          x0_list=(np.array([0.0]), np.array([1.0])))
    rc = main(["finite", "--scenario", path])
    assert rc == 0
    out = tmp_path / "res"
    assert (out / "finite_summary.csv").exists()
    for i, x0 in enumerate([np.array([0.0]), np.array([1.0])]):
        lines = (out / f"finite_x0_{i}.csv").read_text().strip().split("\n")
        assert lines[0] == "k,Pi[0][0],lambda_k,value"
        assert len(lines) == p.N + 2
        sol = solve_multipliers(p, x0)
        sw = sweep(p, sol.lam_star)
        abar = p.alpha_bar
        lams = sol.lam_star.lambdas
        for k in range(p.N + 1):
            cells = lines[k + 1].split(",")
            assert int(cells[0]) == k
            assert float(cells[1]) == sw.Pi[k][0, 0]
            tail = float(p.alpha[k:] @ lams[k:]) if k < p.N else 0.0
            assert float(cells[3]) == (float(x0 @ sw.Pi[k] @ x0) + tail) / (2 * abar)
            if k < p.N:
                assert float(cells[2]) == lams[k]
            else:
                assert cells[2] == ""
    summary = (out / "finite_summary.csv").read_text().strip().split("\n")
    assert len(summary) == 3
    assert summary[0] == ("i,x0[0],value,grad_norm,iterations,converged,"
                          "stage_steps,gradient_evals,adjoint_stages,backtracks,error")
    for i, x0 in enumerate([np.array([0.0]), np.array([1.0])]):
        sol = solve_multipliers(p, x0)
        cells = summary[i + 1].split(",")
        assert float(cells[2]) == sol.value
        assert cells[4:] == [str(sol.iterations), str(sol.converged),
                             str(sol.stage_steps), str(sol.gradient_evals),
                             str(sol.adjoint_stages), str(sol.backtracks), ""]
    assert summary[1].split(",")[5] == "True"


def test_cli_finite_turnpike_work(tmp_path):
    # the host-independent work of the four cold solves of the paper's
    # scalar example (scenarios/turnpike.yaml, N = 100). Its corner pass
    # settles to a 3-cycle 6 stages before its end and copies the rest,
    # and so do its descents' passes where they settle: 564 stage steps
    # solve it (1 067 on the slack gradient, 13/14/26/27 iterations), where
    # stepping every stage each pass reaches would take 4 988 (8 773)
    path = Path(__file__).parents[1] / "scenarios" / "turnpike.yaml"
    assert main(["finite", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "finite_summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    work = ("iterations", "stage_steps", "gradient_evals", "adjoint_stages",
            "backtracks")
    assert [[int(row[c]) for c in work] for row in rows] == [
        [9, 69, 10, 1000, 0], [10, 117, 11, 1100, 0],
        [13, 181, 14, 1400, 0], [14, 197, 15, 1500, 0]]
    assert all(row["converged"] == "True" for row in rows)


def test_cli_finite_exit_code_on_unconverged_or_failed_solve(tmp_path, monkeypatch,
                                                            capsys):
    # one solve that stops short of convergence, or raises, among states
    # that solve, makes the run exit 3 after every file is written
    x0s = (np.array([0.0]), np.array([3.0]))
    path = write_scenario(tmp_path, sec5(), out=str(tmp_path / "res"), x0_list=x0s)
    out = tmp_path / "res"
    with monkeypatch.context() as m:
        m.setattr(stdar.multiplier, "_MAX_ITER", 1)
        assert main(["finite", "--scenario", path]) == 3
    assert "1 did not converge" in capsys.readouterr().err
    summary = (out / "finite_summary.csv").read_text().strip().split("\n")
    assert [row.split(",")[5] for row in summary[1:]] == ["True", "False"]
    assert (out / "finite_x0_0.csv").exists() and (out / "finite_x0_1.csv").exists()

    def fails_at_three(p, x0, **kw):
        if x0[0] == 3.0:
            raise SingularM("stage matrix singular")
        return solve_multipliers(p, x0, **kw)

    monkeypatch.setattr(stdar.cli, "solve_multipliers", fails_at_three)
    assert main(["finite", "--scenario", path]) == 3
    assert "1 of 2 initial states failed" in capsys.readouterr().err
    summary = (out / "finite_summary.csv").read_text().strip().split("\n")
    assert summary[2].endswith('"stage matrix singular"')
    assert len(summary[2].split(",")) == len(summary[0].split(","))


def test_cli_policy_curve_odd_with_spread(tmp_path):
    p = scalar_problem(A=0.5, B=1, G=1, Q=0.2, R=1, Pf=1, N=3,
                       alpha=1.0, x0=1.0)
    path = write_scenario(tmp_path, p, out=str(tmp_path / "res"), grid=(-2.0, 2.0, 9))
    rc = main(["policy-curve", "--scenario", path])
    assert rc == 0
    lines = (tmp_path / "res" / "policy_curve.csv").read_text().strip().split("\n")
    assert lines[0] == "x0,u0"
    xs, us = [], []
    for ln in lines[1:]:
        a, b = ln.split(",")
        xs.append(float(a)); us.append(float(b))
    curve = dict(zip(xs, us))
    assert curve[0.0] == 0.0
    for x in xs:
        assert curve[-x] == -curve[x]  # exactly odd: the gain is shared
    assert max(us) - min(us) > 1e-4


def test_cli_policy_curve_solves_each_distinct_magnitude_once(tmp_path, monkeypatch):
    # a grid of 0 and sign pairs: one solve per |x0|, in ascending order,
    # each warm-started from the multipliers of the solve before it
    calls = []
    solve = stdar.cli.solve_multipliers

    def recorded(p, x, init=None):
        calls.append((float(x[0]), init, solve(p, x, init=init)))
        return calls[-1][2]

    monkeypatch.setattr(stdar.cli, "solve_multipliers", recorded)
    path = write_scenario(tmp_path, sec5(), out=str(tmp_path / "res"),
                          grid=(-2.0, 2.0, 9))
    assert main(["policy-curve", "--scenario", path]) == 0
    assert [x for x, _, _ in calls] == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert calls[0][1] is None
    for (_, _, before), (_, init, _) in zip(calls, calls[1:]):
        assert init is before.lam_star.lambdas
    lines = (tmp_path / "res" / "policy_curve.csv").read_text().strip().split("\n")
    assert len(lines) == 10


def test_cli_policy_curve_needs_scalar_and_grid(tmp_path, capsys):
    # either check fails before the output directory is made: exit 2 and
    # no directory, from the scenario's run.out or from --out
    p2 = sec5()
    path = write_scenario(tmp_path, p2, out=str(tmp_path / "res"))
    from conftest import make_problem
    pm = make_problem(np.random.default_rng(0), n=2, m=2, q=1, N=2)
    path2 = write_scenario(tmp_path, pm, name="m.yaml", out=str(tmp_path / "res"),
                           grid=(-1.0, 1.0, 3))
    for scenario, why in ((path, "needs run.grid"), (path2, "scalar system")):
        for flags in ([], ["--out", str(tmp_path / "other")]):
            assert main(["policy-curve", "--scenario", scenario] + flags) == 2
            assert why in capsys.readouterr().err
            assert not (tmp_path / "res").exists()
            assert not (tmp_path / "other").exists()


def test_cli_policy_curve_exit_code_on_unconverged_solve(tmp_path, capsys,
                                                         monkeypatch):
    # one iteration solves x0 = 0 but not x0 = 3: the curve is still
    # written, and the run exits 3
    monkeypatch.setattr(stdar.multiplier, "_MAX_ITER", 1)
    path = write_scenario(tmp_path, sec5(), out=str(tmp_path / "res"),
                          grid=(-3.0, 3.0, 3))
    assert main(["policy-curve", "--scenario", path]) == 3
    assert "1 grid points did not converge" in capsys.readouterr().err
    lines = (tmp_path / "res" / "policy_curve.csv").read_text().strip().split("\n")
    assert len(lines) == 4


def test_cli_rollout_matches_library(tmp_path, capsys):
    # the field-by-field re-parse of rollout.csv is
    # test_policy::test_trajectory_csv_round_trip; here the scenario run
    # reports the library's rollout
    p = sec5()
    path = write_scenario(tmp_path, p, out=str(tmp_path / "res"),
                          rollout_mode="worst_case")
    rc = main(["rollout", "--scenario", path])
    assert rc == 0
    tr = rollout(p, mode="worst_case")
    assert capsys.readouterr().out == (
        f"total cost {tr.total_cost:.12g}  ratio {tr.value_ratio:.12g}  "
        f"converged {tr.converged}\n")
    with open(tmp_path / "res" / "rollout.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == p.N + 2
    assert [r[-1] for r in rows[1:-1]] == [str(bool(c)) for c in tr.stage_converged]
    assert tr.converged == tr.stage_converged.all()
    assert np.array_equal([float(r[-4]) for r in rows[1:]],
                          np.append(tr.stage_costs, tr.terminal_cost))


def test_cli_rollout_external_needs_w_file(tmp_path, capsys):
    path = write_scenario(tmp_path, sec5(), out=str(tmp_path / "res"),
                          rollout_mode="external")
    assert main(["rollout", "--scenario", path]) == 2
    assert "rollout_mode external needs run.w_file" in capsys.readouterr().err
    # the file is read, and its shape checked, before the directory is made
    assert not (tmp_path / "res").exists()
    (tmp_path / "short.csv").write_text("0.1\n0.1\n")
    for w_file, why in (("no.csv", "no.csv"), ("short.csv", "w_seq must be 4x1")):
        path = write_scenario(tmp_path, sec5(), out=str(tmp_path / "res"),
                              rollout_mode="external", w_file=str(tmp_path / w_file))
        assert main(["rollout", "--scenario", path]) == 2
        assert why in capsys.readouterr().err
        assert not (tmp_path / "res").exists()


def test_cli_rollout_external_w_file(tmp_path):
    p = sec5()
    wf = tmp_path / "w.csv"
    np.savetxt(wf, np.zeros((p.N, p.q)), delimiter=",")
    path = write_scenario(tmp_path, p, out=str(tmp_path / "res"),
                          rollout_mode="external", w_file=str(wf))
    assert main(["rollout", "--scenario", path]) == 0
    lines = (tmp_path / "res" / "rollout.csv").read_text().strip().split("\n")
    assert len(lines) == p.N + 2


def test_cli_steady(tmp_path, capsys):
    path = write_scenario(tmp_path, sec5(), out=str(tmp_path / "res"))
    rc = main(["steady", "--scenario", path])
    assert rc == 0
    outp = capsys.readouterr().out
    assert outp.startswith("lambda_bar 1.19999999")
    lines = (tmp_path / "res" / "steady.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert float(row["lambda_bar"]) == pytest.approx(1.2, abs=1e-6)
    assert float(row["lqr_top_eig"]) == pytest.approx((0.2 + np.sqrt(0.84)) / 2,
                                                      abs=1e-6)
    # the column is the package's one top-eigenvalue routine, to the digit
    assert float(row["lqr_top_eig"]) == top_eig(lqr_baseline(sec5()))
    assert float(row["Pi[0][0]"]) == pytest.approx(1.2, abs=1e-4)
    assert float(row["K[0][0]"]) == pytest.approx(1.0, abs=1e-4)
    sol = solve_steady_state(sec5())
    assert int(row["probes"]) == sol.probes > 0
    assert int(row["fp_iterations"]) == sol.fp_iterations > 0
    # the paper's example's two probes below the saddle-node end by the
    # doubling's infeasibility exit, not at the 64-doubling cap (2 capped
    # before it); the column follows fp_iterations
    assert header[-3:] == ["probes", "fp_iterations", "capped"]
    assert int(row["capped"]) == sol.capped == 0
    # the solution keeps the certificate's decision; the column is its
    # smallest eigenvalue, formed by lmi_certify on request
    assert sol.lmi_feasible
    assert float(row["lmi_min_eig"]) == lmi_certify(sec5(), sol).min_eig


def test_cli_bench(tmp_path, capsys):
    path = write_scenario(tmp_path, sec5(), out=str(tmp_path / "res"), seed=3,
                          sizes=(2, 3), instances=2)
    rc = main(["bench", "--scenario", path])
    assert rc == 0
    outp = capsys.readouterr().out
    assert "fitted exponent:" in outp
    with open(tmp_path / "res" / "bench.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["n", "median_s", "probes", "fp_iterations"]
    assert [row["n"] for row in rows] == ["2", "3"]
    # the counts are the medians over the solves of the bench's own systems
    rng = np.random.default_rng(3)
    for row in rows:
        sols = [solve_steady_state(_random_stable(rng, int(row["n"])))
                for _ in range(2)]
        for col in ("probes", "fp_iterations"):
            assert float(row[col]) == np.median([getattr(s, col) for s in sols])
    report = (tmp_path / "res" / "bench_report.txt").read_text()
    assert report.startswith("fitted exponent:")


def test_cli_bench_degenerate_sizes(tmp_path, capsys):
    path = write_scenario(tmp_path, sec5(), out=str(tmp_path / "res"), sizes=(3,),
                          instances=1)
    assert main(["bench", "--scenario", path]) == 0
    assert "undefined" in capsys.readouterr().out


def test_cli_bench_empty_sizes_is_a_scenario_error(tmp_path, capsys):
    # run.sizes: [] gives bench nothing to solve: the scenario is rejected,
    # naming the key, before any output directory is made
    path = write_scenario(tmp_path, sec5(), out=str(tmp_path / "res"), sizes=(),
                          instances=1)
    with pytest.raises(ScenarioError, match="run.sizes"):
        load_scenario(path)
    for flags in ([], ["--out", str(tmp_path / "other")]):
        assert main(["bench", "--scenario", path] + flags) == 2
        assert "bad run.sizes" in capsys.readouterr().err
        assert not (tmp_path / "res").exists()
        assert not (tmp_path / "other").exists()


def test_cli_bench_repeated_size_is_a_scenario_error(tmp_path, capsys):
    # run.sizes: [6, 6] fitted the exponent through coincident points: bench
    # warned RankWarning, printed an exponent and exited 0. The scenario is
    # rejected, naming the key, before any output directory is made
    path = write_scenario(tmp_path, sec5(), out=str(tmp_path / "res"), sizes=(6, 6),
                          instances=1)
    with pytest.raises(ScenarioError, match=r"bad run\.sizes: \[6, 6\] repeats a size"):
        load_scenario(path)
    assert main(["bench", "--scenario", path]) == 2
    assert "bad run.sizes" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("command", ["validate", "finite", "steady", "rollout"])
def test_cli_empty_dimension_is_a_scenario_error(tmp_path, capsys, command):
    # G: [[]] is q = 0: validate printed "ok: n=1 m=1 q=0", and finite,
    # steady and rollout raised an untyped IndexError. The problem data are
    # refused, naming G, and no output directory is made
    bad = tmp_path / "bad.yaml"
    bad.write_text("problem:\n  A: [[1.0]]\n  B: [[1.0]]\n  G: [[]]\n"
                   "  Q: [[0.2]]\n  R: [[1.0]]\n  Pf: [[1.0]]\n  N: 2\n")
    flags = [] if command == "validate" else ["--out", str(tmp_path / "res")]
    assert main([command, "--scenario", str(bad)] + flags) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {bad}: bad problem data: G is empty, shape (1, 0)\n"
    assert not (tmp_path / "res").exists()


def test_cli_bench_skips_a_size_whose_solves_raise(tmp_path, capsys, monkeypatch):
    # a solve that raises is reported and left out of its size's medians;
    # a size with no solve left writes no row. The untimed warm-up is n = 2
    solve = stdar.cli.solve_steady_state

    def fails_from_3(p):
        if p.n >= 3:
            raise Diverged("doubling diverged")
        return solve(p)

    monkeypatch.setattr(stdar.cli, "solve_steady_state", fails_from_3)
    path = write_scenario(tmp_path, sec5(), out=str(tmp_path / "res"),
                          sizes=(2, 3), instances=1)
    assert main(["bench", "--scenario", path]) == 0
    assert "n=3: doubling diverged" in capsys.readouterr().err
    with open(tmp_path / "res" / "bench.csv") as fh:
        assert [row["n"] for row in csv.DictReader(fh)] == ["2"]
    path = write_scenario(tmp_path, sec5(), name="only3.yaml",
                          out=str(tmp_path / "res3"), sizes=(3,), instances=1)
    assert main(["bench", "--scenario", path]) == 3
    assert "n=3: doubling diverged" in capsys.readouterr().err


def test_cli_error_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "nope.yaml")
    assert main(["validate", "--scenario", missing]) == 2
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.yaml"
    bad.write_text(
        "problem:\n  A: [[1.0]]\n  B: [[0.0]]\n  G: [[1.0]]\n"
        "  Q: [[0.2]]\n  R: [[1.0]]\n  Pf: [[1.0]]\n  N: 2\n")
    assert main(["validate", "--scenario", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_finite_rejects_non_finite_x0_before_solving(tmp_path, capsys):
    # a NaN entry of run.x0_list fails at load, naming itself: no entry
    # ahead of it is solved and no file is written
    bad = tmp_path / "bad.yaml"
    bad.write_text("problem:\n  A: [[1.0]]\n  B: [[1.0]]\n  G: [[1.0]]\n"
                   "  Q: [[0.2]]\n  R: [[1.0]]\n  Pf: [[1.0]]\n  N: 2\n"
                   "run:\n  x0_list: [[1.0], [.nan]]\n")
    out = tmp_path / "res"
    assert main(["finite", "--scenario", str(bad), "--out", str(out)]) == 2
    assert "run.x0_list[1]" in capsys.readouterr().err
    assert not out.exists()


SUBCOMMANDS = ("validate", "finite", "policy-curve", "rollout", "steady", "bench")


@pytest.mark.parametrize("command", SUBCOMMANDS)
@pytest.mark.parametrize("flag", [["--seed", "0"], ["--allow-degenerate-terminal"]])
def test_cli_takes_no_run_setting(tmp_path, capsys, command, flag):
    # run.seed and run.allow_degenerate_terminal are set in the scenario
    # alone: as flags they are usage errors that leave no directory
    path = write_scenario(tmp_path, sec5(), out=str(tmp_path / "res"))
    with pytest.raises(SystemExit) as exc:
        main([command, "--scenario", path, *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


def test_cli_degenerate_terminal_is_a_scenario_setting(tmp_path, capsys):
    # Pf = 0 passes validate, with a warning, only where the scenario sets
    # run.allow_degenerate_terminal; without it validation fails, exit 2
    p = scalar_problem(A=1, B=1, G=1, Q=0.2, R=1, Pf=0, N=4, alpha=1.0)
    allowed = write_scenario(tmp_path, p, allow_degenerate_terminal=True)
    assert main(["validate", "--scenario", allowed]) == 0
    outp = capsys.readouterr()
    assert "ok: n=1 m=1 q=1 N=4" in outp.out
    assert "warning: G'Pf G = 0" in outp.err
    plain = write_scenario(tmp_path, p, name="plain.yaml")
    assert main(["validate", "--scenario", plain]) == 2
    assert "G'Pf G nonzero" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--seed", "0"), ("--seed", "-1"),
                                         ("--out", "zzz")])
def test_cli_validate_takes_no_seed_or_out(tmp_path, capsys, monkeypatch,
                                          flag, value):
    # validate reads no seed and writes nothing, so either flag is a usage
    # error, not an option it would silently ignore
    monkeypatch.chdir(tmp_path)
    path = write_scenario(tmp_path, sec5())
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--scenario", path, flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "zzz").exists()


def _unstabilizable():
    # the mode at 2 feeds the second state, which B and G reach, but B
    # cannot steer it: validation warns, and no steady multiplier exists
    B = np.array([[0.0], [1.0]])
    return ProblemData(A=np.array([[2.0, 0.0], [1.0, 0.5]]), B=B, G=B,
                       Q=np.eye(2), R=np.eye(1), Pf=np.eye(2), N=3, alpha=1.0)


def test_cli_validate_prints_warnings(tmp_path, capsys):
    path = write_scenario(tmp_path, _unstabilizable())
    assert main(["validate", "--scenario", path]) == 0
    outp = capsys.readouterr()
    assert "ok: n=2 m=1 q=1 N=3" in outp.out
    assert "warning: (A, B) fails the PBH stabilizability test" in outp.err


def test_cli_solver_error_exits_3(tmp_path, capsys):
    # a RegulatorError no command handles itself reaches main: exit 3
    path = write_scenario(tmp_path, _unstabilizable(), out=str(tmp_path / "res"))
    assert main(["steady", "--scenario", path]) == 3
    assert "solver error: no feasible multiplier" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()  # nothing to write, no directory


def test_cli_steady_without_lqr_baseline(tmp_path, monkeypatch):
    # a diverged LQR baseline leaves its column nan; the solve still counts
    def diverges(p):
        raise Diverged("LQR Riccati doubling did not converge")

    monkeypatch.setattr(stdar.cli, "lqr_baseline", diverges)
    path = write_scenario(tmp_path, sec5(), out=str(tmp_path / "res"))
    assert main(["steady", "--scenario", path]) == 0
    with open(tmp_path / "res" / "steady.csv", newline="") as fh:
        row = next(csv.DictReader(fh))
    assert row["lqr_top_eig"] == "nan"
    assert float(row["lambda_bar"]) == pytest.approx(1.2, abs=1e-6)


def test_cli_rollout_exit_code_on_unconverged_resolve(tmp_path, capsys, monkeypatch):
    # one iteration is too few for the stage-0 re-solve from x0 = 3: the
    # rollout still runs and writes its CSV, flags the stage and exits 3
    monkeypatch.setattr(stdar.multiplier, "_MAX_ITER", 1)
    path = write_scenario(tmp_path, sec5(x0=3.0), out=str(tmp_path / "res"),
                          rollout_mode="zero")
    assert main(["rollout", "--scenario", path]) == 3
    assert capsys.readouterr().out.endswith("converged False\n")
    with open(tmp_path / "res" / "rollout.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][-1] == "converged" and rows[1][-1] == "False"


def test_cli_out_override(tmp_path):
    path = write_scenario(tmp_path, sec5(), out=str(tmp_path / "orig"))
    other = tmp_path / "other"
    assert main(["steady", "--scenario", path, "--out", str(other)]) == 0
    assert (other / "steady.csv").exists()
    assert not (tmp_path / "orig").exists()


def test_bench_instances_are_seed_reproducible():
    a = _random_stable(np.random.default_rng(11), 4)
    b = _random_stable(np.random.default_rng(11), 4)
    assert np.array_equal(a.A, b.A)
    assert float(np.abs(np.linalg.eigvals(a.A)).max()) == pytest.approx(0.9, abs=1e-12)
