"""The names the benchmark harness resolves in the package.

benchmark/run.py builds its api namespace from API_NAMES, and
benchmark/tracing.py wraps the functions named in TARGETS where the
package's modules bind them. A name removed or renamed in the package
breaks the benchmark, not the package's own tests, so these tests read
both lists from benchmark/ and resolve them.
"""
import ast
import importlib.util
import pathlib
from types import SimpleNamespace

import numpy as np

import stdar
from conftest import make_problem

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
        assert wrapped == {attr for _, _, attr, _ in tracing.TARGETS}

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
