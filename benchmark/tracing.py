"""Span tracing around the package's public functions, from outside it.

A traced run replaces each traced function with a wrapper in every module
that bound its name, so calls made inside the package are seen as well as
the benchmark's own. Spans (name, start, end, parent, op id) stay in
memory and are written when the run ends.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict

# (span name, defining module, function, package modules whose binding of
# that name is replaced). The benchmark's own calls go through its api
# namespace, which is wrapped as well where it holds the function.
TARGETS = (
    ("problem.validate", "problem", "validate_problem", ()),
    ("riccati.sweep", "riccati", "sweep", ("multiplier", "policy")),
    ("riccati.project", "riccati", "project_feasible", ("multiplier",)),
    ("multiplier.solve", "multiplier", "solve_multipliers", ("policy",)),
    ("policy.control", "policy", "control_at", ()),
    ("policy.disturbance", "policy", "worst_disturbance_at", ()),
    ("steady_state.solve", "steady_state", "solve_steady_state", ()),
    ("steady_state.lmi", "steady_state", "lmi_certify", ("steady_state",)),
    ("steady_state.lqr", "steady_state", "lqr_baseline", ()),
    ("kernels.fp", "_kernels", "fixed_point_numpy", ("steady_state",)),
    ("kernels.fp", "_kernels", "fixed_point_compiled", ("steady_state",)),
)


def _count(counts, name, args, out):
    """Work counts read from the arguments and results of a call."""
    if name == "riccati.sweep":
        counts["riccati.sweep_stages"] += len(args[1])
    elif name == "riccati.project":
        counts["riccati.project_stages"] += len(args[1])
    elif name == "multiplier.solve":
        counts["multiplier.iterations"] += out.iterations
        counts["multiplier.boundary_solves"] += bool(out.boundary_flags[:-1].any())
        counts["multiplier.fd_solves"] += out.gradient_mode == "fd"
    elif name == "kernels.fp":
        counts["kernels.fp_iterations"] += out[1]
        counts["kernels.fp_capped"] += out[0] == 1


class Tracer:
    """Spans and work counts of one traced run."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index, op id]
        self.stack = []
        self.op_id = -1
        self.counts = defaultdict(int)
        self.saved = []

    def begin_op(self):
        self.op_id += 1

    def wrap(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id])
            stack.append(idx)
            t0 = time.process_time()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.process_time()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            _count(counts, name, args, out)
            return out

        return traced

    def install(self, api, package):
        """Wrap every target in the api namespace and in the package
        modules that bound it; undone by uninstall."""
        for name, home, attr, users in TARGETS:
            module = getattr(package, home)
            fn = getattr(module, attr)
            for holder in (api, *(getattr(package, u) for u in users)):
                if getattr(holder, attr, None) is fn:
                    self.saved.append((holder, attr, fn))
                    setattr(holder, attr, self.wrap(name, fn))

    def uninstall(self):
        for holder, attr, fn in reversed(self.saved):
            setattr(holder, attr, fn)
        self.saved.clear()

    def layer_times(self):
        """Busy and self time per span name, in seconds."""
        busy = defaultdict(float)
        child = defaultdict(float)
        calls = defaultdict(int)
        for name, t0, t1, parent, _ in self.spans:
            busy[name] += t1 - t0
            calls[name] += 1
            if parent >= 0:
                child[parent] += t1 - t0
        selft = defaultdict(float)
        for idx, (name, t0, t1, _, _) in enumerate(self.spans):
            selft[name] += (t1 - t0) - child.get(idx, 0.0)
        return calls, busy, selft

    def write(self, path):
        with open(path, "w") as fh:
            for name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")


def print_layers(tracer):
    calls, busy, selft = tracer.layer_times()
    print(f"{'span':<22}{'calls':>10}{'busy s':>12}{'self s':>12}")
    for name in sorted(calls):
        print(f"{name:<22}{calls[name]:>10}{busy[name]:>12.4f}{selft[name]:>12.4f}")


def layer_metrics(tracer):
    """The per-layer metrics, by name, with their units."""
    calls, busy, selft = tracer.layer_times()
    c = tracer.counts
    stages = c["riccati.sweep_stages"] + c["riccati.project_stages"]
    riccati_s = busy["riccati.sweep"] + busy["riccati.project"]
    fp_iters = c["kernels.fp_iterations"]
    return {
        "riccati.sweep_calls": (calls["riccati.sweep"], "count"),
        "riccati.sweep_stages": (c["riccati.sweep_stages"], "count"),
        "riccati.sweep_s": (busy["riccati.sweep"], "s"),
        "riccati.project_calls": (calls["riccati.project"], "count"),
        "riccati.project_stages": (c["riccati.project_stages"], "count"),
        "riccati.project_s": (busy["riccati.project"], "s"),
        "riccati.us_per_stage": (1e6 * riccati_s / stages if stages else 0.0, "us"),
        "multiplier.solve_calls": (calls["multiplier.solve"], "count"),
        "multiplier.solve_s": (busy["multiplier.solve"], "s"),
        "multiplier.self_s": (selft["multiplier.solve"], "s"),
        "multiplier.iterations": (c["multiplier.iterations"], "count"),
        "multiplier.boundary_solves": (c["multiplier.boundary_solves"], "count"),
        "multiplier.fd_solves": (c["multiplier.fd_solves"], "count"),
        "policy.control_calls": (calls["policy.control"], "count"),
        "policy.control_s": (busy["policy.control"], "s"),
        "policy.disturbance_calls": (calls["policy.disturbance"], "count"),
        "policy.disturbance_s": (busy["policy.disturbance"], "s"),
        "steady_state.solve_calls": (calls["steady_state.solve"], "count"),
        "steady_state.solve_s": (busy["steady_state.solve"], "s"),
        "steady_state.self_s": (selft["steady_state.solve"], "s"),
        "steady_state.lmi_s": (busy["steady_state.lmi"], "s"),
        "steady_state.lqr_s": (busy["steady_state.lqr"], "s"),
        "kernels.fp_calls": (calls["kernels.fp"], "count"),
        "kernels.fp_iterations": (fp_iters, "count"),
        "kernels.fp_capped": (c["kernels.fp_capped"], "count"),
        "kernels.fp_s": (busy["kernels.fp"], "s"),
        "kernels.us_per_iteration": (1e6 * busy["kernels.fp"] / fp_iters if fp_iters else 0.0, "us"),
        "problem.validate_calls": (calls["problem.validate"], "count"),
        "problem.validate_s": (busy["problem.validate"], "s"),
    }
