"""stdar benchmark: online control latency, long-horizon synthesis and
steady-state design.

    python3 benchmark/run.py --workload {online,long_horizon,steady}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
src/. Each workload runs a fixed bank of ops; the run length sets how many
passes are made over it, and the seed the order of the ops in each pass,
so a run ends by op count, not by a clock. Times are CPU time of the
process, scaled to the pace of a reference kernel timed next to every op
(pace.py), because on a shared host the speed of a core changes from one
minute to the next; each op counts with its median over the passes. The
last line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones;
with --trace 1 the package's public functions are wrapped, one pass is
made, and the metrics are per layer (see README.md).
"""
import os

# One BLAS/OpenMP thread: on a small shared machine threaded BLAS makes
# small dense solves several times slower and far less repeatable.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench_out"
SETUP_REPS = 3
TAIL_BEYOND = 10       # op_tail_ms: the highest percentile with ten ops beyond it
TAIL_MIN_OPS = 40
OVERHEAD_EVERY = 8     # traced runs also time every 8th case untraced

# what the workloads call; the tracer wraps these and the package's own
# bindings of the functions among them
API_NAMES = ("ProblemData", "RegulatorError", "validate_problem", "sweep",
             "solve_multipliers", "control_at", "worst_disturbance_at",
             "solve_steady_state", "lqr_baseline")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("online", "long_horizon", "steady"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def _import_package():
    src = ROOT / "src"
    if not (src / "stdar" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {src / 'stdar'}; "
                         "run from the root of a stdar checkout")
    sys.path.insert(0, str(src))
    import stdar
    return stdar


def _api(stdar):
    api = SimpleNamespace(**{name: getattr(stdar, name) for name in API_NAMES})
    api.begin_op = lambda: None
    return api


def _tail(times):
    """The op time with exactly TAIL_BEYOND slower ops after it."""
    return sorted(times)[len(times) - TAIL_BEYOND - 1]


def main(argv=None):
    args = _parse(argv)
    t_import = time.process_time()
    stdar = _import_package()
    import numpy as np
    import workloads
    import_s = time.process_time() - t_import
    # set-up and every op are timed next to samples of a reference kernel,
    # and reported at its reference pace (pace.py)
    import pace
    pacer = pace.Pace()
    pacer.mark()

    wl = workloads.WORKLOADS[args.workload]
    api = _api(stdar)
    gen_s = []
    for _ in range(SETUP_REPS):
        t0 = time.process_time()
        cases = wl.bank()
        for case in cases:
            case.build(api)
        gen_s.append(time.process_time() - t0)
        pacer.mark()
    # one op on a small problem of its own, so that lazy initialisation in
    # numpy and scipy lands in set-up rather than in the first timed op
    t0 = time.process_time()
    warm = wl.warmup_case()
    warm.build(api)
    wrong = list(wl.run(api, warm, np.random.default_rng(0)).wrong)
    setup_cpu_s = import_s + statistics.median(gen_s) + (time.process_time() - t0)
    pacer.mark()
    setup_s = setup_cpu_s * pacer.overall()
    pacer.samples.clear()

    tracer = None
    passes = wl.passes(args.seconds)
    api.begin_op = pacer.mark   # a reference sample just before every op
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install(api, stdar)
        api.begin_op = lambda: (tracer.begin_op(), pacer.mark())
        for case in cases:
            case.build(api)
        passes = 1   # the layer counts are those of one pass over the bank

    order_rng = np.random.default_rng([args.seed, 0])
    check_rng = np.random.default_rng([args.seed, 1])
    # (case, op within case, CPU seconds, index of the pace sample taken
    # just before the op)
    timed = []
    attempted, failed, faults = 0, 0, []
    plain_s = traced_s = 0.0
    t_wall = time.perf_counter()
    for _ in range(passes):
        for n, i in enumerate(order_rng.permutation(len(cases))):
            case = cases[i]
            if tracer and n % OVERHEAD_EVERY == 0:
                # the same case untraced first, for the overhead figure
                tracer.uninstall()
                plain = wl.run(api, case, np.random.default_rng([args.seed, 2, n]))
                tracer.install(api, stdar)
                plain_s += sum(plain.times)
                wrong += plain.wrong
            first = len(pacer.samples)
            res = wl.run(api, case, check_rng)
            if tracer and n % OVERHEAD_EVERY == 0:
                traced_s += sum(res.times)
            timed += [(i, j, t, first + j) for j, t in enumerate(res.times)]
            attempted += wl.ops(case)
            failed += res.failed
            faults += res.faults
            wrong += res.wrong
    wall_s = time.perf_counter() - t_wall
    if tracer:
        tracer.uninstall()
    pacer.mark()     # the sample after the last op
    # each op's median over the passes, at the reference pace and in plain
    # CPU time
    paced, cpu = defaultdict(list), defaultdict(list)
    for i, j, t, k in timed:
        paced[i, j].append(t * pacer.scale(k))
        cpu[i, j].append(t)
    times = [statistics.median(v) for v in paced.values()]
    cpu_s = sum(statistics.median(v) for v in cpu.values())

    for why in faults[:5]:
        print(f"op failed: {why}", file=sys.stderr)
    for why in wrong[:5]:
        print(f"check failed: {why}", file=sys.stderr)
    if len(wrong) > 5:
        print(f"... {len(wrong) - 5} more check failures", file=sys.stderr)

    if tracer:
        metrics = tracing.layer_metrics(tracer)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans_{args.workload}_seed{args.seed}.jsonl"
        tracer.write(spans_path)
        tracing.print_layers(tracer)
        overhead = 100.0 * (traced_s / plain_s - 1.0) if plain_s > 0 else float("nan")
        print(f"tracing overhead: {overhead:+.2f}% on every {OVERHEAD_EVERY}th case "
              f"(untraced {plain_s:.3f} s, traced {traced_s:.3f} s); "
              f"{len(tracer.spans)} spans in {spans_path.relative_to(ROOT)}")
    else:
        if not times:
            raise SystemExit("error: every op failed")
        metrics = {
            "ops_per_s": (len(times) / sum(times), "ops/s"),
            "op_p50_ms": (1e3 * statistics.median(times), "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        # with fewer than TAIL_MIN_OPS ops there is no tail to report, and
        # the median stands in for it
        tail = _tail(times) if len(times) >= TAIL_MIN_OPS else statistics.median(times)
        metrics["op_tail_ms"] = (1e3 * tail, "ms")
        print(f"{args.workload}: {len(times)} ops, {passes} passes; the ops' medians over "
              f"the passes sum to {sum(times):.3f} s at the reference pace and "
              f"{cpu_s:.3f} CPU s; set-up {setup_s:.3f} s at the "
              f"reference pace and {setup_cpu_s:.3f} CPU s; {wall_s:.1f} s wall for "
              f"the passes, checks included; median reference sample "
              f"{1e3 * statistics.median(pacer.samples):.3f} ms")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
