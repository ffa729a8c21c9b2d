"""Benchmark of twoslit: one workload, one process, one thread.

    python3 perfbench/run.py --workload sfm_truth --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ./src.
The BLAS thread variables are set to 1 before numpy is imported. Set-up
(importing twoslit afresh, building the inputs, writing the files and a
warm-up) runs SETUP_REPEATS times and is reported as its median. The
measured phase then runs whole rounds of operations until --seconds
have passed, timing each operation and checking each output between
operations, outside the clocks. Every time figure is given in seconds
of a quiet machine: divided by the time of calibrate.kernel measured
next to it, and multiplied by calibrate.NOMINAL_S (see calibrate.py).
The raw figures are in the record. With --trace 0 the last line of
standard output is a JSON object with the end-to-end metrics; with
--trace 1 every layer in tracing.LAYERS is wrapped and the line holds the
per-layer metrics instead. A fuller record of each run, with the run
environment, is written under perfbench/out/.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_VARIABLES:
    os.environ[_name] = "1"

import numpy as np  # noqa: E402  (after the thread variables)

import calibrate  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3
SETUP_CALIBRATION = 5
TAIL_BEYOND = 10


def import_library():
    """Import twoslit from ./src afresh; numpy stays imported."""
    for name in [n for n in sys.modules if n == "twoslit" or n.startswith("twoslit.")]:
        del sys.modules[name]
    ts = importlib.import_module("twoslit")
    importlib.import_module("twoslit.cli")
    if os.path.dirname(os.path.abspath(ts.__file__)) != os.path.join(SRC, "twoslit"):
        raise ImportError(f"twoslit was imported from {ts.__file__}, not from {SRC}")
    return ts


def execute(op, problems, failures):
    """Run one operation; returns (wall, cpu, midpoint) or None when it
    failed."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # any error in the program is a failed operation
        failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
        return None
    t1 = time.perf_counter()
    cpu = time.process_time() - c0
    wall, midpoint = t1 - t0, 0.5 * (t0 + t1)
    try:
        found = op.check(result)
    except Exception as exc:  # an output the check cannot read is wrong
        found = [f"check raised {type(exc).__name__}: {exc}"]
    problems.extend(f"{op.label}: {p}" for p in found)
    return wall, cpu, midpoint


def set_up(workload_class, seed, workdir, problems, failures, clock):
    """One set-up; returns its wall time, the kernel's median wall time
    around it, the library and the workload."""
    before = clock.samples(SETUP_CALIBRATION)
    t0 = time.perf_counter()
    ts = import_library()
    workload = workload_class(ts, seed, workdir)
    for op in workload.warm_up_ops():
        execute(op, problems, failures)
    seconds = time.perf_counter() - t0
    after = clock.samples(SETUP_CALIBRATION)
    return seconds, 0.5 * (before + after), ts, workload


def environment():
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def tail(times, percentile):
    """Nearest-rank value of `times` at a whole percentile, and the number
    of operations above it."""
    ordered = np.sort(times)
    rank = max(int(np.ceil(percentile * len(ordered) / 100.0 - 1e-9)), 1)
    return float(ordered[rank - 1]), len(ordered) - rank


def typical_total(values, kinds):
    """Total of `values` with each operation at the median of its kind.

    An operation that a stall of the shared machine stretched then adds
    no more than its kind's median; a slower kind still adds in full.
    """
    return sum(float(np.median(values[kinds == kind])) * int(np.sum(kinds == kind))
               for kind in np.unique(kinds))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isdir(os.path.join(SRC, "twoslit")):
        print(f"error: no library source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, "work", tag)
    problems, failures = [], []
    clock = calibrate.Clock()
    setups, setup_kernels = [], []
    for _ in range(SETUP_REPEATS):
        seconds, kernel_s, ts, workload = set_up(
            workloads.WORKLOADS[args.workload], args.seed, workdir, problems,
            failures, clock)
        setups.append(seconds)
        setup_kernels.append(kernel_s)
    try:
        reference.self_test(ts.golden)
    except AssertionError as exc:
        problems.append(str(exc))
    warm_up_failures = len(failures)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    walls, cpus, midpoints, kinds, items, rounds = [], [], [], [], 0, 0
    attempted = 0
    gc.collect()
    started = time.perf_counter()
    while time.perf_counter() - started < args.seconds:
        for op in workload.round_ops(rounds):
            attempted += 1
            if tracer is not None:
                tracer.op_id = attempted - 1
            clock.maybe_sample()
            timed = execute(op, problems, failures)
            if timed is not None:
                walls.append(timed[0])
                cpus.append(timed[1])
                midpoints.append(timed[2])
                kinds.append(op.label)
                items += op.items
        rounds += 1
    clock.sample()
    measured = time.perf_counter() - started
    failed = len(failures) - warm_up_failures
    if warm_up_failures:
        problems.append(f"{warm_up_failures} warm-up operation(s) failed")

    if not walls:
        print(f"error: all {attempted} operations failed, last: {failures[-1]}",
              file=sys.stderr)
        return 1
    walls, cpus, kinds = np.array(walls), np.array(cpus), np.array(kinds)
    kernel_wall, kernel_cpu = clock.reference(np.array(midpoints))
    speed = calibrate.NOMINAL_S / kernel_wall
    tail_pct = workload.tail_percentile
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def figures(walls, cpus, setups):
        tail_s, beyond = tail(walls, tail_pct)
        return beyond, {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_median_s": {"value": float(np.median(walls)), "unit": "s"},
            "op_tail_s": {"value": tail_s, "unit": "s"},
            "items_per_s": {"value": items / typical_total(walls, kinds),
                            "unit": "items/s"},
            "cpu_us_per_item": {"value": 1e6 * typical_total(cpus, kinds) / items,
                                "unit": "us"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    beyond, end_to_end = figures(
        walls * speed, cpus * (calibrate.NOMINAL_S / kernel_cpu),
        [s * calibrate.NOMINAL_S / k for s, k in zip(setups, setup_kernels)])
    _, raw = figures(walls, cpus, setups)
    if beyond < TAIL_BEYOND:
        print(f"warning: only {beyond} operations above p{tail_pct}, so op_tail_s "
              f"is no tail; run longer than {args.seconds} s", file=sys.stderr)
    metrics = tracer.metrics() if tracer is not None else end_to_end
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    os.makedirs(OUT, exist_ok=True)
    env = environment()
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, environment=env,
                  item=workload.item, items=items, rounds=rounds,
                  measured_s=measured, setup_runs_s=setups,
                  tail_percentile=tail_pct, operations_above_tail=beyond,
                  end_to_end=end_to_end, raw_end_to_end=raw,
                  kernel_s={"nominal": calibrate.NOMINAL_S,
                            "setup": setup_kernels,
                            "measured_median": float(np.median(clock.wall)),
                            "measured_samples": len(clock.wall)},
                  op_median_s_by_kind={
                      kind: float(np.median((walls * speed)[kinds == kind]))
                      for kind in np.unique(kinds).tolist()},
                  problems=problems[:20], failures=failures[:20])
    if tracer is not None:
        record["self_share"] = {
            name[:-len(".self_s")]: m["value"] / float(walls.sum())
            for name, m in metrics.items() if name.endswith(".self_s")}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=2)
    if tracer is not None:
        tracer.save(os.path.join(OUT, f"trace-{tag}.npz"))
    for line in (problems + failures)[:10]:
        print(line, file=sys.stderr)
    print("environment: " + json.dumps(env))
    print(f"{attempted} operations in {rounds} rounds, {items} {workload.item}s, "
          f"{beyond} above the tail percentile p{tail_pct}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
