"""elcontrol benchmark: one workload per process, metrics as one JSON line.

    python3 bench/run.py --workload identify --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory, never from an installed copy.  `--trace 0` reports the
end-to-end metrics; `--trace 1` alternates untraced and traced passes and
reports the per-layer metrics (see bench/README.md).  The last line of
standard output is {"correct", "attempted", "failed", "metrics"}; the line
before it records the machine and the sample counts.  Scratch files, the
span file and a copy of the result go to .bench_work/ in the checkout.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import operator  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 9


def _fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _machine():
    import ctypes
    import glob
    import platform
    import threading

    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    blas_threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                blas_threads = int(getattr(lib, symbol)())
                break
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": blas_threads,
            "python_threads": threading.active_count()}


def _import_program():
    """Import elcontrol afresh from the checkout."""
    for name in [m for m in sys.modules if m == "elcontrol" or m.startswith("elcontrol.")]:
        del sys.modules[name]
    import elcontrol
    import elcontrol.cli  # noqa: F401
    if not os.path.abspath(elcontrol.__file__).startswith(SRC + os.sep):
        _fail(f"elcontrol imported from {elcontrol.__file__}, not from {SRC}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy shrinks every input for smoke tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "elcontrol", "cli.py")):
        _fail(f"no elcontrol sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    # one single-threaded process: BLAS must not start a thread pool
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    start = time.perf_counter()
    import numpy as np  # noqa: F401
    import yaml  # noqa: F401
    deps_s = time.perf_counter() - start

    import metrics as bench_metrics
    import speed
    import tracing
    from workloads import WORKLOADS, Tally

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)

    tally = Tally()
    tracer = tracing.Tracer() if args.trace else None
    clock = speed.Speedometer()
    passes = {"plain": [], "traced": []}
    ops, lqr_ops = [], []
    # the end-to-end run samples machine speed throughout; a traced run
    # reports raw times and leaves the sampler off
    with clock if tracer is None else contextlib.nullcontext():
        # set-up: a fresh import of the program plus writing every input,
        # done several times into fresh directories; the last one is used
        setups = []
        for rep in range(SETUP_REPEATS):
            rep_dir = os.path.join(run_dir, f"setup{rep}")
            os.makedirs(rep_dir)
            mark = clock.start(reference=True)
            _import_program()
            ctx = workload.setup(rep_dir, args.seed, args.size)
            setups.append(clock.stop(mark))
        first_command_s = time.perf_counter() - _PROCESS_START

        begin = time.perf_counter()
        while True:
            traced = bool(tracer) and len(passes["traced"]) < len(passes["plain"])
            pass_start = time.perf_counter()
            if traced:
                tracer.install()
                tracer.new_run()
                try:
                    result = workload.commands(ctx, tally, clock)
                finally:
                    tracer.uninstall()
            else:
                result = workload.commands(ctx, tally, clock)
            workload.check_outputs(ctx, tally)
            if not traced:
                workload.replay(ctx, tally, clock, ops, lqr_ops)
            passes["traced" if traced else "plain"].append(result)
            elapsed = time.perf_counter() - begin
            enough = passes["plain"] and (not tracer or passes["traced"])
            if enough and elapsed + time.perf_counter() - pass_start > args.seconds:
                break

    plain = passes["plain"]
    raw = operator.itemgetter(2)    # seconds of an interval, unscaled
    samples = {"passes": len(plain), "traced_passes": len(passes["traced"]),
               "op_samples": len(ops), "lqr_tick_samples": len(lqr_ops),
               "measured_s": round(time.perf_counter() - begin, 3),
               "first_command_s": round(first_command_s, 4),
               "dependency_import_s": round(deps_s, 4),
               "kernel_samples": len(clock.kernel)}
    if tracer is None:
        import resource
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {"peak_rss_mb": peak_kb / 1024.0}
        for name, scale in (("raw", raw), ("scaled", clock.scaled)):
            timed = {
                "setup_s": statistics.median(scale(i) for i in setups),
                "rate_per_s": statistics.median(p["rate_units"] / scale(p["rate_interval"])
                                                for p in plain),
                "commands_s": statistics.median(sum(scale(i) for i in p["intervals"])
                                                for p in plain),
                "op_us_p50": 1e6 * statistics.median(scale(i) for i in ops),
                "op_us_p90": 1e6 * bench_metrics.nearest_rank([scale(i) for i in ops], 0.90),
            }
            if name == "raw":
                samples["raw"] = {k: round(v, 6) for k, v in timed.items()}
                samples["kernel_us_median"] = round(1e6 * statistics.median(clock.kernel), 3)
            else:
                values.update(timed)
        metrics = {k: {"value": values[k], "unit": unit}
                   for k, unit in bench_metrics.END_TO_END.items()}
    else:
        tracer.write(os.path.join(WORK, f"spans-{args.workload}.csv"))
        samples["spans"] = len(tracer.spans)
        metrics = bench_metrics.per_layer(tracer, passes, [raw(i) for i in ops],
                                          [raw(i) for i in lqr_ops])

    shutil.rmtree(run_dir, ignore_errors=True)
    for message in tally.messages:
        print(f"bench: failed: {message}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "machine": _machine(),
              "samples": samples}
    out = {"correct": tally.failed == 0, "attempted": tally.attempted,
           "failed": tally.failed, "metrics": metrics}
    with open(os.path.join(WORK, f"result-{args.workload}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({**record, "result": out}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
