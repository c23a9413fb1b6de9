"""One workload in one fresh process; started by run.py.

    worker.py --workload NAME --seed N --workdir DIR [--setup-only]
              [--seconds S --trace 0|1 --spans FILE]

Times its own set-up: importing rsgames and building the workload's
inputs, between two timed reference loops.  With --setup-only it stops
there.  Otherwise it runs one untimed warm-up operation, then timed
operations until S seconds have passed (with --trace 1, untraced and
traced ones in turn), then checks the last operation's outputs.  Prints
one JSON object as its last stdout line.
"""

import time

REFERENCE_S = 0.015        # nominal time of _reference_loop


def _reference_loop():
    """Fixed pure-Python work, timed around set-up and around every operation.

    The speed of a shared host drifts by +-20 % over spans of seconds; a
    time scaled by REFERENCE_S / (this loop's time next to it) divides that
    drift out, so setup_s and wall_s compare across runs and commits.
    """
    total = 0
    for i in range(200_000):
        total += i * i
    return total


def _time_reference():
    start = time.perf_counter()
    _reference_loop()
    return time.perf_counter() - start


SETUP_REFERENCES = 3       # loops timed before set-up, and again after it
REF_BEFORE_SETUP = [_time_reference() for _ in range(SETUP_REFERENCES)]
T0 = time.perf_counter()  # before numpy and rsgames are imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_TIMED_OPS = 3          # of each kind, whatever --seconds says


def _versions():
    import numpy
    import scipy

    def blas(config):
        info = config.get("Build Dependencies", {}).get("blas", {})
        return f"{info.get('name')} {info.get('version')}"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
    }


def _operation(workload, tracer=None):
    """(seconds, digest or None, error or None) of one operation."""
    start = time.perf_counter()
    try:
        if tracer is None:
            workload.run()
        else:
            with tracer.installed():
                tracer.wrap("operation", workload.run)()
    except Exception as exc:  # one failed operation is counted, not fatal
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, workload.digest(), None


def _scaled(timed):
    """Median operation time scaled to a host that runs the loop in REFERENCE_S."""
    return statistics.median(op[0] * REFERENCE_S / ref for op, ref in timed)


def _measure(workload, seconds, tracing):
    """Timed operations until `seconds` have passed, with a timed
    _reference_loop before, between and after them; each operation's
    reference time is the mean of the two loops around it.  With a tracing
    module, untraced and traced operations alternate, so drift over the run
    falls on both alike.  Returns ([(untraced op, reference time)],
    [(traced op, reference time)], tracers)."""
    plain, traced, tracers = [], [], []
    before = _time_reference()

    def timed(tracer=None):
        nonlocal before
        op = _operation(workload, tracer)
        after = _time_reference()
        ref, before = (before + after) / 2, after
        return op, ref

    start = time.perf_counter()
    while len(plain) < MIN_TIMED_OPS or time.perf_counter() - start < seconds:
        plain.append(timed())
        if tracing:
            tracers.append(tracing.Tracer())
            traced.append(timed(tracers[-1]))
    return plain, traced, tracers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="file for the traced spans")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    setup_raw_s = time.perf_counter() - T0
    setup_refs = REF_BEFORE_SETUP + [_time_reference() for _ in range(SETUP_REFERENCES)]
    setup_s = setup_raw_s * REFERENCE_S / statistics.median(setup_refs)

    import rsgames

    if Path(rsgames.__file__).resolve().parent != ROOT / "src" / "rsgames":
        print(f"rsgames imported from {rsgames.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    warm = _operation(workload)
    tracing = None
    if args.trace:
        import tracing
    plain, traced, tracers = _measure(workload, args.seconds, tracing)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ops = [warm] + [op for op, _ in plain + traced]
    errors = [err for _, _, err in ops if err is not None]
    # the last operation's outputs are checked; every other operation must
    # have produced the same bytes
    reference = ops[-1][1]
    if reference is None:
        check_failures = ["the last operation failed, so its outputs were not checked"]
    else:
        check_failures = workload.check()
    if args.trace:
        per_op = [t.metrics() for t in tracers]
        # exact counts must not change between operations of one input
        varying = sorted(name for name in per_op[0]
                         if not name.endswith(("_s", ".s"))
                         and any(m[name] != per_op[0][name] for m in per_op))
        if varying:
            check_failures.append("traced counts differ between operations: "
                                  + ", ".join(varying))
    failed = sum(1 for _, d, _ in ops
                 if d is None or d != reference or check_failures)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "setup_reference_s": setup_refs,
        "attempted": len(ops),
        "failed": failed,
        "errors": errors,
        "check_failures": check_failures,
        "digest": reference,
        "digests_equal": all(d == reference for _, d, _ in ops),
        "warmup_s": warm[0],
        "op_s": [op[0] for op, _ in plain],
        "reference_s": [ref for _, ref in plain],
        "wall_raw_s": statistics.median(op[0] for op, _ in plain),
        "wall_s": _scaled(plain),
        "peak_rss_mb": peak_rss_mb,
        "sizes": workload.sizes,
        "inputs": workload.inputs,
        "versions": _versions(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    if args.trace:
        per_layer = {name: statistics.median(m[name] for m in per_op)
                     for name in per_op[0]}
        # a difference of two scaled medians: near 0, or below it, when a
        # workload has few spans and the noise exceeds the tracing cost
        per_layer["trace.overhead_s"] = _scaled(traced) - result["wall_s"]
        result.update({
            "traced_op_s": [op[0] for op, _ in traced],
            "traced_reference_s": [ref for _, ref in traced],
            "per_layer": per_layer,
        })
        if args.spans:
            with open(args.spans, "w") as handle:
                json.dump({"operations": [
                    {"spans": [[n, s - t.spans[0][1], e - t.spans[0][1], p]
                               for n, s, e, p in t.spans],
                     "counts": t.counts}
                    for t in tracers]}, handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
