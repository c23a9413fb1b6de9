"""rsgames benchmark: four workloads timed end to end, or per layer when traced.

    python3 bench/run.py --workload {sim_ref,mm_deep,lq_hier,calib_bars,all}
                         --seed N --seconds S --trace {0,1}

Run from anywhere; the package is imported from src/ next to bench/.
Each workload runs in fresh processes of its own (see worker.py) with one
BLAS thread.  setup_s is the median of SETUP_SAMPLES fresh processes that
import rsgames and build the inputs (the measuring process is one of
them), each scaled by a reference loop timed in that process.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: with --trace 0 the end-to-end metrics wall_s, setup_s
and peak_rss_mb; with --trace 1 the per-layer metrics of tracing.PER_LAYER.
The lines before it name every metric with its unit, and the full record
(provenance, operation times, output digest, check results) is written to
.bench_out/ at the repository root.  Exits 1 when an operation fails or an
output check fails, 2 when the benchmark cannot run at all.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sim_ref", "mm_deep", "lq_hier", "calib_bars")
SETUP_SAMPLES = 7
DEADLINE_S = 170.0
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env(workdir):
    env = dict(os.environ)
    # one BLAS thread, below the core count: the workloads' BLAS calls are
    # small (a second thread saved ~3 % of mm_deep at q_max 200), and a
    # second thread ties every timing to the load on the other core
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["TMPDIR"] = str(workdir)
    env.pop("PYTHONPATH", None)  # rsgames comes from this checkout's src/
    return env


def _worker(args, workdir, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workdir", str(workdir)] + args
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        done = subprocess.run(cmd, env=_child_env(workdir), stdout=subprocess.PIPE,
                              text=True, timeout=remaining, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(args)}") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"worker exited {done.returncode}: {' '.join(args)}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise BenchError(f"worker printed no result: {' '.join(args)}") from exc


def _provenance():
    src = ROOT / "src" / "rsgames"
    h = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": h.hexdigest(),
    }


def run_workload(name, seed, seconds, trace, deadline):
    """Record of one workload: set-up probes, then the measuring process."""
    workdir = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    common = ["--workload", name, "--seed", str(seed)]
    try:
        probes = []
        for _ in range(SETUP_SAMPLES - 1):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            probes.append(_worker(common + ["--setup-only"], workdir, deadline))
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        spans = out_dir / f"{stem}-spans.json"
        record = _worker(common + ["--seconds", str(seconds), "--trace", str(trace),
                                   "--spans", str(spans)], workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    probes.append(record)
    record["setup_samples_s"] = [p["setup_s"] for p in probes]
    record["setup_raw_samples_s"] = [p["setup_raw_s"] for p in probes]
    record["setup_s"] = statistics.median(record["setup_samples_s"])
    record["trace"] = trace
    record["provenance"] = _provenance()
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def metrics_of(record, trace):
    if trace:
        import tracing

        return {name: {"value": record["per_layer"][name], "unit": unit}
                for name, unit in tracing.PER_LAYER}
    return {name: {"value": record[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def report(name, record, metrics):
    ok = record["failed"] == 0 and not record["check_failures"]
    traced = f" + {len(record['traced_op_s'])} traced" if "traced_op_s" in record else ""
    print(f"{name}: {len(record['op_s'])}{traced} timed operations "
          f"({record['attempted']} attempted, {record['failed']} failed, "
          f"error_rate {record['failed'] / record['attempted']:.3g}), "
          f"{'outputs checked' if ok else 'FAILED'}")
    for problem in record["errors"] + record["check_failures"]:
        print(f"  failure: {problem}")
    for metric, entry in metrics.items():
        print(f"  {metric:<40} {entry['value']:>14.6g} {entry['unit']}")
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)  # run_seconds
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running worker instead of leaving it behind
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "rsgames" / "__init__.py").is_file():
        print(f"bench: no rsgames package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except BenchError as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 2
        found = metrics_of(record, args.trace)
        correct &= report(name, record, found)
        attempted += record["attempted"]
        failed += record["failed"]
        if len(names) == 1:
            metrics = found
        else:
            metrics.update({f"{name}.{m}": v for m, v in found.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
