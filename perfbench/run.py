"""matfrob benchmark: one workload, one closed-loop caller, one process.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 36 --trace 0

Run from the root of a checkout: the library is imported from ./src.
Each op calls a public matfrob entry point; its input is built and its
output checked outside the timed region. The loop runs ops until their
timed durations add up to --seconds.

--trace 0 prints the end-to-end metrics. setup_s is the median over
SET_UP_PASSES fresh processes of the time from process start to being
ready for the first timed op; the passes are spread over the timed phase,
between ops, so that they sample the machine's slow and fast spells alike.
--trace 1 first runs the untraced loop for half of --seconds (for the
trace overhead and CPU per op), then runs a fixed number of ops with every
layer wrapped, and prints the per-layer metrics; the spans go to
.perfbench/trace-<workload>.npz.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Exit code 0 when the run completed (see "correct"); nonzero, with
no result line, when the library sources are missing.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread: on 2 cores, two OpenBLAS threads gave no wall-time gain at
# n = 200 and doubled CPU per op. Must be set before numpy is imported; the
# set-up passes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "matfrob" / "__init__.py").is_file():
    sys.exit(f"error: matfrob sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import layertrace  # noqa: E402
import workloads  # noqa: E402

SET_UP_PASSES = 7
# Ops in the traced phase, whole op cycles; fixed so that calls_per_op repeats exactly.
TRACE_OPS = {"dense": 12, "evpos": 12}
# Streams of the input generator: set-up passes, timed ops, traced ops.
SETUP_STREAM, TIMED_STREAM, TRACED_STREAM = 0, 1, 2

END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


class Loop:
    """Closed loop: build input, time the op, check the output; repeat."""

    def __init__(self, workload, rng, tracer=None):
        self.workload = workload
        self.rng = rng
        self.tracer = tracer
        self.latencies = []
        self.busy = 0.0
        self.cpu = 0.0
        self.failures = []

    def step(self):
        w = self.workload
        i = len(self.latencies)
        inp = w.make_input(self.rng, i)
        c0 = time.process_time()
        t0 = time.perf_counter()
        if self.tracer:
            self.tracer.begin_op()
        try:
            out = w.run(inp)
        except Exception as exc:  # a raising op is a failed op; keep measuring
            out, error = None, f"raised {type(exc).__name__}: {exc}"
        else:
            error = None
        finally:
            if self.tracer:
                self.tracer.end_op()
        t1 = time.perf_counter()
        self.cpu += time.process_time() - c0
        self.latencies.append(t1 - t0)
        self.busy += t1 - t0
        if error is None:
            error = w.check(inp, out)
        if error is not None:
            self.failures.append(f"{w.name} op {i}: {error}")

    def for_seconds(self, seconds):
        """Run ops until the timed durations of all ops so far reach ``seconds``."""
        while self.busy < seconds:
            self.step()
        return self

    def for_ops(self, count):
        for _ in range(count):
            self.step()
        return self


def set_up(args, workdir, k):
    """Set-up pass k: the workload, then one op of each kind on stream k, checked."""
    cls = workloads.WORKLOADS[args.workload]
    workload = cls(workdir)
    rng = np.random.default_rng([args.seed, SETUP_STREAM, k])
    return workload, Loop(workload, rng).for_ops(cls.warmup)


def timed_set_up(args, k):
    """Seconds from starting a fresh process to its being ready for the first
    timed op (imports, inputs, documents, warm-up), and that pass's Loop result.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--set-up-pass", str(k)]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up pass {k} exited {proc.returncode}")
    return seconds, json.loads(line)


def blas_runtime():
    """(threads, config) of the OpenBLAS numpy loaded, or (None, None)."""
    import ctypes
    import glob

    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get = getattr(handle, f"{prefix}get_num_threads{suffix}", None)
                if get is None:
                    continue
                get.restype = ctypes.c_int
                conf = getattr(handle, f"{prefix}get_config{suffix}")
                conf.restype = ctypes.c_char_p
                return get(), conf().decode()
    return None, None


def environment(args, ops):
    threads, config = blas_runtime()
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": ops,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": config,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def layer_metrics(tracer, untraced, traced):
    """Per-layer metrics of a traced run: {name: (value, unit)}."""
    layers, scalar_evals = tracer.per_op()
    metrics = {}
    for name, (calls, self_ms) in layers.items():
        metrics[f"{name}.calls_per_op"] = (calls, "calls/op")
        metrics[f"{name}.self_ms_per_op"] = (self_ms, "ms/op")
    metrics["funcalc.scalar_evals_per_op"] = (scalar_evals, "evals/op")
    metrics["process.cpu_ms_per_op"] = (untraced.cpu * 1e3 / len(untraced.latencies), "ms/op")
    traced_rate = len(traced.latencies) / traced.busy
    untraced_rate = len(untraced.latencies) / untraced.busy
    metrics["trace.overhead_ratio"] = (traced_rate / untraced_rate, "ratio")
    return metrics


def run(args, trace_dir=".perfbench"):
    """Run one workload; returns (result line dict, report dict)."""
    Path(trace_dir).mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=trace_dir, prefix="work-") as workdir:
        workload, warm = set_up(args, workdir, 0)
        timed = Loop(workload, np.random.default_rng([args.seed, TIMED_STREAM]))
        attempted = len(warm.latencies)
        failures = list(warm.failures)
        report = {}

        if args.trace:
            timed.for_seconds(args.seconds / 2)
            tracer = layertrace.Tracer()
            tracer.install()
            try:
                rng = np.random.default_rng([args.seed, TRACED_STREAM])
                traced = Loop(workload, rng, tracer).for_ops(TRACE_OPS[args.workload])
            finally:
                tracer.uninstall()
            tracer.save(Path(trace_dir) / f"trace-{args.workload}.npz")
            attempted += len(traced.latencies)
            failures += traced.failures
            report["absent"] = tracer.absent
            metrics = layer_metrics(tracer, timed, traced)
        else:
            setups = []
            for k in range(1, SET_UP_PASSES + 1):
                seconds, child = timed_set_up(args, k)
                setups.append(seconds)
                attempted += child["attempted"]
                failures += child["failures"]
                timed.for_seconds(args.seconds * k / SET_UP_PASSES)
            lat_ms = np.asarray(timed.latencies) * 1e3
            metrics = {
                "throughput_ops_s": len(timed.latencies) / timed.busy,
                "latency_p90_ms": np.percentile(lat_ms, 90),
                "setup_s": statistics.median(setups),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
            report["error_rate"] = len(timed.failures) / len(timed.latencies)
            # Printed, not bounded: the machine runs ops in fast and slow spells
            # of a few seconds, and the median jumps to whichever holds more ops.
            report["latency_p50_ms"] = np.percentile(lat_ms, 50)
            report["setup_passes_s"] = setups

    attempted += len(timed.latencies)
    failures += timed.failures
    report["failures"] = failures
    ops = {"timed": len(timed.latencies), "attempted": attempted}
    report["environment"] = environment(args, ops)
    line = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    return line, report


def set_up_pass(args):
    """Body of one set-up process: set up, report on one line, exit."""
    Path(".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=".perfbench", prefix="setup-") as workdir:
        _, warm = set_up(args, workdir, args.set_up_pass)
        print(json.dumps({"attempted": len(warm.latencies), "failures": warm.failures}), flush=True)
    return 0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--set-up-pass", type=int, default=None,
                    help="run only set-up pass K and print its outcome (used by the timed run)")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.set_up_pass is not None:
        return set_up_pass(args)
    line, report = run(args)
    print("environment " + json.dumps(report["environment"]))
    for name in report.get("absent", []):
        print(f"absent    {name} (not in this version of matfrob; reported as 0)")
    if "error_rate" in report:
        print(f"error_rate {report['error_rate']:.6g} (failed / attempted timed ops)")
        print(f"latency_p50_ms {report['latency_p50_ms']:.6g} ms (median op latency)")
        print("setup passes s " + " ".join(f"{s:.4f}" for s in report["setup_passes_s"]))
    for name, m in line["metrics"].items():
        print(f"metric    {name:<52} {m['value']:.6g} {m['unit']}")
    for failure in report["failures"][:20]:
        print(failure, file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
