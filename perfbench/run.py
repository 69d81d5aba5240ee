#!/usr/bin/env python3
"""Closed-loop benchmark of the spinring CLI, one client in one process.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Run from the repository root.  The script builds the workload's request
list from ``--seed`` (see ``workloads.py``), calls ``spinring.cli.main(argv)``
in process for each request with stdout and stderr captured, times the call,
and checks the output with ``gate.py`` outside the timed region.  It runs
whole passes over the list, in the same order: at least two, and more
while they fit in ``--seconds``.

Each request runs twice per pass, back to back: through the program and
through a frozen copy of spinring in a worker process (``yardstick.py``),
in alternating order, all on one CPU.  Its time in yardstick seconds is
the program's time over the frozen copy's, times the frozen copy's
calibrated time for that request; on the shared host this was tuned on,
wall-clock times moved by a factor of two within minutes while such ratios
held within a few percent.  The latency of each request in the list is the
median of its times over the passes, and p50 and p90 are Harrell-Davis
estimates over the requests; the throughput is the number of requests run
over their times summed over the passes.  The line before the result also gives the
wall-clock figures.  A request's output is gated once; when it comes back
byte-identical later, the first verdict stands.

With ``--trace 0`` the last line of stdout is a JSON result with the
end-to-end metrics; with ``--trace 1`` it runs one pass, each request both
untraced and traced (``tracing.py``), and reports the per-layer metrics.
The line before it records the environment, sample counts, the error rate
and any failed requests.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

# One client and no worker threads: numpy's BLAS is capped at one thread,
# which must be set before numpy is first imported.
BLAS_THREADS = 1
BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _name in BLAS_VARIABLES:
    os.environ[_name] = str(BLAS_THREADS)

import workloads  # noqa: E402
from yardstick import CALIBRATION, FROZEN, Yardstick, request_key  # noqa: E402

DEFAULT_SEED = 1
DEFAULT_SECONDS = 20.0
# Not used while tuning the benchmark; for confirming a later claim.
HELD_OUT_SEED = 7919
# Each request runs once per pass; the median of its times is its latency.
# The order stays the same in every pass, since the peak RSS depends on
# which requests ran before the largest one (by up to 17% in shuffled
# orders).
MIN_PASSES = 2
SETUP_SCRIPT = ("import sys, time; sys.path.insert(0, sys.argv[1]); import spinring; "
                "print(time.perf_counter())")
# Small requests run once before timing, so lazy imports and first-call
# set-up inside the interpreter are not charged to the first timed request.
WARMUP = (
    ["distance", "--n", "8"],
    ["distance", "--n", "8", "--format", "csv"],
    ["metric-check", "--n", "9"],
    ["classify", "--n", "9"],
    ["variance-sweep", "--n-max", "9"],
    ["embed", "--n", "5", "--space", "spherical"],
    ["embed", "--n", "5", "--space", "euclidean"],
    ["embed", "--n", "5", "--space", "hyperbolic"],
    ["verify", "--n-max-full", "4", "--n-max-subspace", "4"],
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_cpu() -> int:
    """Keeps this process, and every process it starts, on one CPU; returns that CPU.

    The program, the frozen copy's worker and the set-up interpreters run one
    at a time, so they never wait for each other's CPU.  On the shared host
    this was tuned on, the two times of a pair taken on different CPUs
    differed by up to a factor of two; on one CPU, by a few percent.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def setup_seconds(path) -> float:
    """Fresh interpreter start to ``import spinring`` done, from the package under ``path``."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", SETUP_SCRIPT, str(path)],
                          capture_output=True, text=True, check=True, timeout=60)
    # perf_counter is the system-wide monotonic clock, shared with the child.
    return float(done.stdout.split()[-1]) - start


def _setup_pair(frozen_first) -> tuple:
    """Set-up times of the program and of the frozen copy, back to back."""
    if frozen_first:
        frozen = setup_seconds(FROZEN)
        return setup_seconds(SRC), frozen
    program = setup_seconds(SRC)
    return program, setup_seconds(FROZEN)


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "spinring").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _environment(seed, cpu) -> dict:
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba_imported": "numba" in sys.modules,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def _call(main, argv):
    """One request: (seconds, exit code or None on an exception, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    rc = None
    # Each request starts without garbage from the last one, as a fresh CLI
    # process would; cycles held by a caught exception can hold large arrays.
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the gate reports it as a failed request
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    return seconds, rc, out.getvalue(), err.getvalue()


class Runner:
    """Runs requests through the CLI, gating each one as it finishes.

    ``verdicts`` maps a request to the digest of its first output and that
    output's verdict; runners of one benchmark run share it.  With a
    ``yardstick``, each request is also run through the frozen copy, right
    before or right after the program.
    """

    def __init__(self, main, gate, verdicts, tracer=None):
        self.main = main
        self.gate = gate
        self.verdicts = verdicts
        self.tracer = tracer
        self.latencies = []
        self.frozen = []
        self.output_bytes = 0
        self.failures = []
        self.mismatches = 0

    def _verdict(self, argv, rc, stdout, stderr):
        digest = hashlib.sha256(f"{rc}\0{stdout}\0{stderr}".encode()).digest()
        known = self.verdicts.get(tuple(argv))
        if known is not None and known[0] == digest:
            return known[1]
        try:
            verdict = self.gate.check(argv, rc, stdout, stderr)
        except Exception as exc:  # an output the gate cannot read is wrong
            verdict = ("mismatch", f"unreadable output: {exc!r}")
        self.verdicts[tuple(argv)] = (digest, verdict)
        return verdict

    def run(self, requests, yardstick=None, flip=0) -> float:
        """Runs the requests in order and returns the time spent inside the CLI.

        With a yardstick, request k runs after its frozen twin when k + flip
        is odd and before it otherwise.
        """
        total = 0.0
        for k, argv in enumerate(requests):
            if self.tracer is not None:
                self.tracer.request += 1
            first = yardstick is not None and (k + flip) % 2
            if first:
                self.frozen.append(yardstick.seconds(argv))
            seconds, rc, stdout, stderr = _call(self.main, argv)
            if yardstick is not None and not first:
                self.frozen.append(yardstick.seconds(argv))
            total += seconds
            self.latencies.append(seconds)
            self.output_bytes += len(stdout.encode())
            verdict = self._verdict(argv, rc, stdout, stderr)
            if verdict is not None:
                self.mismatches += verdict[0] == "mismatch"
                self.failures.append({"argv": argv, "kind": verdict[0],
                                      "reason": verdict[1]})
        return total


def _per_request(times, count) -> list:
    """Each request's median time over the passes."""
    return [statistics.median(times[k::count]) for k in range(count)]


def harrell_davis(values, p) -> float:
    """The Harrell-Davis estimate of the p-quantile: a weighted mean of every order statistic.

    The i-th smallest of n values weighs the chance that a Beta(p(n + 1),
    (1 - p)(n + 1)) variable lies between (i - 1)/n and i/n.  The request
    latencies of a workload have gaps (14% between neighbours at the median
    of scan, 29% at its p90), across which a single order statistic jumps
    when noise swaps two requests; a weighted mean moves smoothly.
    """
    import numpy

    x = numpy.sort(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    t = numpy.linspace(0.0, 1.0, 100_001)
    log_density = (a - 1) * numpy.log(t[1:-1]) + (b - 1) * numpy.log1p(-t[1:-1])
    density = numpy.concatenate(([0.0], numpy.exp(log_density - log_density.max()), [0.0]))
    cdf = numpy.concatenate(([0.0], numpy.cumsum(density[1:] + density[:-1])))
    weights = numpy.diff(numpy.interp(numpy.arange(n + 1) / n, t, cdf / cdf[-1]))
    return float(weights @ x)


def _percentiles(latencies) -> tuple:
    """p50 and p90 of the request latencies."""
    return harrell_davis(latencies, 0.5), harrell_davis(latencies, 0.9)


def _end_to_end(args, runner_factory) -> tuple:
    calibration = json.loads(CALIBRATION.read_text())
    requests = workloads.make_requests(args.workload, args.seed)
    count = len(requests)
    nominal = [calibration["requests"][request_key(argv)] for argv in requests]
    runner = runner_factory()
    # The first import of each copy writes its bytecode cache; not timed.
    setup_seconds(SRC)
    setup_seconds(FROZEN)
    with Yardstick() as yardstick:
        # One pair of set-up times before the first pass and one after each
        # pass, so the median spans the run rather than one moment of it.
        setup = [_setup_pair(False)]
        pass_seconds = []
        start = time.perf_counter()
        while True:
            begun = time.perf_counter()
            pass_seconds.append(runner.run(requests, yardstick, len(pass_seconds) % 2))
            setup.append(_setup_pair(len(pass_seconds) % 2))
            now = time.perf_counter()
            # Stop once another pass would end further past --seconds than short of it.
            if (len(pass_seconds) >= MIN_PASSES
                    and now - start + (now - begun) / 2 >= args.seconds):
                break
    scaled = [seconds / frozen * nominal[k % count] for k, (seconds, frozen)
              in enumerate(zip(runner.latencies, runner.frozen))]
    per_request = _per_request(scaled, count)
    p50, p90 = _percentiles(per_request)
    metrics = {
        "setup_s": (statistics.median(program / frozen for program, frozen in setup)
                    * calibration["setup_s"], "s"),
        "throughput_rps": (len(scaled) / sum(scaled), "req/s"),
        "latency_p50_s": (p50, "s"),
        "latency_p90_s": (p90, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    samples = {"setup_s": len(setup), "throughput_rps": len(scaled),
               "latency_p50_s": count, "latency_p90_s": count, "peak_rss_mb": 1}
    wall = {}
    for name, times, setups in (("program", runner.latencies, [p for p, _ in setup]),
                                ("frozen", runner.frozen, [f for _, f in setup])):
        wall[name] = dict(zip(("latency_p50_s", "latency_p90_s"),
                              _percentiles(_per_request(times, count))),
                          setup_s=statistics.median(setups),
                          throughput_rps=len(times) / sum(times))
    return runner, metrics, {"passes": len(pass_seconds), "pass_seconds": pass_seconds,
                             "samples": samples, "wall_clock": wall,
                             "latencies_s": per_request}


def _traced(args, runner_factory, tracer) -> tuple:
    requests = workloads.make_requests(args.workload, args.seed)
    plain, runner = runner_factory(), runner_factory(tracer)
    plain_seconds = traced_seconds = 0.0
    # Each request runs untraced and traced back to back, so both see the same
    # host load; the order alternates, because a repeat can run faster.
    for k, argv in enumerate(requests):
        if k % 2:
            plain_seconds += plain.run([argv])
        tracer.install()
        try:
            traced_seconds += runner.run([argv])
        finally:
            tracer.uninstall()
        if not k % 2:
            plain_seconds += plain.run([argv])
    metrics = tracer.metrics()
    metrics["cli.output_bytes"] = (runner.output_bytes, "bytes")
    metrics["trace.untraced_throughput_rps"] = (len(requests) / plain_seconds, "req/s")
    metrics["trace.traced_throughput_rps"] = (len(requests) / traced_seconds, "req/s")
    metrics["trace.overhead_ratio"] = (traced_seconds / plain_seconds, "ratio")
    runner.latencies += plain.latencies
    runner.failures += plain.failures
    runner.mismatches += plain.mismatches
    return runner, metrics, {"passes": 2, "spans": len(tracer.spans)}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "spinring" / "__init__.py").is_file():
        print(f"error: no spinring sources under {SRC}", file=sys.stderr)
        return 2
    cpu = pin_cpu()
    sys.path.insert(0, str(SRC))

    import spinring.cli
    from gate import Gate
    from tracing import Tracer

    if not Path(spinring.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported spinring from {spinring.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    gate = Gate(SRC / "spinring" / "schemas" / "output-v1.schema.json")
    for request in WARMUP:
        _call(spinring.cli.main, request)

    verdicts = {}

    def runner_factory(tracer=None):
        # Looked up per call, so the traced run reaches the wrapped cli.main.
        return Runner(lambda request: spinring.cli.main(request), gate, verdicts, tracer)

    if args.trace:
        runner, metrics, detail = _traced(args, runner_factory, Tracer())
    else:
        runner, metrics, detail = _end_to_end(args, runner_factory)
    attempted = len(runner.latencies)
    failed = len(runner.failures)
    detail.update({
        "workload": args.workload,
        "trace": args.trace,
        "environment": _environment(args.seed, cpu),
        "error_rate": failed / attempted,
        "failures": runner.failures,
    })
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": runner.mismatches == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
