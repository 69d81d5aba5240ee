"""A frozen copy of spinring, run beside the program to gauge the host's speed.

    python3 perfbench/yardstick.py --calibrate

``frozen/spinring`` is an unmodified copy of ``src/spinring`` as it was when
the benchmark was written.  The benchmark runs every request twice, back to
back: once through the program and once through the frozen copy in a worker
process, both on one CPU.  On a shared host whose speed changes in spells
of seconds to minutes, the two times of a pair see the same speed, so their
ratio holds steady where either time alone does not: over ten runs of each
workload on a 2-vCPU host, the interquartile range of the wall-clock
throughput was 18 to 31% of its median, and in yardstick seconds 4 to 5%.

A request's time is reported in yardstick seconds: the program's time over
the frozen copy's time in the same pair, times the frozen copy's calibrated
time for that request (``frozen/seconds.json``).  For the frozen code itself
that is the calibrated time; a change that makes the program twice as fast
halves it.  The worker runs in its own process, so the program's peak RSS is
its own.

``--calibrate`` rewrites ``frozen/seconds.json``: the median over
CALIBRATION_PASSES passes of the frozen copy's time for each request of
every workload, and its median set-up time.  The figures only fix the unit; a benchmark compares
runs made with the same file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FROZEN = HERE / "frozen"
CALIBRATION = FROZEN / "seconds.json"
CALIBRATION_PASSES = 5


def request_key(argv) -> str:
    """The calibration key of a request: its argv without a ``--seed`` option.

    The seed changes which triples ``metric-check`` samples, not how many.
    """
    argv = list(argv)
    if "--seed" in argv:
        at = argv.index("--seed")
        del argv[at:at + 2]
    return " ".join(argv)


class Yardstick:
    """The worker process that runs requests through the frozen copy and times them."""

    def __init__(self):
        self.process = subprocess.Popen([sys.executable, str(Path(__file__).resolve())],
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                        text=True)

    def seconds(self, argv) -> float:
        self.process.stdin.write(json.dumps(argv) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"yardstick worker exited with {self.process.wait()}")
        return float(line)

    def close(self) -> None:
        self.process.stdin.close()
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _serve() -> None:
    """Worker loop: one JSON argv per stdin line, its seconds on one stdout line."""
    sys.path.insert(0, str(FROZEN))
    # run.py caps numpy's BLAS threads as it is imported, as for the program.
    from run import WARMUP, _call

    import spinring.cli

    if not Path(spinring.cli.__file__).resolve().is_relative_to(FROZEN):
        raise SystemExit(f"imported spinring from {spinring.cli.__file__}, not {FROZEN}")
    for request in WARMUP:
        _call(spinring.cli.main, request)
    for line in sys.stdin:
        print(repr(_call(spinring.cli.main, json.loads(line))[0]), flush=True)


def _calibrate() -> None:
    import run
    import workloads

    run.pin_cpu()
    times = {}
    with Yardstick() as yardstick:
        for _ in range(CALIBRATION_PASSES):
            for workload in workloads.WORKLOADS:
                for argv in workloads.make_requests(workload, run.DEFAULT_SEED):
                    times.setdefault(request_key(argv), []).append(yardstick.seconds(argv))
    setup = [run.setup_seconds(FROZEN) for _ in range(4 * CALIBRATION_PASSES)]

    def median(values):
        return float(f"{statistics.median(values):.6g}")

    CALIBRATION.write_text(json.dumps({
        "setup_s": median(setup),
        "requests": {key: median(values) for key, values in times.items()},
    }, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calibrate", action="store_true")
    if parser.parse_args().calibrate:
        _calibrate()
    else:
        _serve()
