#!/usr/bin/env python3
"""Quick self-test of the benchmark: seeded request lists and the correctness gate.

    python3 perfbench/selftest.py

Checks that one seed always yields the same request list, that every
request has a calibrated frozen-copy time, and that the gate
accepts real outputs but rejects a perturbed distance entry, a
``FactorizationFailure`` on stderr, a crash, and a "not embeddable" verdict
for rings that embed.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import run  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402
from gate import Gate  # noqa: E402


def main() -> int:
    import spinring.cli

    gate = Gate(SRC / "spinring" / "schemas" / "output-v1.schema.json")
    failures = []

    def expect(condition, message):
        if not condition:
            failures.append(message)

    for workload in workloads.WORKLOADS:
        expect(workloads.make_requests(workload, 5) == workloads.make_requests(workload, 5),
               f"{workload}: seed 5 gave two different request lists")
    expect(workloads.make_requests("scan", 5) != workloads.make_requests("scan", 6),
           "scan: seeds 5 and 6 gave one list")
    calibrated = json.loads(yardstick.CALIBRATION.read_text())["requests"]
    for workload in workloads.WORKLOADS:
        for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
            missing = [argv for argv in workloads.make_requests(workload, seed)
                       if yardstick.request_key(argv) not in calibrated]
            expect(not missing, f"{workload}: no frozen-copy time for {missing[:3]}")

    def call(argv):
        _, rc, stdout, stderr = run._call(spinring.cli.main, argv)
        return argv, rc, stdout, stderr

    for argv in (["distance", "--n", "10"], ["distance", "--n", "10", "--format", "csv"],
                 ["embed", "--n", "9", "--space", "euclidean"],
                 ["embed", "--n", "8", "--space", "euclidean"]):
        verdict = gate.check(*call(argv))
        expect(verdict is None, f"{argv}: gate rejected a correct output: {verdict}")

    argv, rc, stdout, stderr = call(["distance", "--n", "10"])
    doc = json.loads(stdout)
    doc["payload"]["distance_matrix"][2][7] += 1e-9
    verdict = gate.check(argv, rc, json.dumps(doc), stderr)
    expect(verdict is not None and verdict[0] == "mismatch",
           f"perturbed distance entry passed the gate: {verdict}")

    argv = ["embed", "--n", "120", "--space", "euclidean"]
    stderr = "error: centered Gram matrix indefinite: min eigenvalue -3.704e-01\n"
    verdict = gate.check(argv, 1, "", stderr)
    expect(verdict is not None and verdict[0] == "error",
           f"FactorizationFailure stderr passed the gate: {verdict}")

    verdict = gate.check(["distance", "--n", "10"], None, "", "Traceback ...\n")
    expect(verdict is not None and verdict[0] == "mismatch",
           f"an exception passed the gate: {verdict}")

    for space in ("euclidean", "hyperbolic", "spherical"):
        argv, rc, stdout, stderr = call(["embed", "--space", space, "--n", "9"])
        doc = json.loads(stdout)
        expect(rc == 0 and doc["payload"]["embeddable"], f"{argv}: expected to embed")
        doc["payload"].update(embeddable=False, realization=None)
        stderr = f"error: not embeddable in {space} space at kappa=None\n"
        verdict = gate.check(argv, 1, json.dumps(doc), stderr)
        expect(verdict is not None and verdict[0] == "mismatch",
               f"a wrong negative {space} verdict passed the gate: {verdict}")

    for message in failures:
        print(f"FAIL {message}")
    print("selftest", "failed" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
