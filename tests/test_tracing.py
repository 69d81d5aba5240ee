"""The benchmark's per-layer tracer still finds and binds the functions it wraps.

``perfbench/tracing.py`` wraps spinring functions by name and binds some of
their parameters by name, so a rename in the program silently empties its
metrics.  The module is executed from its source text, without importing it
as a package or writing bytecode next to it.
"""

import contextlib
import io
import types
from pathlib import Path

import spinring.cli

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

REQUESTS = (
    ["metric-check", "--n", "9"],
    ["embed", "--n", "7", "--space", "spherical"],
    ["embed", "--n", "7", "--space", "euclidean"],
    ["embed", "--n", "7", "--space", "hyperbolic"],
    ["verify", "--n-max-full", "4", "--n-max-subspace", "5"],
)


def load_tracing():
    module = types.ModuleType("tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_tracer_records_the_cli_layers():
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        for request in REQUESTS:
            with contextlib.redirect_stdout(io.StringIO()):
                assert spinring.cli.main(request) == 0, request
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["embedding.realize.calls"][0] > 0
    assert metrics["metric.check_metric_axioms.triples"][0] > 0
    assert metrics["cli.self_s"][0] > 0.0
