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


# verify's routines whose checks read no flag.
FIXED_ROUTINES = ("embedding.toeplitz_minor_closed_form", "embedding.toeplitz_minor_recursion",
                  "metric.p_max_closed_form")


def test_a_traced_verify_reuses_the_fixed_checks_and_prints_the_untraced_bytes():
    # As a traced benchmark pass runs them: each request untraced, then traced
    # with the wrappers installed for that request alone.
    for check in (spinring.cli._check_toeplitz_minors, spinring.cli._check_transfer_bound):
        check.cache_clear()
    tracer = load_tracing().Tracer()
    requests = (["verify", "--n-max-full", "4", "--n-max-subspace", "5"],
                ["verify", "--n-max-full", "3", "--n-max-subspace", "3"], ["verify", "--inject-fault"])
    for request in requests:
        untraced = _run(request)
        tracer.request += 1
        tracer.install()
        try:
            assert _run(request) == untraced, request
        finally:
            tracer.uninstall()
    traced = {span.request for span in tracer.spans if span.name in FIXED_ROUTINES}
    assert len(traced) <= 1, sorted(traced)
    assert {span.request for span in tracer.spans if span.name == "cli.cmd_verify"} == {1, 2, 3}


def _run(request):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = spinring.cli.main(request)
    return rc, out.getvalue(), err.getvalue()
