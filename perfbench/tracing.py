"""Spans around the calls into each spinring module, recorded from outside the program.

``Tracer.install`` replaces each traced function by a wrapper in every
module namespace that holds it, so calls are caught where the caller looks
the name up (``spinring.embedding.jacobi_eigh`` as well as
``spinring.spectral.jacobi_eigh``).  Spans stay in memory; ``metrics``
reduces them to per-layer calls, self times and computed counts.  A span's
self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("cli", "metric", "spectral", "hamiltonian", "embedding")

# (module, function) pairs wrapped in the traced run.  The cli entries carry
# the cli layer: argument parsing, payload building and JSON/CSV emit.
# p_max_closed_form, transfer_probability_time_series and the Toeplitz
# minors are called only by ``verify`` and are traced so that their time is
# not charged to the cli layer; like the feasibility threshold's own loop
# they have no self-time metric and count against coverage.
TRACED = (
    ("cli", "main"),
    ("cli", "cmd_distance"),
    ("cli", "cmd_metric_check"),
    ("cli", "cmd_classify"),
    ("cli", "cmd_embed"),
    ("cli", "cmd_variance_sweep"),
    ("cli", "cmd_verify"),
    ("metric", "distance_profile"),
    ("metric", "distance_matrix"),
    ("metric", "classify_ring"),
    ("metric", "distance_variance_sweep"),
    ("metric", "check_metric_axioms"),
    ("metric", "p_max_closed_form"),
    ("metric", "transfer_probability_time_series"),
    ("spectral", "jacobi_eigh"),
    ("spectral", "numerical_spectrum"),
    ("spectral", "circulant_spectrum"),
    ("hamiltonian", "build_full_hamiltonian"),
    ("hamiltonian", "verify_subspace_restriction"),
    ("hamiltonian", "build_single_excitation_hamiltonian"),
    ("embedding", "embeddable_spherical"),
    ("embedding", "spherical_feasibility_threshold"),
    ("embedding", "embeddable_euclidean"),
    ("embedding", "embeddable_hyperbolic"),
    ("embedding", "realize"),
    ("embedding", "toeplitz_minor_closed_form"),
    ("embedding", "toeplitz_minor_recursion"),
)
# Layers whose self time is reported; "cli" sums every cli span.
SELF_TIMED = (
    "cli",
    "metric.distance_profile",
    "metric.distance_matrix",
    "metric.classify_ring",
    "metric.distance_variance_sweep",
    "metric.check_metric_axioms",
    "spectral.jacobi_eigh",
    "spectral.numerical_spectrum",
    "spectral.circulant_spectrum",
    "hamiltonian.build_full_hamiltonian",
    "hamiltonian.verify_subspace_restriction",
    "hamiltonian.build_single_excitation_hamiltonian",
    "embedding.embeddable_spherical",
    "embedding.embeddable_euclidean",
    "embedding.embeddable_hyperbolic",
    "embedding.realize",
)
COUNTED_CALLS = (
    "metric.distance_profile",
    "spectral.jacobi_eigh",
    "hamiltonian.build_full_hamiltonian",
    "embedding.embeddable_spherical",
    "embedding.spherical_feasibility_threshold",
    "embedding.realize",
)
THRESHOLD = "embedding.spherical_feasibility_threshold"
ROOT = "cli.main"


class Span:
    __slots__ = ("request", "name", "parent", "start", "end", "child_s", "count", "ok")

    def __init__(self, request, name, parent):
        self.request = request
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.count = 0
        self.ok = False

    @property
    def duration(self) -> float:
        return self.end - self.start


def _computed_count(name, bound, result) -> int:
    """Work done, from the arguments: n^3 triples or the samples, dim^3, 8 * 4^n bytes.

    For the feasibility threshold it is 1 when the result is not monotone.
    """
    args = bound.arguments
    if name == "metric.check_metric_axioms":
        n = args["d"].n_effective
        return n**3 if n <= args["exhaustive_limit"] else args["mc_samples"]
    if name == "spectral.jacobi_eigh":
        return len(args["matrix"]) ** 3
    if name == "hamiltonian.build_full_hamiltonian":
        return 8 * 4 ** args["spec"].n
    if name == THRESHOLD:
        return int(not result.monotone_ok)
    return 0


class Tracer:
    """Records spans for calls into spinring while installed."""

    def __init__(self):
        self.spans = []
        self.request = 0
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(self.request, name, parent)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
            span.ok = True
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span.count = _computed_count(name, bound, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = {m: importlib.import_module(f"spinring.{m}") for m in MODULES}
        namespaces = list(modules.values()) + [importlib.import_module("spinring")]
        for module_name, func_name in TRACED:
            original = getattr(modules[module_name], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for namespace in namespaces:
                if getattr(namespace, func_name, None) is original:
                    setattr(namespace, func_name, wrapper)
                    self._restore.append((namespace, func_name, original))

    def uninstall(self) -> None:
        for namespace, func_name, original in reversed(self._restore):
            setattr(namespace, func_name, original)
        self._restore.clear()

    def metrics(self) -> dict:
        """Per-layer metrics as name -> (value, unit), from the recorded spans."""
        by_name = {}
        for span in self.spans:
            by_name.setdefault(span.name, []).append(span)
        self_s = {}
        for span in self.spans:
            layer = "cli" if span.name.startswith("cli.") else span.name
            self_s[layer] = self_s.get(layer, 0.0) + span.duration - span.child_s

        def spans(name):
            return by_name.get(name, [])

        def ratio(a, b):
            return a / b if b else 0.0

        out = {f"{layer}.self_s": (self_s.get(layer, 0.0), "s") for layer in SELF_TIMED}
        for name in COUNTED_CALLS:
            out[f"{name}.calls"] = (len(spans(name)), "count")
        for name, metric, unit in (
            ("metric.check_metric_axioms", "triples", "count"),
            ("spectral.jacobi_eigh", "dim_cubed", "count"),
            ("hamiltonian.build_full_hamiltonian", "dense_bytes", "bytes"),
            (THRESHOLD, "non_monotone", "count"),
        ):
            out[f"{name}.{metric}"] = (sum(s.count for s in spans(name)), unit)
        out["hamiltonian.build_full_hamiltonian.dense_bytes_max"] = (
            max((s.count for s in spans("hamiltonian.build_full_hamiltonian")), default=0),
            "bytes")
        decisions = sum(1 for s in spans("embedding.embeddable_spherical")
                        if s.parent is not None and s.parent.name == THRESHOLD)
        out[f"{THRESHOLD}.decisions_per_call"] = (
            ratio(decisions, len(spans(THRESHOLD))), "ratio")
        realized = spans("embedding.realize")
        out["embedding.realize.success_ratio"] = (
            ratio(sum(s.ok for s in realized), len(realized)), "ratio")
        reported = sum(out[f"{layer}.self_s"][0] for layer in SELF_TIMED)
        out["trace.coverage"] = (ratio(reported, sum(s.duration for s in spans(ROOT))),
                                 "ratio")
        return out
