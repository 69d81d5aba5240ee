"""Command-line interface for ring distances, metric checks, and embeddings.

Every command emits a single self-describing JSON document with a stable
field order (or CSV with a fixed header where tabular output makes sense),
so identical inputs produce byte-identical output.  Documents are written
by one recursive writer as the exact text of ``json.dumps(doc, indent=2)``,
floats in Python's shortest round-trip representation.  Float matrices
take one ``repr`` per distinct value, and a ring's circulant matrices are
written from their first row: each row's text is a slice of that row's
doubled text.  Exit codes: 0 for success or a verified positive verdict,
1 for a negative mathematical verdict or failed verification, 2 for usage
errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import functools
import itertools
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .embedding import (
    EmbeddingSpace,
    embeddable_euclidean,
    embeddable_hyperbolic,
    embeddable_spherical,
    kappa_max,
    realize,
    spherical_feasibility_threshold,
    toeplitz_minor_closed_form,
    toeplitz_minor_recursion,
)
from .errors import (
    DimensionTooLarge,
    IndexOutOfRange,
    InvalidArgs,
    InvalidSpec,
    QuotientOnOddRing,
    RestrictionMismatch,
    SpinRingError,
)
from .hamiltonian import (
    Coupling,
    RingSpec,
    build_single_excitation_hamiltonian,
    verify_subspace_restriction,
)
from .metric import (
    MetricClassification,
    check_metric_axioms,
    classify_ring,
    distance_matrix,
    distance_variance_sweep,
    p_max,
    p_max_closed_form,
    transfer_probability_time_series,
    zero_distance_pairs,
)
from .spectral import circulant_eigenspaces, numerical_spectra

SCHEMA_VERSION = "1"


def _document(args, payload: dict) -> dict:
    """The output document of one parsed command; its ``params`` are the parsed options."""
    params = {key: value for key, value in vars(args).items()
              if key not in ("command", "out", "seed")}
    # Documents list the seed last; argparse puts the shared --seed first.
    params["seed"] = args.seed
    return {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "params": params,
        "payload": payload,
    }


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


@dataclasses.dataclass(frozen=True)
class _Circulant:
    """The matrix M[i, j] = row[(j - i) mod N], written from the text of its first row."""

    row: np.ndarray


# json.dumps writes these float reprs as JavaScript names.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _rows_parts(rows: list, pad: str, out: list) -> None:
    """Append a JSON list of lists from each row's joined text; ``pad`` is newline plus indent."""
    start = pad + "  [" + pad + "    "
    cells = [pad + "  ]," + start] * (2 * len(rows))
    cells[0] = "[" + start
    cells[1::2] = rows
    out += cells
    out.append(pad + "  ]" + pad + "]")


def _matrix_json(matrix: np.ndarray, indent: int) -> str:
    """``json.dumps(matrix.tolist(), indent=2)`` at ``indent`` spaces deep.

    ``repr`` runs once per distinct bit pattern (-0.0 apart from 0.0).
    """
    distinct, index = np.unique(matrix.ravel().view(np.int64), return_inverse=True)
    texts = np.array([repr(v) for v in distinct.view(np.float64).tolist()], dtype=object)
    pad = "\n" + " " * indent
    rows = texts[index].reshape(matrix.shape).tolist()
    out = []
    _rows_parts([("," + pad + "    ").join(row) for row in rows], pad, out)
    return "".join(out)


def _circulant_parts(row: np.ndarray, indent: int, out: list) -> None:
    """Append the text ``_matrix_json`` gives the circulant with first row ``row``, from N reprs.

    Row i of the matrix is window N - i of the doubled first row, so its
    text is one slice of the doubled row's text.
    """
    n = len(row)
    pad = "\n" + " " * indent
    sep = "," + pad + "    "
    texts = [_NONFINITE.get(text, text) for text in map(repr, row.tolist())] * 2
    starts = [0, *itertools.accumulate(len(text) + len(sep) for text in texts)]
    doubled = sep.join(texts)
    _rows_parts([doubled[starts[n - i]:starts[2 * n - i] - len(sep)] for i in range(n)], pad, out)


def _json_parts(value, indent: int, out: list) -> None:
    """Append the text of ``json.dumps(value, indent=2)``, ``indent`` spaces deep, to ``out``.

    Arrays are written as their nested lists, enums as their values and
    numpy scalars as Python numbers.  Finite float matrices take one
    ``repr`` per distinct value, circulants one per entry of their first row.
    """
    if isinstance(value, float):
        text = float.__repr__(value)
        out.append(_NONFINITE.get(text, text))
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        pad = "\n" + " " * (indent + 2)
        opener = "{" + pad
        for key, item in value.items():
            out.append(opener + encode_basestring_ascii(key) + ": ")
            _json_parts(item, indent + 2, out)
            opener = "," + pad
        out.append(pad[:-2] + "}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        pad = "\n" + " " * (indent + 2)
        opener = "[" + pad
        for item in value:
            out.append(opener)
            _json_parts(item, indent + 2, out)
            opener = "," + pad
        out.append(pad[:-2] + "]" if value else "[]")
    elif isinstance(value, _Circulant):
        _circulant_parts(value.row, indent, out)
    elif (isinstance(value, np.ndarray) and value.ndim == 2 and value.dtype == np.float64
          and value.size and np.isfinite(value).all()):
        out.append(_matrix_json(value, indent))
    elif isinstance(value, (np.ndarray, np.generic)):
        _json_parts(value.tolist(), indent, out)
    elif isinstance(value, enum.Enum):
        _json_parts(value.value, indent, out)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit_json(doc: dict, out_path) -> None:
    out = []
    _json_parts(doc, 0, out)
    out.append("\n")
    _emit("".join(out), out_path)


def cmd_distance(args) -> int:
    spec = RingSpec(args.n, Coupling(args.coupling), args.strength)
    d = distance_matrix(spec, quotient=args.quotient)
    # profile[0] is +0.0, so the diagonal of p_max is exactly 1.0.
    p = np.exp(-d.profile)
    if args.format == "csv":
        n = d.n_effective
        sites = [f"{k}," for k in range(1, n + 1)]
        values = [f"{a!r},{b!r}" for a, b in zip(d.profile.tolist(), p.tolist())]
        # Pair (i, j), i < j, has separation j - i: its line is "i," + "j," + "d,p".
        cells = ["i,j,distance,p_max"]
        for i in range(n - 1):
            row = ["\n" + sites[i]] * (3 * (n - 1 - i))
            row[1::3] = sites[i + 1:]
            row[2::3] = values[1:n - i]
            cells += row
        cells.append("\n")
        _emit("".join(cells), args.out)
        return 0
    zero_pairs = (zero_distance_pairs(d) + 1).tolist()
    payload = {
        "n": args.n,
        "coupling": args.coupling,
        "strength": args.strength,
        "quotient": args.quotient,
        "n_effective": d.n_effective,
        "distance_matrix": _Circulant(d.profile),
        "p_max_matrix": _Circulant(p),
        "semi_metric": len(zero_pairs) > 0,
        "zero_distance_pairs": zero_pairs,
    }
    _emit_json(_document(args, payload), args.out)
    return 0


def cmd_metric_check(args) -> int:
    spec = RingSpec(args.n)
    d = distance_matrix(spec, quotient=args.quotient)
    report = check_metric_axioms(d, seed=args.seed)
    payload = {
        "n": args.n,
        "quotient": args.quotient,
        "n_effective": d.n_effective,
        "identity_ok": report.identity_ok,
        "symmetry_ok": report.symmetry_ok,
        "triangle_ok": report.triangle_ok,
        "separation_ok": report.separation_ok,
        "exhaustive": report.exhaustive,
        "classification": report.classification,
        "violations": [
            {"kind": v.kind, "sites": v.sites, "magnitude": v.magnitude}
            for v in report.violations
        ],
    }
    _emit_json(_document(args, payload), args.out)
    acceptable = (
        MetricClassification.METRIC,
        MetricClassification.SEMI_METRIC_ANTIPODAL,
    )
    return 0 if report.classification in acceptable else 1


def cmd_classify(args) -> int:
    spec = RingSpec(args.n)
    quotient = args.n % 2 == 0
    d = distance_matrix(spec, quotient=quotient)
    classification = classify_ring(args.n, d)
    payload = {
        "n": args.n,
        "n_effective": d.n_effective,
        "quotient_applied": quotient,
        "kind": classification.kind,
        "uniform": classification.uniform,
        "distinct_values": list(classification.distinct_values),
        "uniform_distance": (
            classification.distinct_values[0] if classification.uniform else None
        ),
    }
    _emit_json(_document(args, payload), args.out)
    return 0


def _resolve_kappa(args, uniform: bool, kappa_mean: float, threshold):
    """Resolve the curvature for cmd_embed from the policy flag.

    ``auto`` takes the mean-weight bound for uniform rings and for rings with
    no feasible spherical curvature, the searched threshold otherwise.
    """
    if args.space == "euclidean":
        return "auto" if args.kappa == "auto" else "value", None
    if args.kappa == "auto":
        if args.space == "hyperbolic":
            return "auto", -1.0
        if uniform or not threshold.kappa > 0:
            return "auto", kappa_mean
        return "auto", threshold.kappa
    try:
        value = float(args.kappa)
    except ValueError:
        raise InvalidArgs(f"--kappa must be 'auto' or a number, got {args.kappa!r}")
    return "value", value


def cmd_embed(args) -> int:
    spec = RingSpec(args.n)
    quotient = args.n % 2 == 0
    d = distance_matrix(spec, quotient=quotient)
    classification = classify_ring(args.n, d)
    values = d.profile[1:]
    w_mean = float(values.mean())
    kappa_mean = kappa_max(d.n_effective, w_mean)
    threshold = spherical_feasibility_threshold(d) if args.space == "spherical" else None
    kappa_policy, kappa = _resolve_kappa(args, classification.uniform, kappa_mean, threshold)

    threshold_payload = None
    if args.space == "spherical":
        verdict = embeddable_spherical(d, kappa)
        verdict_payload = {
            "cap_ok": verdict.cap_ok,
            "psd_ok": verdict.psd_ok,
            "rank": verdict.rank,
            "eigenvalues": verdict.eigenvalues,
            "margin": verdict.margin,
        }
        threshold_payload = dataclasses.asdict(threshold)
        space = EmbeddingSpace.SPHERICAL
    else:
        if args.space == "hyperbolic":
            verdict = embeddable_hyperbolic(d, kappa)
            space = EmbeddingSpace.HYPERBOLIC
        else:
            verdict = embeddable_euclidean(d)
            space = EmbeddingSpace.EUCLIDEAN
        verdict_payload = {"eigenvalues": verdict.eigenvalues, "margin": verdict.margin}

    realization_payload = None
    if verdict.embeddable:
        result = realize(d, space, kappa if kappa is not None else 0.0)
        model_dim = (
            result.ambient_dim
            if space is EmbeddingSpace.EUCLIDEAN
            else result.ambient_dim - 1
        )
        realization_payload = {
            "ambient_dim": result.ambient_dim,
            "model_dim": model_dim,
            "curvature": result.curvature,
            "coordinates": result.coordinates,
            "max_distortion": result.max_distortion,
            "irreducible": result.irreducible,
        }

    payload = {
        "n": args.n,
        "quotient": quotient,
        "n_points": d.n_effective,
        "space": space,
        "kappa_policy": kappa_policy,
        "kappa": kappa,
        "classification": {
            "kind": classification.kind,
            "uniform": classification.uniform,
            "distinct_values": list(classification.distinct_values),
        },
        "weights": {
            "mean": w_mean,
            "min": float(values.min()),
            "max": float(values.max()),
        },
        "kappa_max_mean_weight": kappa_mean,
        "threshold": threshold_payload,
        "embeddable": verdict.embeddable,
        "verdict": verdict_payload,
        "realization": realization_payload,
    }
    _emit_json(_document(args, payload), args.out)
    if not verdict.embeddable:
        print(f"error: not embeddable in {args.space} space at kappa={kappa!r}",
              file=sys.stderr)
        return 1
    return 0


def cmd_variance_sweep(args) -> int:
    rows = distance_variance_sweep(args.n_min, args.n_max, args.quotient_policy)
    if args.format == "csv":
        _emit("\n".join(["n,variance", *(f"{n},{v!r}" for n, v in rows)]) + "\n", args.out)
        return 0
    payload = {
        "n_min": args.n_min,
        "n_max": args.n_max,
        "quotient_policy": args.quotient_policy,
        "rows": [{"n": n, "variance": v} for n, v in rows],
    }
    _emit_json(_document(args, payload), args.out)
    return 0


def _check_subspace_restriction(n_max_full: int) -> dict:
    worst = 0.0
    ok = True
    failure = ""
    for n in range(3, n_max_full + 1):
        for coupling in (Coupling.XX, Coupling.HEISENBERG):
            try:
                result = verify_subspace_restriction(RingSpec(n, coupling))
                worst = max(worst, result.max_abs_deviation)
            except RestrictionMismatch as exc:
                ok = False
                worst = max(worst, exc.deviation or math.inf)
                failure = f"n={n} {coupling.value}: {exc}"
    detail = failure or f"n=3..{n_max_full}, both couplings"
    return {"name": "subspace_restriction", "ok": ok, "worst": worst,
            "tolerance": 1e-12, "detail": detail}


def _subspace_spectra(n_max_subspace: int):
    """LAPACK decompositions of the XX and the Heisenberg blocks for n = 3..n_max_subspace.

    Both couplings go into one ``numerical_spectra`` call, so the two
    blocks of each size share one stacked ``eigh`` call.
    """
    sizes = range(3, n_max_subspace + 1)
    blocks = [build_single_excitation_hamiltonian(RingSpec(n, coupling))
              for coupling in (Coupling.XX, Coupling.HEISENBERG) for n in sizes]
    spectra = numerical_spectra(blocks)
    return spectra[:len(sizes)], spectra[len(sizes):]


def _check_spectrum_agreement(xx_spectra, inject_fault: bool) -> dict:
    strength = 1.0 + 1e-6 if inject_fault else 1.0
    worst = 0.0
    for numeric in xx_spectra:
        eigenvalues, multiplicities, _ = circulant_eigenspaces(RingSpec(numeric.n, strength=strength))
        gap = (np.repeat(eigenvalues, multiplicities)
               - np.repeat(numeric.eigenvalues, numeric.multiplicities))
        worst = max(worst, float(np.abs(gap).max()))
    ok = worst <= 1e-9
    return {"name": "spectrum_agreement", "ok": ok, "worst": worst,
            "tolerance": 1e-9, "detail": f"n=3..{xx_spectra[-1].n}, closed form vs solver"}


def _check_coupling_invariance(xx_spectra, heisenberg_spectra) -> dict:
    worst = 0.0
    for xx, heisenberg in zip(xx_spectra, heisenberg_spectra):
        sites = 1 + np.arange(1, xx.n // 2 + 1)
        gap = p_max(xx, 1, sites) - p_max(heisenberg, 1, sites)
        worst = max(worst, float(np.abs(gap).max()))
    ok = worst <= 1e-10
    return {"name": "coupling_invariance", "ok": ok, "worst": worst,
            "tolerance": 1e-10, "detail": f"n=3..{xx_spectra[-1].n}, XX vs Heisenberg"}


def _check_toeplitz_minors() -> dict:
    worst = 0.0
    ok = True
    cs = (-0.9, -0.25, 0.0, 0.3, 0.5, 0.99)
    recursions = [toeplitz_minor_recursion(12, c) for c in cs]
    for k in range(1, 13):
        # One determinant call per order k on the stack of all six matrices.
        matrices = np.array(cs)[:, None, None] * np.ones((k, k))
        matrices[:, np.arange(k), np.arange(k)] = 1.0
        for c, recursion, direct in zip(cs, recursions, np.linalg.det(matrices).tolist()):
            for candidate in (toeplitz_minor_closed_form(k, c), recursion[k - 1]):
                error = abs(candidate - direct)
                if error > max(1e-10 * abs(direct), 1e-14):
                    ok = False
                worst = max(worst, error / max(abs(direct), 1.0))
    return {"name": "toeplitz_minors", "ok": ok, "worst": worst,
            "tolerance": 1e-10, "detail": "k<=12, six c values, closed form and recursion vs determinant"}


def _check_transfer_bound() -> dict:
    worst = -math.inf
    for n in (3, 4, 5, 7, 8):
        spec = RingSpec(n)
        grid = np.linspace(0.0, 50.0 / spec.subspace_coupling, 2001)
        separations = range(1, n // 2 + 1)
        series = transfer_probability_time_series(spec, 1, 1 + np.array(separations), grid)
        for separation, column in zip(separations, series.T):
            bound = p_max_closed_form(n, separation)
            worst = max(worst, float(column.max()) - bound)
    ok = worst <= 1e-10
    return {"name": "transfer_bound", "ok": ok, "worst": worst,
            "tolerance": 1e-10, "detail": "n in {3,4,5,7,8}, 2001-point grids over [0, 50/h]"}


def cmd_verify(args) -> int:
    for flag, value in (("--n-max-full", args.n_max_full),
                        ("--n-max-subspace", args.n_max_subspace)):
        if value < 3:
            raise InvalidArgs(f"{flag} must be at least 3, got {value}")
    xx_spectra, heisenberg_spectra = _subspace_spectra(args.n_max_subspace)
    checks = [
        _check_subspace_restriction(args.n_max_full),
        _check_spectrum_agreement(xx_spectra, args.inject_fault),
        _check_coupling_invariance(xx_spectra, heisenberg_spectra),
        _check_toeplitz_minors(),
        _check_transfer_bound(),
    ]
    all_ok = all(check["ok"] for check in checks)
    payload = {
        "n_max_full": args.n_max_full,
        "n_max_subspace": args.n_max_subspace,
        "fault_injected": args.inject_fault,
        "checks": checks,
        "all_ok": all_ok,
    }
    _emit_json(_document(args, payload), args.out)
    if not all_ok:
        failed = ", ".join(check["name"] for check in checks if not check["ok"])
        print(f"error: verification failed: {failed}", file=sys.stderr)
        return 1
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first ``main`` call and shared by every later one.

    Parsing does not change the parser, and argparse looks ``sys.stdout`` and
    ``sys.stderr`` up when it prints, so one parser serves every call.
    """
    parser = argparse.ArgumentParser(
        prog="spinring",
        description="Transfer-probability distances on spin rings, metric checks, "
        "and constant-curvature embeddings.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, metavar="PATH",
                        help="write output to a file instead of standard output")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized checks (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", parents=[common],
                       help="distance and p_max matrices for one ring")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--coupling", choices=["xx", "heisenberg"], default="xx")
    p.add_argument("--strength", type=float, default=1.0)
    p.add_argument("--quotient", action="store_true",
                   help="identify antipodal sites (even n only)")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("metric-check", parents=[common],
                       help="verify the metric axioms for one ring")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--quotient", action="store_true")

    p = sub.add_parser("classify", parents=[common],
                       help="classify a ring by its distance spectrum")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("embed", parents=[common],
                       help="decide and realize a constant-curvature embedding")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--space", choices=["spherical", "euclidean", "hyperbolic"],
                   required=True)
    p.add_argument("--kappa", default="auto",
                   help="curvature: 'auto' or a number (default auto)")

    p = sub.add_parser("variance-sweep", parents=[common],
                       help="variance of off-diagonal distances across ring sizes")
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=200)
    p.add_argument("--quotient-policy", choices=["auto", "never"], default="auto")
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("verify", parents=[common],
                       help="run the cross-module invariant suite")
    p.add_argument("--n-max-full", type=int, default=10,
                   help="largest n for full-space restriction checks (default 10)")
    p.add_argument("--n-max-subspace", type=int, default=64,
                   help="largest n for subspace checks (default 64)")
    p.add_argument("--inject-fault", action="store_true",
                   help="perturb one closed-form path to demonstrate failure detection")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # The handler is looked up by name on each call rather than bound into the
    # shared parser, so a wrapper installed over a cmd_* function later is run.
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (
        InvalidArgs,
        InvalidSpec,
        QuotientOnOddRing,
        DimensionTooLarge,
        IndexOutOfRange,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpinRingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
