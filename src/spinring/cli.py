"""Command-line interface for ring distances, metric checks, and embeddings.

Every command emits a single self-describing JSON document with a stable
field order (or CSV with a fixed header where tabular output makes sense),
so identical inputs produce byte-identical output.  Floats are serialized
with Python's shortest round-trip representation, the text of
``json.dumps(doc, indent=2)``; float matrices are rendered with one ``repr``
per distinct value and spliced into that text.  Exit codes: 0 for
success or a verified positive verdict, 1 for a negative mathematical
verdict or failed verification, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import enum
import json
import math
import sys

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
)
from .spectral import circulant_modes, numerical_spectra

SCHEMA_VERSION = "1"
ZERO_PAIR_TOL = 1e-12


def _jsonable(value):
    """Recursively convert numpy scalars, containers and enums to plain JSON types.

    Arrays stay arrays; ``_emit_json`` serializes them.
    """
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def _document(command: str, params: dict, payload: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "params": _jsonable(params),
        "payload": _jsonable(payload),
    }


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _float_reprs(values: np.ndarray) -> np.ndarray:
    """``repr`` of each float, computed once per distinct bit pattern (-0.0 apart from 0.0)."""
    distinct, index = np.unique(values.ravel().view(np.int64), return_inverse=True)
    text = np.array([repr(v) for v in distinct.view(np.float64).tolist()], dtype=object)
    return text[index].reshape(values.shape)


def _spliceable(value) -> bool:
    """Whether ``_emit_json`` renders this value itself: a finite, non-empty float matrix."""
    return (
        isinstance(value, np.ndarray)
        and value.dtype == np.float64
        and value.ndim == 2
        and value.size > 0
        and bool(np.isfinite(value).all())
    )


def _matrix_json(matrix: np.ndarray, indent: int) -> str:
    """``json.dumps(matrix.tolist(), indent=2)`` as it reads nested ``indent`` spaces deep."""
    pad = "\n" + " " * indent
    rows = [("," + pad + "    ").join(row) for row in _float_reprs(matrix).tolist()]
    rows = ["[" + pad + "    " + row + pad + "  ]" for row in rows]
    return "[" + pad + "  " + ("," + pad + "  ").join(rows) + pad + "]"


_SPLICE = "@matrix@"


def _emit_json(doc: dict, out_path) -> None:
    """Write ``json.dumps(doc, indent=2)`` with arrays as lists, byte for byte.

    Each finite float matrix is left out of the ``json.dumps`` call as a
    placeholder string and its text spliced in at the placeholder's indent;
    other arrays go through ``tolist``.
    """
    matrices = []

    def hide(value):
        if isinstance(value, dict):
            return {key: hide(item) for key, item in value.items()}
        if isinstance(value, list):
            return [hide(item) for item in value]
        if _spliceable(value):
            matrices.append(value)
            return _SPLICE
        return value

    text = json.dumps(hide(doc), indent=2, default=np.ndarray.tolist)
    parts = text.split(json.dumps(_SPLICE))
    if len(parts) != len(matrices) + 1:
        # A string in the document equals the placeholder: render it all plainly.
        parts = [json.dumps(doc, indent=2, default=np.ndarray.tolist)]
        matrices = []
    out = [parts[0]]
    for matrix, part in zip(matrices, parts[1:]):
        line = out[-1].rsplit("\n", 1)[-1]
        out.append(_matrix_json(matrix, len(line) - len(line.lstrip(" "))))
        out.append(part)
    _emit("".join(out) + "\n", out_path)


def _csv_text(header: str, rows) -> str:
    """CSV of string fields that never need quoting: integers and float reprs."""
    return "\n".join([header, *map(",".join, rows)]) + "\n"


def cmd_distance(args) -> int:
    spec = RingSpec(args.n, Coupling(args.coupling), args.strength)
    d = distance_matrix(spec, quotient=args.quotient)
    entries = d.entries
    p = np.exp(-entries)
    np.fill_diagonal(p, 1.0)
    zero_pairs = (np.argwhere(np.triu(entries < ZERO_PAIR_TOL, 1)) + 1).tolist()
    params = {
        "n": args.n,
        "coupling": args.coupling,
        "strength": args.strength,
        "quotient": args.quotient,
        "format": args.format,
        "seed": args.seed,
    }
    if args.format == "csv":
        i_up, j_up = np.triu_indices(d.n_effective, 1)
        sites = np.array([str(k) for k in range(1, d.n_effective + 1)], dtype=object)
        columns = (sites[i_up], sites[j_up],
                   _float_reprs(entries[i_up, j_up]), _float_reprs(p[i_up, j_up]))
        rows = zip(*(column.tolist() for column in columns))
        _emit(_csv_text("i,j,distance,p_max", rows), args.out)
        return 0
    payload = {
        "n": args.n,
        "coupling": args.coupling,
        "strength": args.strength,
        "quotient": args.quotient,
        "n_effective": d.n_effective,
        "distance_matrix": entries,
        "p_max_matrix": p,
        "semi_metric": len(zero_pairs) > 0,
        "zero_distance_pairs": zero_pairs,
    }
    _emit_json(_document("distance", params, payload), args.out)
    return 0


def cmd_metric_check(args) -> int:
    spec = RingSpec(args.n)
    d = distance_matrix(spec, quotient=args.quotient)
    report = check_metric_axioms(d, seed=args.seed)
    params = {
        "n": args.n,
        "quotient": args.quotient,
        "seed": args.seed,
    }
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
            {"kind": v.kind, "sites": list(v.sites), "magnitude": v.magnitude}
            for v in report.violations
        ],
    }
    _emit_json(_document("metric-check", params, payload), args.out)
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
    params = {"n": args.n, "seed": args.seed}
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
    _emit_json(_document("classify", params, payload), args.out)
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
    values = d.offdiagonal()
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
        threshold_payload = {
            "kappa": threshold.kappa,
            "upper": threshold.upper,
            "cap": threshold.cap,
            "feasible_at_cap": threshold.feasible_at_cap,
            "monotone_ok": threshold.monotone_ok,
        }
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

    params = {
        "n": args.n,
        "space": args.space,
        "kappa": args.kappa,
        "seed": args.seed,
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
    _emit_json(_document("embed", params, payload), args.out)
    if not verdict.embeddable:
        print(f"error: not embeddable in {args.space} space at kappa={kappa!r}",
              file=sys.stderr)
        return 1
    return 0


def cmd_variance_sweep(args) -> int:
    rows = distance_variance_sweep(args.n_min, args.n_max, args.quotient_policy)
    params = {
        "n_min": args.n_min,
        "n_max": args.n_max,
        "quotient_policy": args.quotient_policy,
        "format": args.format,
        "seed": args.seed,
    }
    if args.format == "csv":
        _emit(
            _csv_text("n,variance", [(str(n), repr(v)) for n, v in rows]),
            args.out,
        )
        return 0
    payload = {
        "n_min": args.n_min,
        "n_max": args.n_max,
        "quotient_policy": args.quotient_policy,
        "rows": [{"n": n, "variance": v} for n, v in rows],
    }
    _emit_json(_document("variance-sweep", params, payload), args.out)
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
    """Jacobi decompositions of the XX and the Heisenberg blocks for n = 3..n_max_subspace.

    Both couplings go into one ``numerical_spectra`` call, so the four
    blocks of each padded size share one Jacobi stack.
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
        eigenvalues, multiplicities, _ = circulant_modes(RingSpec(numeric.n, strength=strength))
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
    params = {
        "n_max_full": args.n_max_full,
        "n_max_subspace": args.n_max_subspace,
        "inject_fault": args.inject_fault,
        "seed": args.seed,
    }
    payload = {
        "n_max_full": args.n_max_full,
        "n_max_subspace": args.n_max_subspace,
        "fault_injected": args.inject_fault,
        "checks": checks,
        "all_ok": all_ok,
    }
    _emit_json(_document("verify", params, payload), args.out)
    if not all_ok:
        failed = ", ".join(check["name"] for check in checks if not check["ok"])
        print(f"error: verification failed: {failed}", file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("metric-check", parents=[common],
                       help="verify the metric axioms for one ring")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--quotient", action="store_true")
    p.set_defaults(func=cmd_metric_check)

    p = sub.add_parser("classify", parents=[common],
                       help="classify a ring by its distance spectrum")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("embed", parents=[common],
                       help="decide and realize a constant-curvature embedding")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--space", choices=["spherical", "euclidean", "hyperbolic"],
                   required=True)
    p.add_argument("--kappa", default="auto",
                   help="curvature: 'auto' or a number (default auto)")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("variance-sweep", parents=[common],
                       help="variance of off-diagonal distances across ring sizes")
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=200)
    p.add_argument("--quotient-policy", choices=["auto", "never"], default="auto")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_variance_sweep)

    p = sub.add_parser("verify", parents=[common],
                       help="run the cross-module invariant suite")
    p.add_argument("--n-max-full", type=int, default=10,
                   help="largest n for full-space restriction checks (default 10)")
    p.add_argument("--n-max-subspace", type=int, default=64,
                   help="largest n for subspace checks (default 64)")
    p.add_argument("--inject-fault", action="store_true",
                   help="perturb one closed-form path to demonstrate failure detection")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
