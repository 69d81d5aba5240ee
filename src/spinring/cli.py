"""Command-line interface for ring distances, metric checks, and embeddings.

Every command emits a single self-describing JSON document with a stable
field order (or CSV with a fixed header where tabular output makes sense),
so identical inputs produce byte-identical output.  Documents are written
by one recursive writer as the exact text of ``json.dumps(doc, indent=2)``,
floats in Python's shortest round-trip representation, and streamed to
the output as a list of parts, never joined into one string.  Float
arrays, finite or not, a ring's circulants and its CSV pairs take one
``repr`` per distinct bit pattern, so a ring costs one per distance class.
Every float matrix goes out as one joined text per row; a circulant's row
text is a slice of its doubled first row's text.  Exit codes: 0 for
success or a verified positive verdict, 1 for a negative mathematical
verdict, a failed verification or any other ``SpinRingError``, 2 for a
``UsageError`` (an input outside its domain, or an ``--out`` path that
cannot be written) or an argparse usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import functools
import itertools
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .embedding import (
    EmbeddingSpace,
    ring_embedding,
    toeplitz_minor_closed_form,
    toeplitz_minor_recursion,
)
from .errors import DimensionTooLarge, InvalidArgs, RestrictionMismatch, SpinRingError, UsageError
from .hamiltonian import (
    RESTRICTION_TOL,
    ROW_SPACE_CAP,
    Coupling,
    RingSpec,
    build_single_excitation_hamiltonian,
    check_subspace_restrictions,
)
from .metric import (
    MetricClassification,
    check_metric_axioms,
    classify_ring,
    distance_matrix,
    distance_variance_sweep,
    p_max_closed_form,
    zero_distance_pairs,
)
from .spectral import circulant_eigenspaces, hartley_rows, numerical_spectra

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


def _emit(parts, out_path) -> None:
    """Write the text parts in order to ``out_path``, or to standard output without it."""
    if out_path:
        try:
            with open(out_path, "w") as handle:
                handle.writelines(parts)
        except OSError as exc:
            raise InvalidArgs(f"cannot write --out {out_path}: {exc.strerror}")
    else:
        sys.stdout.writelines(parts)


@dataclasses.dataclass(frozen=True)
class _Circulant:
    """The matrix M[i, j] = row[(j - i) mod N], written from the text of its first row."""

    row: np.ndarray


# json.dumps writes these float reprs as JavaScript names.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_json(value: float) -> str:
    """The text ``json.dumps`` gives a float."""
    text = float.__repr__(value)
    return _NONFINITE.get(text, text)


def _texts(values: np.ndarray, write=repr) -> np.ndarray:
    """``write(v)`` for each float of ``values``, flat, as an object array.

    ``write`` runs once per distinct bit pattern (-0.0 apart from 0.0).
    """
    distinct, index = np.unique(values.ravel().view(np.int64), return_inverse=True)
    texts = np.array([write(v) for v in distinct.view(np.float64).tolist()], dtype=object)
    return texts[index]


def _rows_parts(rows: list, pad: str, out: list) -> None:
    """Append a JSON list of lists from each row's joined text; ``pad`` is newline plus indent."""
    start = pad + "  [" + pad + "    "
    cells = [pad + "  ]," + start] * (2 * len(rows))
    cells[0] = "[" + start
    cells[1::2] = rows
    out += cells
    out.append(pad + "  ]" + pad + "]")


def _circulant_parts(row: np.ndarray, indent: int, out: list) -> None:
    """Append the text ``json.dumps`` gives the circulant with first row ``row``, one part per row.

    Its floats take one ``repr`` per distinct bit pattern of ``row``
    (``_texts``), so a ring's rows cost one per distance class.  Row i of
    the matrix is window N - i of the doubled first row, so its text is one
    slice of the doubled row's text.
    """
    n = len(row)
    pad = "\n" + " " * indent
    sep = "," + pad + "    "
    texts = _texts(row, _float_json).tolist() * 2
    starts = [0, *itertools.accumulate(len(text) + len(sep) for text in texts)]
    doubled = sep.join(texts)
    _rows_parts([doubled[starts[n - i]:starts[2 * n - i] - len(sep)] for i in range(n)], pad, out)


# The text json.dumps gives a value of each exact scalar type; bool is not int here.
_SCALAR_TEXT = {float: _float_json, str: encode_basestring_ascii, int: int.__repr__,
                bool: lambda value: "true" if value else "false", type(None): lambda value: "null"}


def _json_parts(value, indent: int, out: list) -> None:
    """Append the text of ``json.dumps(value, indent=2)``, ``indent`` spaces deep, to ``out``.

    Scalars of the types in ``_SCALAR_TEXT`` are written by one lookup of their
    type, inline as dict and list members; arrays are written as their nested
    lists, enums as their values and numpy scalars as Python numbers.  Float
    vectors, float matrices and circulants take one ``repr`` per distinct bit pattern.
    """
    text = _SCALAR_TEXT.get(type(value))
    if text is not None:
        out.append(text(value))
    elif isinstance(value, (dict, list, tuple)):
        keyed = isinstance(value, dict)
        brackets = "{}" if keyed else "[]"
        pad = "\n" + " " * (indent + 2)
        opener = brackets[0] + pad
        for key, item in value.items() if keyed else zip(itertools.repeat(""), value):
            head = opener + encode_basestring_ascii(key) + ": " if keyed else opener
            text = _SCALAR_TEXT.get(type(item))
            if text is None:
                out.append(head)
                _json_parts(item, indent + 2, out)
            else:
                out.append(head + text(item))
            opener = "," + pad
        out.append(pad[:-2] + brackets[1] if value else brackets)
    elif isinstance(value, _Circulant):
        _circulant_parts(value.row, indent, out)
    elif isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype == np.float64 and value.size:
        pad = "\n" + " " * (indent + 2)
        out.append("[" + pad + ("," + pad).join(_texts(value, _float_json).tolist()) + pad[:-2] + "]")
    elif isinstance(value, np.ndarray) and value.ndim == 2 and value.dtype == np.float64 and value.size:
        pad = "\n" + " " * indent
        rows = _texts(value, _float_json).reshape(value.shape).tolist()
        _rows_parts([("," + pad + "    ").join(row) for row in rows], pad, out)
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
    _emit(out, out_path)


def _pairs_csv(profile: np.ndarray, p: np.ndarray) -> list:
    """The ``distance`` CSV of a ring with circulant rows ``profile`` and ``p``, one part per site.

    Pair (i, j), i < j, has separation j - i: its line is "i," + "j," + "d,p",
    with the text of d and p from one ``repr`` per distinct bit pattern.
    """
    n = len(profile)
    sites = [f"{k}," for k in range(1, n + 1)]
    values = [a + "," + b for a, b in zip(_texts(profile).tolist(), _texts(p).tolist())]
    parts = ["i,j,distance,p_max"]
    for i in range(n - 1):
        line = ["\n" + sites[i]] * (3 * (n - 1 - i))
        line[1::3] = sites[i + 1:]
        line[2::3] = values[1:n - i]
        parts.append("".join(line))
    parts.append("\n")
    return parts


def cmd_distance(args) -> int:
    spec = RingSpec(args.n, Coupling(args.coupling), args.strength)
    d = distance_matrix(spec, quotient=args.quotient)
    # profile[0] is +0.0, so the diagonal of p_max is exactly 1.0.
    p = np.exp(-d.profile)
    if args.format == "csv":
        _emit(_pairs_csv(d.profile, p), args.out)
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


def cmd_embed(args) -> int:
    spec = RingSpec(args.n)
    space = EmbeddingSpace[args.space.upper()]
    kappa = None
    if args.kappa != "auto":
        try:
            kappa = float(args.kappa)
        except ValueError:
            raise InvalidArgs(f"--kappa must be 'auto' or a number, got {args.kappa!r}")
    ring = ring_embedding(spec, space, kappa)
    verdict = ring.verdict
    verdict_payload = {"eigenvalues": verdict.eigenvalues, "margin": verdict.margin}
    if space is EmbeddingSpace.SPHERICAL:
        verdict_payload = {"cap_ok": verdict.cap_ok, "psd_ok": verdict.psd_ok,
                           "rank": verdict.rank, **verdict_payload}
    realization_payload = None
    result = ring.realization
    if result is not None:
        realization_payload = {
            "ambient_dim": result.ambient_dim,
            # The sphere and the hyperboloid are hypersurfaces of their ambient space.
            "model_dim": result.ambient_dim - (space is not EmbeddingSpace.EUCLIDEAN),
            "curvature": result.curvature,
            "coordinates": result.coordinates,
            "max_distortion": result.max_distortion,
            "irreducible": result.irreducible,
        }
    classification = ring.classification
    payload = {
        "n": args.n,
        "quotient": ring.quotiented,
        "n_points": ring.distances.n_effective,
        "space": space,
        "kappa_policy": "auto" if args.kappa == "auto" else "value",
        "kappa": ring.kappa,
        "classification": {
            "kind": classification.kind,
            "uniform": classification.uniform,
            "distinct_values": list(classification.distinct_values),
        },
        "weights": {"mean": ring.weight_mean, "min": ring.weight_min, "max": ring.weight_max},
        "kappa_max_mean_weight": ring.kappa_max_mean_weight,
        "threshold": None if ring.threshold is None else dataclasses.asdict(ring.threshold),
        "embeddable": verdict.embeddable,
        "verdict": verdict_payload,
        "realization": realization_payload,
    }
    _emit_json(_document(args, payload), args.out)
    if not verdict.embeddable:
        print(f"error: not embeddable in {args.space} space at kappa={ring.kappa!r}",
              file=sys.stderr)
        return 1
    return 0


def cmd_variance_sweep(args) -> int:
    rows = distance_variance_sweep(args.n_min, args.n_max, args.quotient_policy)
    if args.format == "csv":
        _emit(["n,variance\n", *(f"{n},{v!r}\n" for n, v in rows)], args.out)
        return 0
    payload = {
        "n_min": args.n_min,
        "n_max": args.n_max,
        "quotient_policy": args.quotient_policy,
        "rows": [{"n": n, "variance": v} for n, v in rows],
    }
    _emit_json(_document(args, payload), args.out)
    return 0


def _check(name: str, worst: float, tolerance: float, detail: str) -> dict:
    """One verify record: a check passes when its worst is within its tolerance."""
    return {"name": name, "ok": worst <= tolerance, "worst": worst, "tolerance": tolerance,
            "detail": detail}


# The rings of the transfer-bound check.
_TRANSFER_SIZES = (3, 4, 5, 7, 8)


def _check_subspace_restriction(specs, blocks) -> dict:
    results = check_subspace_restrictions(specs, blocks)
    failures = [f"n={spec.n} {spec.coupling.value}: {result}"
                for spec, result in zip(specs, results) if isinstance(result, RestrictionMismatch)]
    deviations = [result.deviation if isinstance(result, RestrictionMismatch) else result
                  for result in results]
    worst = float(np.max(deviations))  # np.max, unlike max, keeps a NaN
    return _check("subspace_restriction", worst, RESTRICTION_TOL,
                  failures[-1] if failures else f"n=3..{specs[-1].n}, both couplings")


def _site_one_totals(vectors, sizes, multiplicities) -> np.ndarray:
    """sum_k |<1| Pi_k |1 + m>| for m = 1..n // 2 of n x n bases raveled one after another.

    ``multiplicities`` lists each basis's eigenspaces in turn.  One ``reduceat``
    sums the row products per eigenspace, one the absolute entries per site
    after a zero slot: reduceat adds a segment's first element to the sum of
    the rest, np.sum adds 0 to the sum of all, so the totals equal ``p_max``'s.
    """
    lengths = sizes // 2 * (sizes + 1)
    basis = np.repeat(np.arange(len(sizes)), lengths)
    position = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    site, slot = np.divmod(position, sizes[basis] + 1)  # site m - 1, then slot 0 or column + 1
    row_1 = (np.cumsum(sizes * sizes) - sizes * sizes)[basis] + slot - 1
    products = np.where(slot > 0, vectors[row_1] * vectors[row_1 + (site + 1) * sizes[basis]], 0.0)
    first = np.bincount(np.cumsum(multiplicities) - multiplicities, minlength=sizes.sum()) > 0
    starts = np.flatnonzero(first[np.repeat(np.cumsum(sizes) - sizes, lengths) + slot - 1] | (slot == 0))
    entries = np.abs(np.add.reduceat(products, starts))
    return np.add.reduceat(entries, np.flatnonzero(slot[starts] == 0))


def _check_spectrum_agreement(closed, numeric, n_max: int) -> dict:
    worst = float(np.abs(closed - numeric).max())
    return _check("spectrum_agreement", worst, 1e-9, f"n=3..{n_max}, closed form vs solver")


def _check_coupling_invariance(totals, is_xx, n_max: int) -> dict:
    p = np.minimum(totals * totals, 1.0)
    worst = float(np.abs(p[is_xx] - p[~is_xx]).max())
    return _check("coupling_invariance", worst, 1e-10, f"n=3..{n_max}, XX vs Heisenberg")


def _check_toeplitz_minors() -> dict:
    cs = np.array((-0.9, -0.25, 0.0, 0.3, 0.5, 0.99))
    orders = np.arange(1, 13)
    full = cs[:, None, None] * np.ones((12, 12))
    full[:, orders - 1, orders - 1] = 1.0
    # Row k - 1 holds the order-k leading minors of all six matrices.
    direct = np.array([np.linalg.det(full[:, :k, :k]) for k in orders])
    candidates = np.empty((2, 12, len(cs)))
    candidates[0] = toeplitz_minor_closed_form(orders[:, None], cs)
    for k, minors in enumerate(toeplitz_minor_recursion(12, cs)):
        candidates[1, k] = minors
    # Within 1e-10 of max(|det|, 1e-4): relative error, absolute 1e-14 near zero.
    worst = float((np.abs(candidates - direct) / np.maximum(np.abs(direct), 1e-4)).max())
    return _check("toeplitz_minors", worst, 1e-10,
                  "k<=12, six c values, closed form and recursion vs determinant")


def _check_transfer_bound(totals) -> dict:
    # p(t) = |sum_k <1|Pi_k|1+m> exp(-i lambda_k t)|^2 <= (sum_k |<1|Pi_k|1+m>|)^2
    # at every t >= 0 by the triangle inequality, so no time grid is sampled.
    closed = [p_max_closed_form(n, m) for n in _TRANSFER_SIZES for m in range(1, n // 2 + 1)]
    worst = float((totals * totals - closed).max())
    return _check("transfer_bound", worst, 1e-10,
                  "n in {3,4,5,7,8}, (sum_k |<1|Pi_k|1+m>|)^2 >= sup_t p(t) vs closed-form p_max")


def cmd_verify(args) -> int:
    for flag, value in (("--n-max-full", args.n_max_full),
                        ("--n-max-subspace", args.n_max_subspace)):
        if value < 3:
            raise InvalidArgs(f"{flag} must be at least 3, got {value}")
    if args.n_max_full > ROW_SPACE_CAP:  # refused before any block is built
        raise DimensionTooLarge(f"basis states need n <= {ROW_SPACE_CAP}, got n={args.n_max_full}")
    sizes = np.arange(3, args.n_max_subspace + 1)
    # Rings go size-major, XX and Heisenberg side by side, n = 3 to the larger bound,
    # each block built once: the restriction check certifies those up to --n-max-full,
    # one stacked eigh per size decomposes those up to --n-max-subspace.
    specs = [RingSpec(n, coupling) for n in range(3, max(args.n_max_full, args.n_max_subspace) + 1)
             for coupling in (Coupling.XX, Coupling.HEISENBERG)]
    blocks = [build_single_excitation_hamiltonian(spec) for spec in specs]
    block_sizes = np.repeat(sizes, 2)
    values, multiplicities, vectors = numerical_spectra(blocks[:len(block_sizes)])
    agreement = ([RingSpec(n, strength=1.0 + 1e-6) for n in sizes.tolist()]
                 if args.inject_fault else specs[:len(block_sizes):2])
    # One closed-form table: the agreement rings, then the transfer rings.
    closed, closed_multiplicities, order = circulant_eigenspaces(
        agreement + [RingSpec(n) for n in _TRANSFER_SIZES])
    modes = int((sizes // 2 + 1).sum())
    hartley = [hartley_rows(n, np.arange(n))[:, columns].ravel() for n, columns in
               zip(_TRANSFER_SIZES, np.split(order[sizes.sum():], np.cumsum(_TRANSFER_SIZES)[:-1]))]
    # One overlap pass: the numerical bases, then the Hartley bases.
    totals = _site_one_totals(np.concatenate((vectors, *hartley)),
                              np.concatenate((block_sizes, _TRANSFER_SIZES)),
                              np.concatenate((multiplicities, closed_multiplicities[modes:])))
    numeric_totals = int((block_sizes // 2).sum())
    is_xx = np.tile((True, False), len(sizes))
    checks = [
        _check_subspace_restriction(specs[:2 * (args.n_max_full - 2)],
                                    blocks[:2 * (args.n_max_full - 2)]),
        _check_spectrum_agreement(
            np.repeat(closed[:modes], closed_multiplicities[:modes]),
            np.repeat(values, multiplicities)[np.repeat(is_xx, block_sizes)],
            args.n_max_subspace),
        _check_coupling_invariance(totals[:numeric_totals],
                                   np.repeat(is_xx, block_sizes // 2), args.n_max_subspace),
        _check_toeplitz_minors(),
        _check_transfer_bound(totals[numeric_totals:]),
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
                        help="echoed in the document's params; changes no other output "
                        "(default 0)")
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
    except SpinRingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
