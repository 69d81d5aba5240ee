"""Correctness gate: checks one CLI request's output against the schema and an oracle.

The oracles are computed here, independently of the program: the distance
profile as a vectorised cosine sum, the paper's metric classification
(odd rings are metric spaces, even rings are semi-metrics whose antipodal
quotient is a metric space), and uniformity exactly for prime and twice
prime rings.  Realized embeddings are checked by recomputing geodesic
distances from the returned coordinates.

A negative embedding verdict is checked by an eigenvalue test on the
oracle distances: the centred Gram matrix -J D^2 J / 2 (Euclidean), the
cosine Gram matrix and the diameter cap at the reported curvature
(spherical), and the number of positive eigenvalues of the cosh Gram matrix
(hyperbolic, which embeds with exactly one).

``check`` returns ``None`` for a correct request, else ``(kind, reason)``:
``"error"`` when the program reported that it could not answer (an exit 1
that is not a clean negative verdict, such as a ``FactorizationFailure``)
and ``"mismatch"`` when it answered wrongly or crashed (an exception or
exit 2, which none of the benchmark's argv lists should give).
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import jsonschema
import numpy as np

DISTANCE_TOL = 1e-12
VARIANCE_TOL = 1e-14
EMBED_TOL = 1e-8
# Eigenvalues within this share of the largest magnitude count as zero.
EIGEN_TOL = 1e-9
# Numeric matrices are checked against the schema's "matrix" definition here
# and shrunk before the schema validator runs: validating every entry of a
# 600 x 600 matrix with jsonschema takes seconds.
MATRIX_FIELDS = ("distance_matrix", "p_max_matrix")


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def distance_profile(n: int) -> np.ndarray:
    """d(m) = -2 log(lead + (2/n) sum_k |cos(2 pi k m / n)|) for m = 0..n//2."""
    half = (n - 1) // 2 if n % 2 else (n - 2) // 2
    lead = 1.0 / n if n % 2 else 2.0 / n
    m = np.arange(n // 2 + 1)[:, None]
    k = np.arange(1, half + 1)[None, :]
    s = lead + (2.0 / n) * np.abs(np.cos(2.0 * np.pi * k * m / n)).sum(axis=1)
    d = np.maximum(0.0, -2.0 * np.log(s))
    d[0] = 0.0
    return d


def distance_matrix(n: int, quotient: bool) -> np.ndarray:
    points = n // 2 if quotient else n
    idx = np.arange(points)
    sep = np.abs(idx[:, None] - idx[None, :])
    return distance_profile(n)[np.minimum(sep, n - sep)]


def _variance(n: int, quotient: bool) -> float:
    """Variance of the off-diagonal distances, weighting each separation by its pair count."""
    points = n // 2 if quotient else n
    t = np.arange(1, points)
    values = distance_profile(n)[np.minimum(t, n - t)]
    weights = points - t
    mean = np.sum(weights * values) / np.sum(weights)
    return float(np.sum(weights * (values - mean) ** 2) / np.sum(weights))


class Gate:
    """Holds the schema validator; ``check`` judges one finished request."""

    def __init__(self, schema_path: Path):
        schema = json.loads(Path(schema_path).read_text())
        self.validator = jsonschema.Draft7Validator(schema)

    def check(self, argv, rc, stdout: str, stderr: str):
        command = argv[0]
        if rc is None:
            return "mismatch", f"exception: {stderr.strip()[-200:]}"
        if rc == 2:
            return "mismatch", f"exit 2: {stderr.strip()}"
        opts = _options(argv)
        if opts.get("--format", "csv" if command == "variance-sweep" else "json") == "csv":
            return self._check_csv(command, opts, rc, stdout, stderr)
        doc = None
        if stdout:
            try:
                doc = json.loads(stdout)
            except json.JSONDecodeError as exc:
                return "mismatch", f"output is not JSON: {exc}"
            problem = self._schema_problem(doc)
            if problem:
                return "mismatch", f"schema: {problem}"
        if command == "embed":
            return _check_embed(opts, rc, doc, stderr)
        if rc != 0 or doc is None:
            return "error", f"exit {rc}: {stderr.strip()[-200:]}"
        payload = doc["payload"]
        if command == "distance":
            return _check_distance_doc(opts, payload)
        if command == "metric-check":
            return _check_metric(opts, payload)
        if command == "classify":
            return _check_classify(opts, payload)
        if command == "verify":
            failed = [c["name"] for c in payload["checks"] if not c["ok"]]
            if not payload["all_ok"] or failed:
                return "mismatch", f"verify reports failures: {failed}"
            return None
        return "mismatch", f"no oracle for command {command!r}"

    def _schema_problem(self, doc):
        payload = doc.get("payload") if isinstance(doc, dict) else None
        if isinstance(payload, dict):
            shrunk = dict(payload)
            for field in MATRIX_FIELDS:
                if field in payload:
                    if not _is_number_matrix(payload[field]):
                        return f"payload.{field} is not an array of arrays of numbers"
                    shrunk[field] = [row[:1] for row in payload[field][:1]]
            doc = dict(doc, payload=shrunk)
        error = jsonschema.exceptions.best_match(self.validator.iter_errors(doc))
        return None if error is None else error.message

    def _check_csv(self, command, opts, rc, stdout, stderr):
        if rc != 0:
            return "error", f"exit {rc}: {stderr.strip()[-200:]}"
        rows = list(csv.reader(io.StringIO(stdout)))
        if command == "variance-sweep":
            if rows[0] != ["n", "variance"]:
                return "mismatch", f"bad header {rows[0]}"
            n_min, n_max = int(opts.get("--n-min", 3)), int(opts["--n-max"])
            if [int(r[0]) for r in rows[1:]] != list(range(n_min, n_max + 1)):
                return "mismatch", "variance rows do not cover n_min..n_max"
            for n_text, value in rows[1:]:
                n = int(n_text)
                expected = _variance(n, n % 2 == 0)
                if not abs(float(value) - expected) <= VARIANCE_TOL:
                    return "mismatch", f"variance at n={n}: {value} != {expected!r}"
            return None
        if rows[0] != ["i", "j", "distance", "p_max"]:
            return "mismatch", f"bad header {rows[0]}"
        n, quotient = int(opts["--n"]), "--quotient" in opts
        expected = distance_matrix(n, quotient)
        points = expected.shape[0]
        body = np.array(rows[1:], dtype=float).reshape(-1, 4)
        if body.shape[0] != points * (points - 1) // 2:
            return "mismatch", f"{body.shape[0]} rows for {points} points"
        i, j = np.triu_indices(points, 1)
        if not (np.array_equal(body[:, 0], i + 1) and np.array_equal(body[:, 1], j + 1)):
            return "mismatch", "rows are not the upper triangle in order"
        return _compare(expected[i, j], body[:, 2], body[:, 3])


def _options(argv) -> dict:
    opts = {}
    for k, token in enumerate(argv):
        if token.startswith("--"):
            nxt = argv[k + 1] if k + 1 < len(argv) else None
            opts[token] = nxt if nxt is not None and not nxt.startswith("--") else True
    return opts


def _is_number_matrix(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(row, list)
        and all(type(x) in (int, float) for x in row)
        for row in value
    )


def _compare(expected_d, d, p):
    """Distances and p_max = exp(-d) (1 on the diagonal) against the oracle distances."""
    expected_p = np.exp(-expected_d)
    if expected_p.ndim == 2:
        np.fill_diagonal(expected_p, 1.0)
    for name, got, want in (("distance", d, expected_d), ("p_max", p, expected_p)):
        gap = float(np.max(np.abs(got - want), initial=0.0))
        if not gap <= DISTANCE_TOL:
            return "mismatch", f"{name} off by {gap:.3e}"
    return None


def _check_distance_doc(opts, payload):
    n, quotient = int(opts["--n"]), "--quotient" in opts
    expected = distance_matrix(n, quotient)
    points = expected.shape[0]
    if payload["n_effective"] != points:
        return "mismatch", f"n_effective {payload['n_effective']} != {points}"
    d = np.array(payload["distance_matrix"], dtype=float)
    p = np.array(payload["p_max_matrix"], dtype=float)
    if d.shape != (points, points) or p.shape != (points, points):
        return "mismatch", f"matrix shapes {d.shape}, {p.shape}"
    problem = _compare(expected, d, p)
    if problem:
        return problem
    i, j = np.triu_indices(points, 1)
    zero = expected[i, j] < DISTANCE_TOL
    pairs = [[int(a) + 1, int(b) + 1] for a, b in zip(i[zero], j[zero])]
    if payload["zero_distance_pairs"] != pairs or payload["semi_metric"] != bool(pairs):
        return "mismatch", "zero-distance pairs differ from the antipodal pairs"
    return None


def _check_metric(opts, payload):
    n, quotient = int(opts["--n"]), "--quotient" in opts
    expected = "Metric" if quotient or n % 2 else "SemiMetricAntipodal"
    if payload["classification"] != expected:
        return "mismatch", f"classification {payload['classification']} != {expected}"
    return None


def _check_classify(opts, payload):
    n = int(opts["--n"])
    expected = is_prime(n) or (n % 2 == 0 and is_prime(n // 2))
    if payload["uniform"] != expected:
        return "mismatch", f"uniform={payload['uniform']} for n={n}"
    return None


def _geodesics(space: str, coords: np.ndarray, curvature: float) -> np.ndarray:
    if space == "Euclidean":
        return np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2))
    radius = 1.0 / math.sqrt(abs(curvature))
    if space == "Spherical":
        return radius * np.arccos(np.clip(coords @ coords.T / radius**2, -1.0, 1.0))
    minkowski = coords[:, 1:] @ coords[:, 1:].T - np.outer(coords[:, 0], coords[:, 0])
    return radius * np.arccosh(np.clip(-minkowski / radius**2, 1.0, None))


def _check_embed(opts, rc, doc, stderr):
    space = opts["--space"]
    last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    if rc == 1:
        clean = last.startswith(f"error: not embeddable in {space} space")
        if clean and doc is not None and doc["payload"]["embeddable"] is False:
            return _check_negative(space, int(opts["--n"]), doc["payload"]["kappa"])
        return "error", f"exit 1: {last[:200]}"
    if rc != 0 or doc is None:
        return "error", f"exit {rc}: {last[:200]}"
    payload = doc["payload"]
    real = payload["realization"]
    if not payload["embeddable"] or real is None:
        return "mismatch", "exit 0 without a realization"
    if not real["max_distortion"] <= EMBED_TOL:
        return "mismatch", f"max_distortion {real['max_distortion']:.3e}"
    n = int(opts["--n"])
    expected = distance_matrix(n, n % 2 == 0)
    coords = np.array(real["coordinates"], dtype=float)
    if coords.shape[0] != expected.shape[0]:
        return "mismatch", f"{coords.shape[0]} points for {expected.shape[0]}"
    got = _geodesics(payload["space"], coords, real["curvature"])
    i, j = np.triu_indices(expected.shape[0], 1)
    gap = float(np.max(np.abs(got[i, j] - expected[i, j]), initial=0.0))
    if not gap <= EMBED_TOL:
        return "mismatch", f"geodesic distances off by {gap:.3e}"
    return None


def _check_negative(space: str, n: int, kappa):
    """A "not embeddable" verdict must agree with an eigenvalue test at the same curvature."""
    d = distance_matrix(n, n % 2 == 0)
    if space == "euclidean":
        centre = np.eye(len(d)) - 1.0 / len(d)
        w = np.linalg.eigvalsh(-0.5 * centre @ d**2 @ centre)
        embeds = w[0] >= -EIGEN_TOL * np.abs(w).max()
    elif space == "hyperbolic":
        w = np.linalg.eigvalsh(np.cosh(math.sqrt(-kappa) * d))
        embeds = np.count_nonzero(w > EIGEN_TOL * np.abs(w).max()) == 1
    else:
        w = np.linalg.eigvalsh(np.cos(math.sqrt(kappa) * d))
        embeds = (math.sqrt(kappa) * d.max() <= math.pi
                  and w[0] >= -EIGEN_TOL * np.abs(w).max())
    if embeds:
        return "mismatch", f"not embeddable, but the {space} eigenvalue test embeds n={n}"
    return None
