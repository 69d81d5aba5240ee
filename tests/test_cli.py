import contextlib
import csv
import enum
import errno
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import types
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import spinring
from spinring import (
    Coupling,
    RingSpec,
    build_single_excitation_hamiltonian,
    circulant_spectrum,
    cli,
    distance_matrix,
    embedding,
    kappa_max,
    numerical_spectrum,
    p_max,
    p_max_closed_form,
    projector_overlaps,
    verify_subspace_restriction,
)
from spinring import errors
from spinring.spectral import circulant_eigenspaces

SCHEMA = json.loads(
    resources.files("spinring").joinpath("schemas/output-v1.schema.json").read_text()
)


# The subprocesses import the same spinring as the tests, installed or not.
PACKAGE_ROOT = str(Path(spinring.__file__).resolve().parent.parent)


def run_cli(*args):
    path = os.pathsep.join(filter(None, (PACKAGE_ROOT, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "spinring", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def parse(result):
    doc = json.loads(result.stdout)
    jsonschema.validate(doc, SCHEMA)
    return doc


def test_schema_itself_is_valid():
    jsonschema.Draft7Validator.check_schema(SCHEMA)


def test_distance_small_ring():
    result = run_cli("distance", "--n", "3")
    assert result.returncode == 0
    payload = parse(result)["payload"]
    assert payload["distance_matrix"][0][1] == pytest.approx(
        math.log(9.0 / 4.0), abs=1e-12
    )
    assert payload["p_max_matrix"][0][1] == pytest.approx(4.0 / 9.0, abs=1e-12)
    assert payload["semi_metric"] is False
    assert payload["zero_distance_pairs"] == []


def test_distance_even_ring_marks_semi_metric():
    payload = parse(run_cli("distance", "--n", "4"))["payload"]
    assert payload["semi_metric"] is True
    assert payload["zero_distance_pairs"] == [[1, 3], [2, 4]]
    assert payload["distance_matrix"][0][2] == 0.0


def test_distance_quotient():
    result = run_cli("distance", "--n", "4", "--quotient")
    assert result.returncode == 0
    payload = parse(result)["payload"]
    assert payload["n_effective"] == 2
    assert payload["distance_matrix"][0][1] == pytest.approx(math.log(4.0), abs=1e-12)
    assert payload["semi_metric"] is False


def test_distance_csv_format():
    result = run_cli("distance", "--n", "4", "--format", "csv")
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "i,j,distance,p_max"
    assert len(lines) == 1 + 6
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "2"
    assert float(first[3]) == pytest.approx(0.25, abs=1e-12)


def _plain(value):
    """The document in the types json.dumps takes: arrays and circulants as nested lists,
    record rows as a list of records, enums as their values and numpy scalars as
    Python numbers."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, cli._Circulant):
        sites = np.arange(len(value.row))
        return value.row[(sites[None, :] - sites[:, None]) % len(sites)].tolist()
    if isinstance(value, cli._Records):
        rows = map(_plain, value.rows)
        return [dict(zip(value.keys, row)) if value.keys else row for row in rows]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, np.generic):
        return value.item()
    return value


def _written(write) -> str:
    """The text that ``write`` writes to a fresh in-memory sink."""
    sink = io.StringIO()
    write(sink)
    return sink.getvalue()


def _emitted(monkeypatch, argv):
    """Run one command in process; return (documents passed to _emit_json, emitted texts).

    Each text is what the writer passed to one `_emit` call writes.
    """
    docs, texts = [], []
    emit_json = cli._emit_json

    def record(doc, out_path):
        docs.append(doc)
        emit_json(doc, out_path)

    monkeypatch.setattr(cli, "_emit_json", record)
    monkeypatch.setattr(cli, "_emit", lambda write, out_path: texts.append(_written(write)))
    cli.main(argv)
    return docs, texts


@pytest.mark.parametrize(
    "argv",
    [
        ["distance", "--n", "3"],
        ["distance", "--n", "9"],
        ["distance", "--n", "12"],
        ["distance", "--n", "12", "--quotient"],
        ["embed", "--n", "5", "--space", "euclidean"],
    ],
)
def test_emit_json_matches_json_dumps(monkeypatch, argv):
    docs, texts = _emitted(monkeypatch, argv)
    assert len(docs) == 1 and len(texts) == 1
    assert texts[0] == json.dumps(_plain(docs[0]), indent=2) + "\n"


@pytest.mark.parametrize(
    "argv, params",
    [
        (["distance", "--n", "5"],
         [("n", 5), ("coupling", "xx"), ("strength", 1.0), ("quotient", False),
          ("format", "json"), ("seed", 7)]),
        (["metric-check", "--n", "6", "--quotient"],
         [("n", 6), ("quotient", True), ("seed", 7)]),
        (["classify", "--n", "5"], [("n", 5), ("seed", 7)]),
        (["embed", "--n", "5", "--space", "euclidean"],
         [("n", 5), ("space", "euclidean"), ("kappa", "auto"), ("seed", 7)]),
        (["variance-sweep", "--n-max", "9", "--format", "json"],
         [("n_min", 3), ("n_max", 9), ("quotient_policy", "auto"), ("format", "json"),
          ("seed", 7)]),
        (["verify", "--n-max-full", "4", "--n-max-subspace", "5"],
         [("n_max_full", 4), ("n_max_subspace", 5), ("inject_fault", False), ("seed", 7)]),
    ],
)
def test_params_are_pinned(monkeypatch, argv, params):
    docs, _ = _emitted(monkeypatch, argv + ["--seed", "7"])
    assert list(docs[0]["params"].items()) == params


def test_emit_json_matches_json_dumps_on_edge_matrices(monkeypatch):
    texts = []
    monkeypatch.setattr(cli, "_emit", lambda write, out_path: texts.append(_written(write)))
    signed = np.array([[0.0, -0.0, 1e-300], [-0.0, 0.0, 1.5], [2.0, 1.5, 0.1 + 0.2]])
    docs = [
        {"a": {"nan": np.array([[0.0, math.nan], [math.inf, 1.0]]), "signed": signed}},
        {"empty": np.zeros((0, 0)), "rows": np.zeros((2, 0)), "vector": np.arange(3.0)},
        [signed, [signed.T, {"m": np.asfortranarray(signed)}]],
        # A string that once served as the matrix placeholder is just a string.
        {"kappa": "@matrix@", "m": signed},
    ]
    for doc in docs:
        cli._emit_json(doc, None)
    assert texts == [json.dumps(_plain(doc), indent=2) + "\n" for doc in docs]


def test_emit_json_matches_json_dumps_on_edge_values(monkeypatch):
    texts = []
    monkeypatch.setattr(cli, "_emit", lambda write, out_path: texts.append(_written(write)))
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 0.1 + 0.2]
    docs = [
        {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "zero": -0.0},
        {"list": special, "array": np.array(special), "nested": [[special], ()]},
        {"f64": np.float64(-0.0), "i64": np.int64(-7), "bool": np.bool_(True),
         "coupling": Coupling.XX, "couplings": [Coupling.XX, (Coupling.HEISENBERG,)]},
        {"tuple": (1, 2.5, "x"), "empty": [{}, [], (), np.zeros(0), np.zeros((0, 3))]},
        {"ints": np.arange(-2, 3), "bools": np.array([True, False]), "int64": np.int64(2**62)},
        {"text": ["caf\u00e9", "\u2603 \U0001f600", 'quote " back \\ tab\t nl\n\x00']},
        {"@matrix@": "@matrix@", "m": np.eye(2), "s": ["@matrix@"]},
        [None, True, False, 0, -1, 10**30],
        {},
        [],
    ]
    for doc in docs:
        cli._emit_json(doc, None)
    assert texts == [json.dumps(_plain(doc), indent=2) + "\n" for doc in docs]


def test_inline_scalar_members_match_json_dumps(monkeypatch):
    # Scalar dict and list members are written inline by their exact type:
    # bool apart from int, numpy scalars and enums through the recursive branch.
    texts = []
    monkeypatch.setattr(cli, "_emit", lambda write, out_path: texts.append(_written(write)))
    scalars = [-0.0, 0.0, math.nan, math.inf, -math.inf, 1e-320, 0.1 + 0.2, True, False, 1, 0,
               -(2**70), None, "", "caf\u00e9 \u2603 \U0001f600", '"\\\n\t\x00']
    docs = [
        {"scalars": scalars, "by_key": {str(i): v for i, v in enumerate(scalars)}},
        [[[], {}], {"a": [{}], "b": [[], [[]]], "c": {"d": {}}}, (), [()]],
        {"mixed": [True, 1, 1.0, np.float64(-0.0), np.int64(1), np.bool_(True), Coupling.XX]},
        {"\u00e9\u2603": {"\U0001f600": [None, {"": ""}]}},
    ]
    for doc in docs:
        cli._emit_json(doc, None)
    assert texts == [json.dumps(_plain(doc), indent=2) + "\n" for doc in docs]


def test_small_metric_check_document_takes_few_writer_calls(monkeypatch):
    # Only the document, params, payload, violations and the classification
    # enum (and its value) recurse: every other member is an inline scalar.
    calls = []
    json_parts = cli._json_parts
    monkeypatch.setattr(cli, "_json_parts", lambda *args: calls.append(1) or json_parts(*args))
    docs, texts = _emitted(monkeypatch, ["metric-check", "--n", "9"])
    assert texts[0] == json.dumps(_plain(docs[0]), indent=2) + "\n"
    assert len(calls) == 6


def test_float_vectors_are_written_in_one_pass(monkeypatch):
    # A 1-D float64 array is written from its distinct values' texts and one
    # join: one _json_parts call, not one per entry, and json.dumps's text.
    texts = []
    monkeypatch.setattr(cli, "_emit", lambda write, out_path: texts.append(_written(write)))
    values = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1 + 0.2, 1e300, -0.0, 5e-324,
              math.nan, math.inf, -math.inf, 1.0, 1.0, 2.5e-8]
    docs = [
        {"v": np.array(values)},
        {"nested": [{"deep": {"v": np.array(values[::-1])}}], "one": np.array([1e300])},
        [np.array(values), np.array([0.1, -0.0, 0.1], dtype=np.float32), np.zeros(0),
         np.array([-0.0])],
    ]
    for doc in docs:
        cli._emit_json(doc, None)
    assert texts == [json.dumps(_plain(doc), indent=2) + "\n" for doc in docs]
    calls = []
    json_parts = cli._json_parts
    monkeypatch.setattr(cli, "_json_parts", lambda *args: calls.append(1) or json_parts(*args))
    cli._emit_json({"v": np.repeat(np.array(values), 100)}, None)
    assert len(calls) == 2


def test_non_finite_float_matrices_are_written_in_one_call(monkeypatch):
    # A 2-D float64 array takes the rows branch whatever its values: one
    # _json_parts call, not one per row and entry, and json.dumps's text.
    texts = []
    monkeypatch.setattr(cli, "_emit", lambda write, out_path: texts.append(_written(write)))
    calls = []
    json_parts = cli._json_parts
    monkeypatch.setattr(cli, "_json_parts", lambda *args: calls.append(1) or json_parts(*args))
    matrix = np.array([[0.0, math.nan, math.inf], [-math.inf, -0.0, 1e300],
                       [-math.nan, 0.1 + 0.2, 5e-324], [math.inf, math.inf, math.nan]])
    for doc in ({"m": matrix}, {"m": matrix[:1]}, {"m": matrix[:, :1]}):
        calls.clear()
        cli._emit_json(doc, None)
        assert texts[-1] == json.dumps(_plain(doc), indent=2) + "\n"
        assert len(calls) == 2


def test_circulant_text_matches_dense_matrix_text():
    for n in range(3, 65):
        for quotient in (False, True) if n % 2 == 0 else (False,):
            d = distance_matrix(RingSpec(n), quotient=quotient)
            p = np.exp(-np.array(d.entries))
            np.fill_diagonal(p, 1.0)
            for row, dense in ((d.profile, np.array(d.entries)), (np.exp(-d.profile), p)):
                assert np.array_equal(_plain(cli._Circulant(row)), dense)
                for indent in (4, 10):
                    text = _written(lambda sink: cli._json_parts(cli._Circulant(row), indent, sink))
                    dense_text = _written(lambda sink: cli._json_parts(dense, indent, sink))
                    assert text == dense_text, (n, quotient)


@pytest.mark.parametrize(
    "profile",
    [
        [0.0, 1.5, -0.0, 1.5, 0.0, 2.0],
        [0.0, math.nan, math.inf, -math.inf, -math.nan, -0.0, 0.1 + 0.2, 0.1 + 0.2, math.inf],
        [-0.0, 1e-300, 5e-324, 1e-300, 0.0, -0.0, 5e-324],
    ],
)
def test_circulant_writers_match_per_entry_reprs(monkeypatch, profile):
    # Each writer calls repr once per distinct bit pattern; the references
    # call it once per entry.
    texts = []
    monkeypatch.setattr(cli, "_emit", lambda write, out_path: texts.append(_written(write)))
    row, p = np.array(profile), np.array(profile[::-1])
    n = len(profile)
    dense = [[profile[(j - i) % n] for j in range(n)] for i in range(n)]
    cli._emit_json({"m": cli._Circulant(row), "nested": [{"m": cli._Circulant(row)}]}, None)
    assert texts == [json.dumps({"m": dense, "nested": [{"m": dense}]}, indent=2) + "\n"]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["i", "j", "distance", "p_max"])
    for i in range(n):
        for j in range(i + 1, n):
            writer.writerow([i + 1, j + 1, repr(profile[j - i]), repr(float(p[j - i]))])
    assert "".join(cli._pairs_csv(row, p)) == buffer.getvalue()


@pytest.mark.parametrize(
    "n, quotient", [(3, False), (6, True), (9, False), (60, False), (60, True)]
)
def test_distance_csv_matches_csv_writer(monkeypatch, n, quotient):
    argv = ["distance", "--n", str(n), "--format", "csv"] + (["--quotient"] if quotient else [])
    _, texts = _emitted(monkeypatch, argv)
    d = distance_matrix(RingSpec(n), quotient=quotient)
    p = np.exp(-d.entries)
    np.fill_diagonal(p, 1.0)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["i", "j", "distance", "p_max"])
    for i in range(d.n_effective):
        for j in range(i + 1, d.n_effective):
            writer.writerow([i + 1, j + 1, repr(float(d.entries[i, j])), repr(float(p[i, j]))])
    assert texts == [buffer.getvalue()]


def test_variance_sweep_csv_matches_csv_writer(monkeypatch):
    _, texts = _emitted(monkeypatch, ["variance-sweep", "--n-min", "3", "--n-max", "12"])
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["n", "variance"])
    writer.writerows([n, repr(v)] for n, v in spinring.distance_variance_sweep(3, 12))
    assert texts == [buffer.getvalue()]


def test_usage_errors_exit_2():
    assert run_cli("distance", "--n", "2").returncode == 2
    assert run_cli("metric-check", "--n", "9", "--quotient").returncode == 2
    assert run_cli("distance", "--n", "5", "--strength", "0").returncode == 2
    for strength in ("inf", "nan"):
        rc, out, err = _in_process(["distance", "--n", "5", "--strength", strength])
        assert (rc, out) == (2, ""), strength
        assert err == f"error: coupling strength must be positive and finite, got {strength}\n"
    assert run_cli("embed", "--n", "5", "--space", "spherical", "--kappa", "much").returncode == 2
    assert run_cli("embed", "--n", "5", "--space", "spherical", "--kappa", "-1").returncode == 2
    assert run_cli("nonsense").returncode == 2


@pytest.mark.parametrize("argv", [
    ["distance", "--n", str(2**63)],
    ["metric-check", "--n", str(2**63)],
    ["metric-check", "--n", str(2**63 + 1)],
    ["metric-check", "--n", str(2**64 + 1)],
    ["metric-check", "--n", str(2**65), "--quotient"],
])
def test_a_ring_of_2_to_the_63_points_is_a_usage_error(argv):
    rc, out, err = _in_process(argv)
    assert (rc, out) == (2, "")
    n_effective = int(argv[2]) >> ("--quotient" in argv)
    assert err == f"error: a ring needs fewer than 2**63 points, got N={n_effective}\n"


@pytest.mark.parametrize("argv", [["metric-check", "--n", str(2**63 - 1)],
                                  ["metric-check", "--n", str(2**63), "--quotient"]])
def test_a_ring_just_inside_the_point_bound_is_checked(argv):
    rc, out, err = _in_process(argv)
    assert (rc, err) == (0, "")
    assert json.loads(out)["payload"]["classification"] == "Metric"


_ERRORS = [value for value in vars(errors).values()
           if isinstance(value, type) and issubclass(value, errors.SpinRingError)]


def test_usage_errors_are_the_input_refusals():
    usage = {error.__name__ for error in _ERRORS if issubclass(error, errors.UsageError)}
    assert usage == {"UsageError", "InvalidArgs", "InvalidSpec", "QuotientOnOddRing",
                     "DimensionTooLarge", "IndexOutOfRange"}


@pytest.mark.parametrize("error", _ERRORS, ids=lambda error: error.__name__)
def test_exit_code_follows_the_error_type(monkeypatch, error):
    def command(args):
        raise error("raised inside a command")

    monkeypatch.setattr(cli, "cmd_classify", command)
    rc, out, err = _in_process(["classify", "--n", "5"])
    assert rc == (2 if issubclass(error, errors.UsageError) else 1)
    assert (out, err) == ("", "error: raised inside a command\n")


@pytest.mark.parametrize("space, sign", [("spherical", ""), ("hyperbolic", "-")])
def test_embed_subnormal_kappa_is_a_usage_error(space, sign):
    # A subnormal kappa used to pass the verdict and then fail the realization.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for kappa in (1e-316, 5e-324):
            for n in range(3, 65):
                rc, out, err = _in_process(["embed", "--n", str(n), "--space", space,
                                            f"--kappa={sign}{kappa!r}"])
                assert (rc, out) == (2, ""), (n, kappa)
                assert err == f"error: curvature must be a normal double, got {sign}{kappa!r}\n"
        for n in range(3, 65):
            kappa = float(sign + repr(sys.float_info.min))
            ring = embedding.ring_embedding(RingSpec(n), embedding.EmbeddingSpace[space.upper()],
                                            kappa)
            assert (ring.realization is not None) == ring.verdict.embeddable, n


def test_metric_check_exit_codes_and_classification():
    result = run_cli("metric-check", "--n", "9")
    assert result.returncode == 0
    assert parse(result)["payload"]["classification"] == "Metric"

    result = run_cli("metric-check", "--n", "8")
    assert result.returncode == 0
    payload = parse(result)["payload"]
    assert payload["classification"] == "SemiMetricAntipodal"
    assert len(payload["violations"]) == 4

    result = run_cli("metric-check", "--n", "8", "--quotient")
    assert result.returncode == 0
    assert parse(result)["payload"]["classification"] == "Metric"


def test_metric_check_is_exhaustive_on_large_rings():
    result = run_cli("metric-check", "--n", "301")
    assert result.returncode == 0
    payload = parse(result)["payload"]
    assert payload["exhaustive"] is True
    assert payload["classification"] == "Metric"

    result = run_cli("metric-check", "--n", "400")
    assert result.returncode == 0
    payload = parse(result)["payload"]
    assert payload["exhaustive"] is True
    assert payload["classification"] == "SemiMetricAntipodal"
    assert [(v["kind"], v["sites"]) for v in payload["violations"]] == [
        ("separation", [i, i + 200]) for i in range(1, 201)
    ]


def test_classify_kinds():
    payload = parse(run_cli("classify", "--n", "13"))["payload"]
    assert payload["kind"] == "Prime"
    assert payload["uniform"] is True
    assert payload["uniform_distance"] is not None
    assert len(payload["distinct_values"]) == 1

    payload = parse(run_cli("classify", "--n", "26"))["payload"]
    assert payload["kind"] == "TwicePrime"
    assert payload["uniform"] is True

    payload = parse(run_cli("classify", "--n", "21"))["payload"]
    assert payload["kind"] == "OddComposite"
    assert payload["uniform"] is False
    assert payload["uniform_distance"] is None
    assert len(payload["distinct_values"]) >= 2


def test_embed_spherical_auto():
    result = run_cli("embed", "--n", "5", "--space", "spherical")
    assert result.returncode == 0
    payload = parse(result)["payload"]
    assert payload["embeddable"] is True
    w = distance_matrix(RingSpec(5)).entries[0, 1]
    assert payload["kappa"] == pytest.approx(kappa_max(5, w), rel=1e-12)
    realization = payload["realization"]
    assert realization["ambient_dim"] == 4
    assert realization["model_dim"] == 3
    assert len(realization["coordinates"]) == 5
    assert len(realization["coordinates"][0]) == 4
    assert realization["max_distortion"] < 1e-8
    assert realization["irreducible"] is True


def test_embed_spherical_above_boundary_exits_1():
    w = float(distance_matrix(RingSpec(5)).entries[0, 1])
    kappa = 1.01 * kappa_max(5, w)
    result = run_cli("embed", "--n", "5", "--space", "spherical", "--kappa", repr(kappa))
    assert result.returncode == 1
    payload = parse(result)["payload"]
    assert payload["embeddable"] is False
    assert payload["realization"] is None
    assert "not embeddable" in result.stderr


def test_embed_euclidean_quotient_triangle():
    result = run_cli("embed", "--n", "6", "--space", "euclidean")
    assert result.returncode == 0
    payload = parse(result)["payload"]
    assert payload["quotient"] is True
    assert payload["n_points"] == 3
    realization = payload["realization"]
    assert realization["ambient_dim"] == 2
    assert len(realization["coordinates"]) == 3
    assert payload["kappa"] is None


def test_embed_hyperbolic_auto():
    result = run_cli("embed", "--n", "5", "--space", "hyperbolic")
    assert result.returncode == 0
    payload = parse(result)["payload"]
    assert payload["kappa"] == -1.0
    assert payload["embeddable"] is True
    assert payload["realization"]["max_distortion"] < 1e-8


def test_embed_euclidean_indefinite_ring_is_clean_negative():
    result = run_cli("embed", "--n", "120", "--space", "euclidean")
    assert result.returncode == 1
    payload = parse(result)["payload"]
    assert payload["embeddable"] is False
    assert payload["realization"] is None
    assert payload["verdict"]["margin"] < -0.1
    assert result.stderr.strip().splitlines()[-1].startswith(
        "error: not embeddable in euclidean space"
    )


def test_embed_spherical_window_ring():
    result = run_cli("embed", "--n", "16", "--space", "spherical")
    assert result.returncode == 0
    payload = parse(result)["payload"]
    assert payload["kappa"] == pytest.approx(2.8733, rel=1e-4)
    assert payload["threshold"]["monotone_ok"] is False
    assert payload["embeddable"] is True
    assert payload["realization"]["max_distortion"] < 1e-8


@pytest.mark.parametrize(
    "args", [("--n", "24"), ("--n", "16", "--kappa", "3e-8")]
)
def test_embed_spherical_infeasible_is_clean_negative(args):
    result = run_cli("embed", "--space", "spherical", *args)
    assert result.returncode == 1
    payload = parse(result)["payload"]
    assert payload["embeddable"] is False
    assert payload["kappa"] > 0.0
    assert payload["verdict"]["margin"] < -0.01
    assert result.stderr.strip().splitlines()[-1].startswith(
        "error: not embeddable in spherical space"
    )


@pytest.mark.parametrize("space, kappa", [("spherical", "inf"), ("hyperbolic", "-inf")])
def test_embed_infinite_kappa_is_a_usage_error(space, kappa):
    result = run_cli("embed", "--n", "5", "--space", space, f"--kappa={kappa}")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"error: curvature must be finite, got {kappa}\n"


@pytest.mark.parametrize("n", [5, 7, 9, 16])
def test_embed_non_finite_gram_is_a_usage_error(n):
    # cosh overflows at kappa = -1e6; a NaN spectrum used to pass the verdict
    # and fail the realization.  The refusal is the only signal, no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc, out, err = _in_process(["embed", "--n", str(n), "--space", "hyperbolic",
                                    "--kappa=-1e6"])
    assert (rc, out) == (2, "")
    assert err == "error: hyperbolic Gram matrix is not finite at kappa=-1000000.0\n"


def test_embed_bad_kappa_fails_before_the_threshold_search(monkeypatch):
    def search(d):
        raise AssertionError("the threshold search ran")

    monkeypatch.setattr(embedding, "spherical_feasibility_threshold", search)
    rc, out, err = _in_process(["embed", "--n", "12", "--space", "spherical", "--kappa", "much"])
    assert (rc, out) == (2, "")
    assert err == "error: --kappa must be 'auto' or a number, got 'much'\n"


@pytest.mark.parametrize("space", ["spherical", "euclidean", "hyperbolic"])
def test_every_space_parses_kappa(space):
    rc, out, err = _in_process(["embed", "--n", "5", "--space", space, "--kappa", "much"])
    assert (rc, out) == (2, "")
    assert err == "error: --kappa must be 'auto' or a number, got 'much'\n"


def test_euclidean_embed_ignores_a_numeric_kappa():
    rc, out, err = _in_process(["embed", "--n", "5", "--space", "euclidean", "--kappa", "5"])
    doc = json.loads(out)
    assert (rc, err) == (0, "")
    assert (doc["payload"]["kappa_policy"], doc["payload"]["kappa"]) == ("value", None)
    doc["params"]["kappa"] = doc["payload"]["kappa_policy"] = "auto"
    assert doc == json.loads(_in_process(["embed", "--n", "5", "--space", "euclidean"])[1])


def test_variance_sweep_csv():
    result = run_cli("variance-sweep", "--n-min", "3", "--n-max", "20")
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "n,variance"
    assert len(lines) == 1 + 18
    values = {}
    for line in lines[1:]:
        n_text, var_text = line.split(",")
        values[int(n_text)] = float(var_text)
    assert values[13] < 1e-20
    assert values[15] > 1e-6


def test_variance_sweep_json():
    result = run_cli(
        "variance-sweep", "--n-min", "3", "--n-max", "12", "--format", "json"
    )
    assert result.returncode == 0
    payload = parse(result)["payload"]
    assert [row["n"] for row in payload["rows"]] == list(range(3, 13))


def test_verify_passes():
    result = run_cli("verify", "--n-max-full", "6", "--n-max-subspace", "24")
    assert result.returncode == 0
    payload = parse(result)["payload"]
    assert payload["all_ok"] is True
    names = [check["name"] for check in payload["checks"]]
    assert names == [
        "subspace_restriction",
        "spectrum_agreement",
        "coupling_invariance",
        "toeplitz_minors",
        "transfer_bound",
    ]
    assert all(check["ok"] for check in payload["checks"])


def test_bare_verify_passes():
    result = run_cli("verify")
    assert result.returncode == 0, result.stderr
    payload = parse(result)["payload"]
    assert (payload["n_max_full"], payload["n_max_subspace"]) == (10, 64)
    assert payload["all_ok"] is True


def test_verify_never_runs_the_jacobi_oracle(monkeypatch):
    def oracle_reached(*args, **kwargs):
        raise AssertionError("verify reached the Jacobi oracle")

    monkeypatch.setattr(spinring.spectral, "jacobi_eigh", oracle_reached)
    rc, out, err = _in_process(["verify"])
    assert rc == 0, err
    assert json.loads(out)["payload"]["all_ok"] is True


def test_verify_never_runs_the_time_series(monkeypatch):
    def series_reached(*args, **kwargs):
        raise AssertionError("verify reached the sampled time series")

    monkeypatch.setattr(spinring.metric, "transfer_probability_time_series", series_reached)
    monkeypatch.setattr(cli, "transfer_probability_time_series", series_reached, raising=False)
    rc, out, err = _in_process(["verify"])
    assert rc == 0, err
    assert json.loads(out)["payload"]["all_ok"] is True


def test_verify_transfer_bound_catches_a_low_closed_form(monkeypatch, fixed_checks):
    argv = ["verify", "--n-max-full", "4", "--n-max-subspace", "8"]
    assert _in_process(argv)[0] == 0  # the fixed checks are computed before the patch
    closed_form = cli.p_max_closed_form
    monkeypatch.setattr(cli, "p_max_closed_form", lambda n, m: 0.999 * closed_form(n, m))
    fixed_checks()
    rc, out, err = _in_process(argv)
    assert rc == 1
    payload = json.loads(out)["payload"]
    assert payload["all_ok"] is False
    assert {check["name"]: check["ok"] for check in payload["checks"]} == {
        "subspace_restriction": True,
        "spectrum_agreement": True,
        "coupling_invariance": True,
        "toeplitz_minors": True,
        "transfer_bound": False,
    }
    assert err == "error: verification failed: transfer_bound\n"


def test_verify_toeplitz_minors_catches_a_perturbed_recursion(monkeypatch, fixed_checks):
    argv = ["verify", "--n-max-full", "4", "--n-max-subspace", "8"]
    assert _in_process(argv)[0] == 0  # the fixed checks are computed before the patch
    recursion = cli.toeplitz_minor_recursion
    monkeypatch.setattr(cli, "toeplitz_minor_recursion",
                        lambda k_max, c: [t * (1.0 + 1e-9) for t in recursion(k_max, c)])
    fixed_checks()
    rc, out, err = _in_process(argv)
    assert rc == 1
    payload = json.loads(out)["payload"]
    assert payload["all_ok"] is False
    assert {check["name"]: check["ok"] for check in payload["checks"]} == {
        "subspace_restriction": True,
        "spectrum_agreement": True,
        "coupling_invariance": True,
        "toeplitz_minors": False,
        "transfer_bound": True,
    }
    assert err == "error: verification failed: toeplitz_minors\n"


# The checks that read no flag, each computed once per process.
FIXED_CHECKS = {"toeplitz_minors": cli._check_toeplitz_minors,
                "transfer_bound": cli._check_transfer_bound}
# Those routines, by name in cli: the check each one fails when perturbed, and its perturbation.
FIXED_ROUTINES = {
    "toeplitz_minor_closed_form": ("toeplitz_minors",
                                   lambda f: lambda k, c: f(k, c) * (1.0 + 1e-9)),
    "toeplitz_minor_recursion": ("toeplitz_minors",
                                 lambda f: lambda k_max, c: [t * (1.0 + 1e-9) for t in f(k_max, c)]),
    "p_max_closed_form": ("transfer_bound", lambda f: lambda n, m: 0.999 * f(n, m)),
}


def _clear_fixed_checks():
    for check in FIXED_CHECKS.values():
        check.cache_clear()


@pytest.fixture
def fixed_checks():
    """Clears the fixed checks' records when called, and again at teardown.

    A test that replaces a routine calls it once the replacement is installed,
    and no later test reads a record built from the replaced routine.
    """
    yield _clear_fixed_checks
    _clear_fixed_checks()


@pytest.mark.parametrize("routine", list(FIXED_ROUTINES))
def test_a_replaced_routine_is_checked_again(monkeypatch, fixed_checks, routine):
    argv = ["verify", "--n-max-full", "3", "--n-max-subspace", "3"]
    fixed_checks()
    passing = _in_process(argv)
    assert passing[0] == 0, passing[2]
    check, perturb = FIXED_ROUTINES[routine]
    with monkeypatch.context() as patch:
        patch.setattr(cli, routine, perturb(getattr(cli, routine)))
        # A process keeps its first records until they are cleared.
        assert _in_process(argv) == passing
        fixed_checks()
        rc, out, err = _in_process(argv)
    assert (rc, err) == (1, f"error: verification failed: {check}\n")
    assert [c["name"] for c in json.loads(out)["payload"]["checks"] if not c["ok"]] == [check]
    # The restored routine, checked again, gives the first request's bytes.
    fixed_checks()
    assert _in_process(argv) == passing


def test_verify_runs_the_fixed_checks_routines_once_per_process(monkeypatch, fixed_checks):
    calls = dict.fromkeys(FIXED_ROUTINES, 0)
    for name in calls:
        def counted(*args, _name=name, _original=getattr(cli, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(cli, name, counted)
    fixed_checks()
    requests = (["verify", "--n-max-full", "4", "--n-max-subspace", "5"], ["verify", "--inject-fault"],
                ["verify", "--n-max-full", "3", "--n-max-subspace", "3"])
    assert [_in_process(argv)[0] for argv in requests * 2] == [0, 1, 0] * 2
    # One order-12 table each for the minors, one closed form per transfer ring and separation.
    assert calls == {"toeplitz_minor_closed_form": 1, "toeplitz_minor_recursion": 1,
                     "p_max_closed_form": sum(n // 2 for n in (3, 4, 5, 7, 8))}


def test_each_verify_gets_its_own_fixed_check_records(monkeypatch):
    argv = ["verify", "--n-max-full", "3", "--n-max-subspace", "3"]
    expected = _in_process(argv)[1]
    first, _ = _emitted(monkeypatch, argv)
    for record in first[0]["payload"]["checks"]:
        record["ok"], record["detail"] = None, "changed"
    _, texts = _emitted(monkeypatch, argv)
    assert texts == [expected]


@pytest.mark.parametrize("argv", [["verify"], ["verify", "--inject-fault"],
                                  ["verify", "--n-max-full", "3", "--n-max-subspace", "8"]])
def test_a_warm_verify_prints_what_a_fresh_process_prints(argv):
    assert _in_process(["verify", "--n-max-full", "3", "--n-max-subspace", "3"])[0] == 0
    assert all(check.cache_info().currsize == 1 for check in FIXED_CHECKS.values())
    child = run_cli(*argv)
    assert _in_process(argv) == (child.returncode, child.stdout, child.stderr)


def test_fixed_checks_run_on_the_first_verify_not_on_import():
    script = (
        "import contextlib, io, spinring.cli as cli\n"
        "checks = (cli._check_toeplitz_minors, cli._check_transfer_bound)\n"
        "misses = [[check.cache_info().misses for check in checks]]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['classify', '--n', '5'])\n"
        "    misses.append([check.cache_info().misses for check in checks])\n"
        "    for bound in ('3', '4', '5'):\n"
        "        cli.main(['verify', '--n-max-full', '3', '--n-max-subspace', bound])\n"
        "print(misses + [[check.cache_info().misses for check in checks]])\n"
    )
    path = os.pathsep.join(filter(None, (PACKAGE_ROOT, os.environ.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=path))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[[0, 0], [0, 0], [1, 1]]"


def test_verify_reports_a_non_finite_block_as_an_error(monkeypatch):
    build = cli.build_single_excitation_blocks

    def broken(n, strength, epsilon):
        blocks = build(n, strength, epsilon).copy()
        blocks[n == 7, 0, 1] = blocks[n == 7, 1, 0] = math.nan
        return blocks

    monkeypatch.setattr(cli, "build_single_excitation_blocks", broken)
    rc, out, err = _in_process(["verify", "--n-max-full", "3", "--n-max-subspace", "8"])
    assert (rc, out) == (1, "")
    assert err.startswith("error: ") and "non-finite" in err


def test_verify_fault_injection_fails_spectrum_check():
    result = run_cli(
        "verify",
        "--n-max-full",
        "4",
        "--n-max-subspace",
        "12",
        "--inject-fault",
    )
    assert result.returncode == 1
    payload = parse(result)["payload"]
    assert payload["all_ok"] is False
    by_name = {check["name"]: check for check in payload["checks"]}
    assert by_name["spectrum_agreement"]["ok"] is False
    assert by_name["subspace_restriction"]["ok"] is True
    assert "spectrum_agreement" in result.stderr


def test_verify_restriction_reaches_past_the_full_space_cap():
    rc, out, err = _in_process(["verify", "--n-max-full", "20", "--n-max-subspace", "8"])
    assert rc == 0, err
    check = json.loads(out)["payload"]["checks"][0]
    assert (check["ok"], check["detail"]) == (True, "n=3..20, both couplings")


def test_verify_restriction_names_the_last_failing_ring(monkeypatch):
    rows_of = spinring.hamiltonian._hamiltonian_rows

    def perturbed(n, strength, epsilon, states):
        # The site 3 -> site 4 entry of the Heisenberg rings n = 5 and 7, up by 1e-9 n.
        rows, columns, values = rows_of(n, strength, epsilon, states)
        n, epsilon = n[rows], epsilon[rows]
        hit = ((epsilon == 1.0) & np.isin(n, (5, 7)) & (states[rows] == 1 << (n - 3))
               & (columns == 1 << (n - 4)))
        return rows, columns, values + np.where(hit, 1e-9 * n, 0.0)

    monkeypatch.setattr(spinring.hamiltonian, "_hamiltonian_rows", perturbed)
    rc, out, err = _in_process(["verify", "--n-max-full", "9", "--n-max-subspace", "8"])
    assert rc == 1
    check = json.loads(out)["payload"]["checks"][0]
    assert check["ok"] is False
    assert check["worst"] == 7.000000135093387e-09
    assert check["detail"] == ("n=7 heisenberg: restriction deviates by 7.000e-09 > 1.0e-12 "
                               "(block entry at sites (3, 4))")
    assert err == "error: verification failed: subspace_restriction\n"


@pytest.mark.parametrize("run", ["default", "inject_fault", "perturbed_block"])
def test_every_verify_check_passes_exactly_when_its_worst_is_within_its_tolerance(monkeypatch,
                                                                                   run):
    argv = ["verify"] + ["--inject-fault"] * (run == "inject_fault")
    if run == "perturbed_block":
        build = spinring.hamiltonian.build_single_excitation_blocks

        def perturbed(n, strength, epsilon):
            blocks = build(n, strength, epsilon).copy()
            hit = (n == 7) & (epsilon == Coupling.HEISENBERG.epsilon)
            blocks[hit, 2, 3] = blocks[hit, 3, 2] = blocks[hit, 2, 3] + 1e-6
            return blocks

        monkeypatch.setattr(spinring.hamiltonian, "build_single_excitation_blocks", perturbed)
        monkeypatch.setattr(cli, "build_single_excitation_blocks", perturbed)
    rc, out, err = _in_process(argv)
    checks = {check["name"]: check for check in json.loads(out)["payload"]["checks"]}
    for check in checks.values():
        assert check["ok"] is (check["worst"] <= check["tolerance"]), check
    assert checks["subspace_restriction"]["tolerance"] == spinring.hamiltonian.RESTRICTION_TOL
    failed = [name for name, check in checks.items() if not check["ok"]]
    expected = {"default": [], "inject_fault": ["spectrum_agreement"],
                "perturbed_block": ["subspace_restriction", "coupling_invariance"]}
    assert failed == expected[run]
    assert rc == (1 if failed else 0), err


def test_verify_builds_all_restriction_rows_in_one_call(monkeypatch):
    calls = []
    rows_of = spinring.hamiltonian._hamiltonian_rows

    def counted(*args):
        calls.append(args)
        return rows_of(*args)

    monkeypatch.setattr(spinring.hamiltonian, "_hamiltonian_rows", counted)
    rc, _, err = _in_process(["verify", "--n-max-full", "9", "--n-max-subspace", "8"])
    assert rc == 0, err
    assert len(calls) == 1


@pytest.mark.parametrize("bounds", [(9, 8), (13, 8), (9, 24), None])
def test_verify_builds_each_block_once(monkeypatch, bounds):
    # The restriction check reads the blocks that are decomposed: one build
    # call holds one block per ring up to the larger bound, each ring once,
    # 14 rings at (9, 8) and 124 at the defaults (10, 64).
    calls = []
    build = spinring.hamiltonian.build_single_excitation_blocks

    def counted(n, strength, epsilon):
        calls.append((n, strength, epsilon))
        return build(n, strength, epsilon)

    monkeypatch.setattr(spinring.hamiltonian, "build_single_excitation_blocks", counted)
    monkeypatch.setattr(cli, "build_single_excitation_blocks", counted)
    argv = ["verify"]
    if bounds is not None:
        argv += ["--n-max-full", str(bounds[0]), "--n-max-subspace", str(bounds[1])]
    rc, _, err = _in_process(argv)
    assert rc == 0, err
    assert len(calls) == 1
    n, strength, epsilon = calls[0]
    n_max = max(bounds or (10, 64))
    assert len(n) == len(strength) == len(epsilon) == 2 * (n_max - 2)
    assert sorted(zip(n.tolist(), epsilon.tolist())) == [
        (size, coupling.epsilon) for size in range(3, n_max + 1)
        for coupling in (Coupling.XX, Coupling.HEISENBERG)]
    assert np.all(strength == 1.0)


def _refuse_to_build(monkeypatch):
    def refused(n, strength, epsilon):
        raise AssertionError(f"built blocks up to n={max(n)}")

    monkeypatch.setattr(spinring.hamiltonian, "build_single_excitation_blocks", refused)
    monkeypatch.setattr(cli, "build_single_excitation_blocks", refused)


def test_verify_refuses_a_full_bound_past_the_row_cap_before_building(monkeypatch):
    _refuse_to_build(monkeypatch)
    rc, out, err = _in_process(["verify", "--n-max-full", "1000", "--n-max-subspace", "3"])
    assert (rc, out, err) == (2, "", "error: basis states need n <= 62, got n=1000\n")


def test_verify_refuses_a_subspace_bound_past_the_block_budget_before_building(monkeypatch):
    # The stack holds 2 (N - 2) blocks of N x N float64; the cap is the largest N within 1 GiB.
    cap = cli.VERIFY_SUBSPACE_CAP
    assert 2 * (cap - 2) * cap * cap * 8 <= 2**30 < 2 * (cap - 1) * (cap + 1) ** 2 * 8
    _refuse_to_build(monkeypatch)
    for argv in (["--n-max-subspace", str(cap + 1)],
                 ["--n-max-full", "62", "--n-max-subspace", "100000"]):
        rc, out, err = _in_process(["verify", *argv])
        assert (rc, out) == (2, ""), argv
        assert err == (f"error: verify's blocks fit 1 GiB for --n-max-subspace <= {cap}, "
                       f"got {argv[-1]}\n")
    # The cap itself reaches the build, which is refused here before it allocates.
    with pytest.raises(AssertionError, match=f"built blocks up to n={cap}$"):
        _in_process(["verify", "--n-max-subspace", str(cap)])


@pytest.mark.parametrize("bounds", [("9", "8"), ("3", "3"), ("3", "4")])
@pytest.mark.parametrize("inject_fault", [False, True])
def test_verify_builds_one_closed_form_table_and_one_overlap_pass(monkeypatch, fixed_checks,
                                                                   bounds, inject_fault):
    calls = {"circulant_eigenspaces": 0, "_site_one_totals": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(cli, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(cli, name, counted)
    argv = ["verify", "--n-max-full", bounds[0], "--n-max-subspace", bounds[1]]
    argv += ["--inject-fault"] * inject_fault
    # The first verify of a process, which also computes the fixed checks, included.
    fixed_checks()
    for _ in range(2):
        calls.update(dict.fromkeys(calls, 0))
        rc, _, err = _in_process(argv)
        assert rc == (1 if inject_fault else 0), err
        assert calls == {"circulant_eigenspaces": 1, "_site_one_totals": 1}


def _per_block_worst(n_max_full, n_max_subspace, inject_fault):
    """verify's worst of each check but the Toeplitz one, one block and one ring at a time."""
    restriction = max(verify_subspace_restriction(RingSpec(n, c)) for n in range(3, n_max_full + 1)
                      for c in (Coupling.XX, Coupling.HEISENBERG))
    strength = 1.0 + 1e-6 if inject_fault else 1.0
    agreement = coupling = 0.0
    for n in range(3, n_max_subspace + 1):
        xx, heisenberg = (numerical_spectrum(build_single_excitation_hamiltonian(RingSpec(n, c)))
                          for c in (Coupling.XX, Coupling.HEISENBERG))
        eigenvalues, multiplicities, _ = circulant_eigenspaces([n], [strength], [0.0])
        gap = np.repeat(eigenvalues, multiplicities) - np.repeat(xx.eigenvalues, xx.multiplicities)
        agreement = max(agreement, float(np.abs(gap).max()))
        sites = np.arange(2, n // 2 + 2)
        gap = p_max(xx, 1, sites) - p_max(heisenberg, 1, sites)
        coupling = max(coupling, float(np.abs(gap).max()))
    transfer = -math.inf
    for n in (3, 4, 5, 7, 8):
        totals = projector_overlaps(circulant_spectrum(RingSpec(n)), 1, np.arange(2, n // 2 + 2))
        for m, total in enumerate(totals.sum(axis=0).tolist(), start=1):
            transfer = max(transfer, total * total - p_max_closed_form(n, m))
    return {"subspace_restriction": restriction, "spectrum_agreement": agreement,
            "coupling_invariance": coupling, "transfer_bound": transfer}


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads():
    """The benchmark's workloads module.

    The module is executed from its source text, not imported, so no bytecode
    is written next to it.
    """
    module = types.ModuleType("workloads")
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
    return module


def _oracle_pairs():
    """The distinct (--n-max-full, --n-max-subspace) pairs of the benchmark's oracle workload."""
    return list(dict.fromkeys(_workloads().ORACLE))


def _workload_requests(*names):
    """The distinct seed-1 requests of the named benchmark workloads, in workload order."""
    module = _workloads()
    requests = [request for name in names for request in module.make_requests(name, 1)]
    return list(map(list, dict.fromkeys(map(tuple, requests))))


# The first four keep their ids from when --n-max-full was always 3.
@pytest.mark.parametrize("inject_fault", [False, True])
@pytest.mark.parametrize("bounds", [pytest.param((3, sub), id=str(sub)) for sub in (3, 8, 16, 24)]
                         + [pytest.param(pair, id="-".join(map(str, pair)))
                            for pair in _oracle_pairs()])
def test_verify_flat_checks_match_a_per_block_reference(monkeypatch, bounds, inject_fault):
    n_max_full, n_max_subspace = bounds
    expected = _per_block_worst(n_max_full, n_max_subspace, inject_fault)
    sizes = []
    eigh = np.linalg.eigh

    def counted(stack):
        sizes.append(stack.shape[-1])
        return eigh(stack)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    argv = ["verify", "--n-max-full", str(n_max_full), "--n-max-subspace", str(n_max_subspace)]
    rc, out, err = _in_process(argv + ["--inject-fault"] * inject_fault)
    assert rc == (1 if inject_fault else 0), err
    checks = {check["name"]: check for check in json.loads(out)["payload"]["checks"]}
    assert {name: checks[name]["worst"] for name in expected} == expected
    assert checks["subspace_restriction"]["detail"] == f"n=3..{n_max_full}, both couplings"
    assert checks["spectrum_agreement"]["ok"] is not inject_fault
    assert sorted(sizes) == list(range(3, n_max_subspace + 1))


def test_verify_rejects_bounds_below_3():
    for flag in ("--n-max-subspace", "--n-max-full"):
        for value in ("2", "-5"):
            rc, out, err = _in_process(["verify", flag, value])
            assert (rc, out) == (2, ""), (flag, value)
            assert err == f"error: {flag} must be at least 3, got {value}\n"


def test_embed_round_trip_failure_exits_1(monkeypatch):
    # A realization whose distances miss the input by more than the tolerance
    # is a FactorizationFailure: one error line, no document, exit 1.
    monkeypatch.setattr(embedding, "DEFAULT_REALIZE_TOL", -1.0)
    for space in ("spherical", "euclidean", "hyperbolic"):
        rc, out, err = _in_process(["embed", "--n", "5", "--space", space])
        assert (rc, out) == (1, ""), space
        assert err.startswith(f"error: {space} round-trip distortion "), err
        assert err.endswith(" exceeds tol -1.0e+00\n") and err.count("\n") == 1, err


def test_verify_coupling_invariance_catches_a_perturbed_heisenberg_block(monkeypatch):
    build = cli.build_single_excitation_blocks

    def perturbed(n, strength, epsilon):
        blocks = build(n, strength, epsilon).copy()
        hit = epsilon == Coupling.HEISENBERG.epsilon
        blocks[hit, 0, 1] = blocks[hit, 1, 0] = blocks[hit, 0, 1] * (1.0 + 1e-6)
        return blocks

    monkeypatch.setattr(cli, "build_single_excitation_blocks", perturbed)
    docs, _ = _emitted(monkeypatch, ["verify", "--n-max-full", "3", "--n-max-subspace", "8"])
    by_name = {check["name"]: check for check in docs[0]["payload"]["checks"]}
    assert by_name["coupling_invariance"]["ok"] is False
    assert by_name["coupling_invariance"]["worst"] > 1e-10
    assert by_name["spectrum_agreement"]["ok"] is True
    assert by_name["subspace_restriction"]["ok"] is False  # it certifies the same blocks
    assert docs[0]["payload"]["all_ok"] is False


def test_verify_coupling_invariance_is_not_vacuous(monkeypatch):
    docs, _ = _emitted(monkeypatch, ["verify", "--n-max-full", "3", "--n-max-subspace", "16"])
    check = {c["name"]: c for c in docs[0]["payload"]["checks"]}["coupling_invariance"]
    assert check["ok"] is True
    assert 0.0 < check["worst"] <= 1e-12


def test_output_is_deterministic():
    for args in (
        ("distance", "--n", "9"),
        ("embed", "--n", "9", "--space", "spherical"),
        ("verify", "--n-max-full", "6", "--n-max-subspace", "12"),
    ):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.stdout != ""


def _seedless(text):
    """The JSON text of a document without its params' seed."""
    doc = json.loads(text)
    del doc["params"]["seed"]
    return json.dumps(doc)


def test_echoed_flags_change_no_other_output():
    # --seed changes only params.seed: every distinct seed-1 request of the benchmark.
    for argv in _workload_requests("scan", "embed", "oracle"):
        rc, out, err = _in_process(argv)
        echoed = _in_process(argv + ["--seed", "7919"])
        assert echoed[::2] == (rc, err), argv
        if out.startswith("{"):
            assert json.loads(echoed[1])["params"]["seed"] == 7919
            assert _seedless(echoed[1]) == _seedless(out), argv
        else:
            assert echoed[1] == out, argv
    # The distance depends on neither the coupling nor its strength.
    echoes = ["--coupling", "heisenberg", "--strength", "2.5"]
    for argv in (["distance", "--n", "12"], ["distance", "--n", "12", "--quotient"]):
        default = _in_process(argv)
        echoed = _in_process(argv + echoes)
        assert default[0] == echoed[0] == 0 and default[2] == echoed[2] == ""
        doc, echoed_doc = json.loads(default[1]), json.loads(echoed[1])
        payload = echoed_doc["payload"]
        assert (payload["coupling"], payload["strength"]) == ("heisenberg", 2.5)
        for each in (doc, echoed_doc):
            del each["params"], each["payload"]["coupling"], each["payload"]["strength"]
        assert echoed_doc == doc
        csv_argv = argv + ["--format", "csv"]
        assert _in_process(csv_argv + echoes) == _in_process(csv_argv)


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "distance.json"
    result = run_cli("distance", "--n", "5", "--out", str(target))
    assert result.returncode == 0
    assert result.stdout == ""
    doc = json.loads(target.read_text())
    jsonschema.validate(doc, SCHEMA)
    assert doc["command"] == "distance"


@pytest.mark.parametrize("argv", [["distance", "--n", "5"],
                                  ["distance", "--n", "5", "--format", "csv"],
                                  ["variance-sweep", "--n-max", "10"]])
def test_unwritable_out_is_a_usage_error(tmp_path, argv):
    for path, code in ((tmp_path, errno.EISDIR), (tmp_path / "missing" / "out", errno.ENOENT)):
        rc, out, err = _in_process(argv + ["--out", str(path)])
        assert (rc, out) == (2, ""), path
        assert err == f"error: cannot write --out {path}: {os.strerror(code)}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["distance", "--n", "300"],
                                  ["distance", "--n", "300", "--format", "csv"],
                                  ["variance-sweep", "--n-max", "300"]])
def test_out_on_a_full_device_is_a_usage_error(argv):
    # The writes fail part way through the document, after the file opened.
    rc, out, err = _in_process(argv + ["--out", "/dev/full"])
    assert (rc, out) == (2, "")
    assert err == f"error: cannot write --out /dev/full: {os.strerror(errno.ENOSPC)}\n"


def test_out_file_holds_the_standard_output_bytes(tmp_path):
    target = tmp_path / "out"
    for argv in _workload_requests("scan", "embed", "oracle")[::9]:
        rc, out, err = _in_process(argv)
        assert _in_process(argv + ["--out", str(target)]) == (rc, "", err), argv
        assert target.read_bytes() == out.encode(), argv


class _ClosedPipe(io.TextIOBase):
    """A text sink whose reader has gone: every write fails."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


# A standard output whose reader closed early: one error line and exit 2.
BROKEN_PIPE = (2, "", f"error: cannot write standard output: {os.strerror(errno.EPIPE)}\n")


@pytest.mark.parametrize("argv", [["distance", "--n", "5"], ["distance", "--n", "5", "--format", "csv"],
                                  ["verify", "--n-max-full", "3", "--n-max-subspace", "3"]])
def test_a_failed_standard_output_write_is_a_usage_error(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(_ClosedPipe()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    assert (rc, "", err.getvalue()) == BROKEN_PIPE


@pytest.mark.parametrize("entry", [["-m", "spinring"],  # and the installed script's call
                                   ["-c", "import sys; from spinring.cli import main; sys.exit(main())"]],
                         ids=["module", "script"])
@pytest.mark.parametrize("argv", [["distance", "--n", "2000"], ["classify", "--n", "5"]])
def test_a_standard_output_closed_early_exits_2_with_one_error_line(entry, argv):
    # The reader closes before the first write, so a small document fails at
    # its flush rather than at the interpreter's exit, and a large one part way.
    path = os.pathsep.join(filter(None, (PACKAGE_ROOT, os.environ.get("PYTHONPATH"))))
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *entry, *argv],
                                stdout=write, stderr=subprocess.PIPE, text=True,
                                env=dict(os.environ, PYTHONPATH=path))
    finally:
        os.close(write)
    assert (result.returncode, "", result.stderr) == BROKEN_PIPE


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_standard_output_on_a_full_device_exits_2_with_one_error_line():
    path = os.pathsep.join(filter(None, (PACKAGE_ROOT, os.environ.get("PYTHONPATH"))))
    with open("/dev/full", "w") as full:
        result = subprocess.run([sys.executable, "-m", "spinring", "classify", "--n", "5"],
                                stdout=full, stderr=subprocess.PIPE, text=True,
                                env=dict(os.environ, PYTHONPATH=path))
    assert (result.returncode, result.stderr) == (
        2, f"error: cannot write standard output: {os.strerror(errno.ENOSPC)}\n")


class _Discard(io.TextIOBase):
    """A text sink that keeps nothing."""

    def write(self, text):
        return len(text)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_large_distance_document_streams_in_bounded_memory(fmt):
    # The n^2 entries (about 100 MB of JSON) go to the sink row by row, or a
    # site's CSV lines at a time: no list of the document's parts is held.
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_Discard()):
            assert cli.main(["distance", "--n", "2000", "--format", fmt]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def _in_process(argv, main=None):
    """(exit code, stdout, stderr) of ``cli.main(argv)``, or of ``main(argv)``, in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = (main or cli.main)(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def test_shared_parser_matches_a_fresh_parser(tmp_path):
    target = tmp_path / "distance.json"
    requests = (
        ["embed", "--n", "5"],  # argparse usage error: --space is missing
        ["distance", "--n", "5", "--format", "csv"],
        ["metric-check", "--n", "9", "--quotient"],  # handler error: odd quotient
        ["classify", "--n", "9"],
        ["embed", "--n", "5", "--space", "hyperbolic"],
        ["variance-sweep", "--n-max", "9", "--format", "json"],
        ["verify", "--n-max-full", "4", "--n-max-subspace", "5"],
        ["distance", "--n", "6", "--out", str(target)],
    )
    cli._build_parser.cache_clear()
    shared = [_in_process(argv) for argv in requests]
    shared_file = target.read_text()
    assert cli._build_parser.cache_info().misses == 1
    assert [rc for rc, _, _ in shared] == [2, 0, 2, 0, 0, 0, 0, 0]
    assert "the following arguments are required: --space" in shared[0][2]

    fresh = []
    for argv in requests:
        cli._build_parser.cache_clear()
        fresh.append(_in_process(argv))
    assert fresh == shared
    assert target.read_text() == shared_file


def test_parser_is_built_once_per_process_not_on_import():
    script = (
        "import contextlib, io, spinring, spinring.cli as cli\n"
        "misses = [cli._build_parser.cache_info().misses]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for n in ('5', '7', '9'):\n"
        "        cli.main(['classify', '--n', n])\n"
        "print(misses + [cli._build_parser.cache_info().misses])\n"
    )
    path = os.pathsep.join(filter(None, (PACKAGE_ROOT, os.environ.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=path))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[0, 1]"


def _reference_main(argv):
    """``cli.main`` with every request parsed by the top parser: the routing's oracle."""
    args = cli._build_parser().parse_args(argv)
    handler = getattr(cli, "cmd_" + args.command.replace("-", "_"))
    try:
        return handler(args)
    except errors.SpinRingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, errors.UsageError) else 1


# Requests the top parser refuses, or parses in a way a subcommand's own parse
# could get wrong: leftovers, "--", abbreviations, repeats and negative values.
USAGE_REQUESTS = [
    [], ["-h"], ["--help"], ["nonsense"], ["-x", "distance", "--n", "5"],
    ["distance"], ["distance", "--n", "x"], ["distance", "--n=5"],
    ["distance", "--n", "5", "--bogus"], ["distance", "--n", "5", "extra"],
    ["distance", "--", "--n", "5"], ["distance", "--n", "5", "--format", "xml"],
    ["variance-sweep", "--n-m", "9"],
    ["embed", "--n", "5", "--space", "hyperbolic", "--kappa", "-1"],
    ["classify", "--n", "9", "--n", "11"],
    ["verify", "--n-max-full", "4", "--n-max-subspace", "5", "--"],
]


@pytest.mark.parametrize("argv", USAGE_REQUESTS, ids=" ".join)
def test_routing_matches_the_top_parser_on_usage_requests(argv):
    assert _in_process(argv) == _in_process(argv, _reference_main)


def test_routing_matches_the_top_parser_on_every_workload_request():
    requests = _workload_requests("scan", "embed", "oracle")
    assert len(requests) > 200
    for argv in requests:
        assert _in_process(argv) == _in_process(argv, _reference_main), argv


def test_a_subcommand_request_is_parsed_once_by_its_own_parser(monkeypatch):
    parser = cli._build_parser()
    calls = []
    for name, command in [("top", parser), *parser.commands.items()]:
        parse = command.parse_known_args
        monkeypatch.setattr(command, "parse_known_args",
                            lambda *args, name=name, parse=parse: calls.append(name) or parse(*args))
    for argv in _workload_requests("scan", "embed", "oracle") + USAGE_REQUESTS[5:]:
        calls.clear()
        _in_process(argv)
        assert calls == [argv[0]], argv
    for argv in USAGE_REQUESTS[:5]:  # no subcommand first: the top parser takes it
        calls.clear()
        _in_process(argv)
        assert calls[0] == "top", argv


def test_records_match_json_dumps(monkeypatch):
    texts = []
    monkeypatch.setattr(cli, "_emit", lambda write, out_path: texts.append(_written(write)))
    kinds = ["identity", "separation", "triangle", "separation", "identity", "triangle",
             "café \"%d%s\" \\", "separation", "separation"]
    sites = [(1,), (2, 3), (4, 5, 6), (10**6, 10**6 + 1), (2**40,), (7, 10**9, 9), (10, 11),
             (12, 13), (14, 15)]
    magnitudes = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, 0.1 + 0.2, -0.0, 0.0]
    violations = cli._Records(("kind", "sites", "magnitude"), list(zip(kinds, sites, magnitudes)))
    docs = [
        {"payload": {"violations": violations}},
        {"violations": cli._Records(("kind", "sites", "magnitude"), [])},
        [violations, {"deep": [violations, cli._Records(("kind",), [("one",)])]}],
        {"pairs": cli._Records((), [[1, 4], [10**6, 10**6 + 3], [2**70, 2**71]])},
        {"pairs": cli._Records((), [])},
        {"rows": cli._Records(("n", "variance"), [(3, math.nan), (10**7, -0.0), (5, 1e-300)])},
    ]
    for doc in docs:
        cli._emit_json(doc, None)
    assert texts == [json.dumps(_plain(doc), indent=2) + "\n" for doc in docs]


def test_workload_record_lists_match_json_dumps(monkeypatch):
    # Every scan request with a record list and n <= 400, and one JSON sweep.
    requests = [argv for argv in _workload_requests("scan")
                if argv[0] in ("distance", "metric-check") and "--format" not in argv
                and int(argv[argv.index("--n") + 1]) <= 400]
    requests.append(["variance-sweep", "--n-max", "50", "--format", "json"])
    listed = 0
    for argv in requests:
        docs, texts = _emitted(monkeypatch, argv)
        assert texts == [json.dumps(_plain(docs[0]), indent=2) + "\n"], argv
        payload = _plain(docs[0]["payload"])
        listed += bool(payload.get("violations") or payload.get("zero_distance_pairs"))
    assert listed >= 10
