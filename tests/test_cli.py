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
    enums as their values and numpy scalars as Python numbers."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, cli._Circulant):
        sites = np.arange(len(value.row))
        return value.row[(sites[None, :] - sites[:, None]) % len(sites)].tolist()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, np.generic):
        return value.item()
    return value


def _emitted(monkeypatch, argv):
    """Run one command in process; return (documents passed to _emit_json, emitted texts).

    Each text joins the parts passed to one `_emit` call.
    """
    docs, texts = [], []
    emit_json = cli._emit_json

    def record(doc, out_path):
        docs.append(doc)
        emit_json(doc, out_path)

    monkeypatch.setattr(cli, "_emit_json", record)
    monkeypatch.setattr(cli, "_emit", lambda parts, out_path: texts.append("".join(parts)))
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
    monkeypatch.setattr(cli, "_emit", lambda parts, out_path: texts.append("".join(parts)))
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
    monkeypatch.setattr(cli, "_emit", lambda parts, out_path: texts.append("".join(parts)))
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
    monkeypatch.setattr(cli, "_emit", lambda parts, out_path: texts.append("".join(parts)))
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
    monkeypatch.setattr(cli, "_emit", lambda parts, out_path: texts.append("".join(parts)))
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
    monkeypatch.setattr(cli, "_emit", lambda parts, out_path: texts.append("".join(parts)))
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
                    parts, dense_parts = [], []
                    cli._json_parts(cli._Circulant(row), indent, parts)
                    cli._json_parts(dense, indent, dense_parts)
                    assert "".join(parts) == "".join(dense_parts), (n, quotient)


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
    monkeypatch.setattr(cli, "_emit", lambda parts, out_path: texts.append("".join(parts)))
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


def test_verify_transfer_bound_catches_a_low_closed_form(monkeypatch):
    closed_form = cli.p_max_closed_form
    monkeypatch.setattr(cli, "p_max_closed_form", lambda n, m: 0.999 * closed_form(n, m))
    rc, out, err = _in_process(["verify", "--n-max-full", "4", "--n-max-subspace", "8"])
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


def test_verify_reports_a_non_finite_block_as_an_error(monkeypatch):
    build = cli.build_single_excitation_hamiltonian

    def broken(spec):
        entries = build(spec).copy()
        if spec.n == 7:
            entries[0, 1] = entries[1, 0] = math.nan
        return entries

    monkeypatch.setattr(cli, "build_single_excitation_hamiltonian", broken)
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
        build = spinring.hamiltonian.build_single_excitation_hamiltonian

        def perturbed(spec):
            block = build(spec)
            if spec.coupling is not Coupling.HEISENBERG or spec.n != 7:
                return block
            entries = block.copy()
            entries[2, 3] = entries[3, 2] = entries[2, 3] + 1e-6
            return entries

        monkeypatch.setattr(spinring.hamiltonian, "build_single_excitation_hamiltonian", perturbed)
        monkeypatch.setattr(cli, "build_single_excitation_hamiltonian", perturbed)
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
    # The restriction check reads the blocks that are decomposed: one build per
    # ring up to the larger bound, 14 at (9, 8) and 124 at the defaults (10, 64).
    calls = []
    build = spinring.hamiltonian.build_single_excitation_hamiltonian

    def counted(spec):
        calls.append(spec)
        return build(spec)

    monkeypatch.setattr(spinring.hamiltonian, "build_single_excitation_hamiltonian", counted)
    monkeypatch.setattr(cli, "build_single_excitation_hamiltonian", counted)
    argv = ["verify"]
    if bounds is not None:
        argv += ["--n-max-full", str(bounds[0]), "--n-max-subspace", str(bounds[1])]
    rc, _, err = _in_process(argv)
    assert rc == 0, err
    assert len(calls) == 2 * (max(bounds or (10, 64)) - 2)
    assert len(set(calls)) == len(calls)


def test_verify_refuses_a_full_bound_past_the_row_cap_before_building(monkeypatch):
    def refused(spec):
        raise AssertionError(f"built a block for n={spec.n}")

    monkeypatch.setattr(spinring.hamiltonian, "build_single_excitation_hamiltonian", refused)
    monkeypatch.setattr(cli, "build_single_excitation_hamiltonian", refused)
    rc, out, err = _in_process(["verify", "--n-max-full", "1000", "--n-max-subspace", "3"])
    assert (rc, out, err) == (2, "", "error: basis states need n <= 62, got n=1000\n")


@pytest.mark.parametrize("bounds", [("9", "8"), ("3", "3"), ("3", "4")])
@pytest.mark.parametrize("inject_fault", [False, True])
def test_verify_builds_one_closed_form_table_and_one_overlap_pass(monkeypatch, bounds,
                                                                   inject_fault):
    calls = {"circulant_eigenspaces": 0, "_site_one_totals": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(cli, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(cli, name, counted)
    argv = ["verify", "--n-max-full", bounds[0], "--n-max-subspace", bounds[1]]
    rc, _, err = _in_process(argv + ["--inject-fault"] * inject_fault)
    assert rc == (1 if inject_fault else 0), err
    assert calls == {"circulant_eigenspaces": 1, "_site_one_totals": 1}


def _per_block_worst(n_max_subspace, inject_fault):
    """verify's spectrum, coupling and transfer worsts, one block and one ring at a time."""
    strength = 1.0 + 1e-6 if inject_fault else 1.0
    agreement = coupling = 0.0
    for n in range(3, n_max_subspace + 1):
        xx, heisenberg = (numerical_spectrum(build_single_excitation_hamiltonian(RingSpec(n, c)))
                          for c in (Coupling.XX, Coupling.HEISENBERG))
        eigenvalues, multiplicities, _ = circulant_eigenspaces([RingSpec(n, strength=strength)])
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
    return {"spectrum_agreement": agreement, "coupling_invariance": coupling,
            "transfer_bound": transfer}


@pytest.mark.parametrize("inject_fault", [False, True])
@pytest.mark.parametrize("n_max_subspace", [3, 8, 16, 24])
def test_verify_flat_checks_match_a_per_block_reference(monkeypatch, n_max_subspace, inject_fault):
    expected = _per_block_worst(n_max_subspace, inject_fault)
    sizes = []
    eigh = np.linalg.eigh

    def counted(stack):
        sizes.append(stack.shape[-1])
        return eigh(stack)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    argv = ["verify", "--n-max-full", "3", "--n-max-subspace", str(n_max_subspace)]
    rc, out, err = _in_process(argv + ["--inject-fault"] * inject_fault)
    assert rc == (1 if inject_fault else 0), err
    checks = {check["name"]: check for check in json.loads(out)["payload"]["checks"]}
    assert {name: checks[name]["worst"] for name in expected} == expected
    assert checks["spectrum_agreement"]["ok"] is not inject_fault
    assert sorted(sizes) == list(range(3, n_max_subspace + 1))


def test_verify_rejects_bounds_below_3():
    for flag in ("--n-max-subspace", "--n-max-full"):
        for value in ("2", "-5"):
            result = run_cli("verify", flag, value)
            assert result.returncode == 2, (flag, value)
            assert result.stdout == ""
            assert flag in result.stderr


def test_verify_coupling_invariance_catches_a_perturbed_heisenberg_block(monkeypatch):
    build = cli.build_single_excitation_hamiltonian

    def perturbed(spec):
        block = build(spec)
        if spec.coupling is not Coupling.HEISENBERG:
            return block
        entries = block.copy()
        entries[0, 1] = entries[1, 0] = entries[0, 1] * (1.0 + 1e-6)
        return entries

    monkeypatch.setattr(cli, "build_single_excitation_hamiltonian", perturbed)
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


def _in_process(argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
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
