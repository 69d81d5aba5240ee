import math
import tracemalloc

import numpy as np
import pytest

from spinring import (
    DistanceMatrix,
    EmbeddingSpace,
    InvalidArgs,
    NotEmbeddable,
    RingKind,
    RingSpec,
    cayley_menger_minors,
    classify_ring,
    distance_matrix,
    embeddable_euclidean,
    embeddable_hyperbolic,
    embeddable_spherical,
    jacobi_eigh,
    kappa_max,
    numerical_spectrum,
    realize,
    ring_embedding_report,
    spherical_feasibility_threshold,
    toeplitz_eigenvalues,
    toeplitz_minor_closed_form,
    toeplitz_minor_recursion,
)
from spinring.hamiltonian import DenseSymmetricMatrix


def uniform_points(n, w):
    return DistanceMatrix.from_entries(w * (np.ones((n, n)) - np.eye(n)))


def bad_quadruple():
    entries = np.ones((4, 4)) - np.eye(4)
    entries[0, 1] = entries[1, 0] = 2.0
    entries[2, 3] = entries[3, 2] = 2.0
    return DistanceMatrix.from_entries(entries)


def test_kappa_max_values():
    assert kappa_max(2, math.pi) == pytest.approx(1.0, abs=1e-14)
    assert kappa_max(3, 1.0) == pytest.approx((2.0 * math.pi / 3.0) ** 2, abs=1e-12)
    # Large n: arccos(-1/(n-1)) tends to pi/2.
    assert kappa_max(10**6, 1.0) == pytest.approx((math.pi / 2.0) ** 2, rel=1e-4)


def test_kappa_max_validation():
    with pytest.raises(InvalidArgs):
        kappa_max(1, 1.0)
    with pytest.raises(InvalidArgs):
        kappa_max(3, 0.0)
    with pytest.raises(InvalidArgs):
        kappa_max(3, -1.0)


def test_toeplitz_minor_routes_agree():
    for c in (-0.9, -0.25, 0.0, 0.3, 0.5, 0.99):
        recursion = toeplitz_minor_recursion(12, c)
        for k in range(1, 13):
            matrix = np.full((k, k), c)
            np.fill_diagonal(matrix, 1.0)
            direct = float(np.linalg.det(matrix))
            closed = toeplitz_minor_closed_form(k, c)
            for candidate in (closed, recursion[k - 1]):
                assert abs(candidate - direct) <= max(1e-10 * abs(direct), 1e-14), (
                    k,
                    c,
                )


def test_toeplitz_minor_validation():
    with pytest.raises(InvalidArgs):
        toeplitz_minor_closed_form(0, 0.5)
    with pytest.raises(InvalidArgs):
        toeplitz_minor_recursion(2, 0.5)
    with pytest.raises(InvalidArgs):
        toeplitz_eigenvalues(1, 0.5)


def test_toeplitz_eigenvalues():
    simple, repeated, mult = toeplitz_eigenvalues(4, 0.5)
    assert simple == pytest.approx(2.5, abs=1e-14)
    assert repeated == pytest.approx(0.5, abs=1e-14)
    assert mult == 3
    matrix = np.full((4, 4), 0.5)
    np.fill_diagonal(matrix, 1.0)
    ones = np.ones(4)
    assert np.abs(matrix @ ones - simple * ones).max() <= 1e-12
    dec = numerical_spectrum(DenseSymmetricMatrix(4, matrix))
    assert np.allclose(dec.eigenvalues, [0.5, 2.5], atol=1e-9)
    assert list(dec.multiplicities) == [3, 1]


def uniform_cm_determinant(k, d):
    cm = np.zeros((k + 1, k + 1))
    cm[0, 1:] = 1.0
    cm[1:, 0] = 1.0
    cm[1:, 1:] = d * d * (np.ones((k, k)) - np.eye(k))
    return float(np.linalg.det(cm))


def test_cayley_menger_minors_match_direct_determinants():
    for d in (0.5, 1.0, 2.0):
        minors = cayley_menger_minors(d, 10)
        for k in range(2, 11):
            direct = uniform_cm_determinant(k, d)
            assert abs(minors[k - 2] - direct) <= 1e-10 * max(abs(direct), 1.0), (k, d)
            assert np.sign(minors[k - 2]) == (-1.0) ** k


def test_cayley_menger_minors_closed_values():
    d = 1.3
    d2 = d * d
    minors = cayley_menger_minors(d, 4)
    assert minors[0] == pytest.approx(2.0 * d2, rel=1e-12)
    assert minors[1] == pytest.approx(-3.0 * d2**2, rel=1e-12)
    assert minors[2] == pytest.approx(4.0 * d2**3, rel=1e-12)
    assert cayley_menger_minors(1.0, 3)[1] == pytest.approx(-3.0, rel=1e-12)


def test_cayley_menger_minors_validation():
    with pytest.raises(InvalidArgs):
        cayley_menger_minors(0.0, 5)
    with pytest.raises(InvalidArgs):
        cayley_menger_minors(1.0, 2)


def test_verdicts_validate_curvature_and_cap():
    d = uniform_points(3, 1.0)
    with pytest.raises(InvalidArgs):
        embeddable_spherical(d, -1.0)
    with pytest.raises(InvalidArgs):
        embeddable_hyperbolic(d, 1.0)
    beyond_cap = embeddable_spherical(d, (math.pi / 1.0) ** 2 * 1.5)
    assert beyond_cap.cap_ok is False
    assert not beyond_cap.embeddable
    assert embeddable_spherical(d, 1.0).cap_ok is True


def test_spherical_verdict_at_boundary():
    w = 1.0
    boundary = kappa_max(3, w)
    verdict = embeddable_spherical(uniform_points(3, w), boundary)
    assert verdict.embeddable
    assert verdict.rank == 2
    above = embeddable_spherical(uniform_points(3, w), 1.01 * boundary)
    assert not above.embeddable
    assert not above.psd_ok


def test_spherical_eigenvalues_match_jacobi_oracle():
    for n in range(5, 31):
        d = distance_matrix(RingSpec(n), quotient=n % 2 == 0)
        kappa = kappa_max(d.n_effective, float(d.offdiagonal().mean()))
        gram = np.cos(math.sqrt(kappa) * d.entries)
        np.fill_diagonal(gram, 1.0)
        w = embeddable_spherical(d, kappa).eigenvalues
        reference, _ = jacobi_eigh(gram)
        scale = max(1.0, float(np.abs(reference).max()))
        assert np.abs(w - reference).max() <= 1e-10 * scale, n


def test_spherical_verdict_validation():
    with pytest.raises(InvalidArgs):
        embeddable_spherical(uniform_points(3, 1.0), 0.0)


def test_spherical_small_curvature_matches_euclidean_verdict():
    for d in (uniform_points(4, 1.0), bad_quadruple()):
        euclidean = embeddable_euclidean(d).embeddable
        for kappa in (1e-4, 1e-6):
            assert embeddable_spherical(d, kappa).embeddable == euclidean


def test_hyperbolic_uniform_always_embeddable():
    d = uniform_points(5, 1.0)
    for kappa in (-1.0, -10.0):
        verdict = embeddable_hyperbolic(d, kappa)
        assert verdict.embeddable
        assert verdict.margin > 0.0
        # Exactly one positive eigenvalue; the other four are equal and negative.
        assert np.count_nonzero(verdict.eigenvalues > 0.0) == 1
        assert np.ptp(verdict.eigenvalues[:4]) <= 1e-12 * verdict.eigenvalues[-1]
    two = DistanceMatrix.from_entries(np.array([[0.0, 3.0], [3.0, 0.0]]))
    assert embeddable_hyperbolic(two, -0.5).embeddable


def test_euclidean_verdicts():
    assert embeddable_euclidean(uniform_points(4, 1.0)).embeddable
    triangle = DistanceMatrix.from_entries(
        np.array([[0.0, 3.0, 4.0], [3.0, 0.0, 5.0], [4.0, 5.0, 0.0]])
    )
    verdict = embeddable_euclidean(triangle)
    assert verdict.embeddable
    # The centred Gram matrix has trace sum_{i<j} d^2 / n and rank 2 (a plane).
    assert verdict.eigenvalues.sum() == pytest.approx(50.0 / 3.0, rel=1e-12)
    assert np.count_nonzero(verdict.eigenvalues > 1e-9 * verdict.eigenvalues[-1]) == 2
    collinear = DistanceMatrix.from_entries(
        np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    )
    verdict = embeddable_euclidean(collinear)
    assert verdict.embeddable
    assert abs(verdict.margin) <= 1e-12
    assert np.count_nonzero(verdict.eigenvalues > 1e-9 * verdict.eigenvalues[-1]) == 1


def test_euclidean_rejects_bad_quadruple():
    verdict = embeddable_euclidean(bad_quadruple())
    assert not verdict.embeddable
    # Both far pairs would need the same midpoint: eigenvalues -1, 0, 2, 2.
    assert np.allclose(verdict.eigenvalues, [-1.0, 0.0, 2.0, 2.0], atol=1e-12)
    assert verdict.margin == pytest.approx(-0.5, rel=1e-12)


def ring(n):
    return distance_matrix(RingSpec(n), quotient=n % 2 == 0)


def auto_kappa(d, n):
    """The curvature ``embed --kappa auto`` picks for a ring in the sphere."""
    mean = kappa_max(d.n_effective, float(d.offdiagonal().mean()))
    threshold = spherical_feasibility_threshold(d).kappa
    return mean if classify_ring(n, d).uniform or threshold == 0.0 else threshold


def test_ring_spectra_match_dense_oracle():
    for n in range(3, 301):
        d = ring(n)
        dense = DistanceMatrix.from_entries(d.entries)
        kappa = kappa_max(d.n_effective, float(d.offdiagonal().mean()))
        pairs = (
            (embeddable_euclidean(d), embeddable_euclidean(dense)),
            (embeddable_hyperbolic(d, -1.0), embeddable_hyperbolic(dense, -1.0)),
            (embeddable_spherical(d, kappa), embeddable_spherical(dense, kappa)),
        )
        for fast, oracle in pairs:
            scale = np.abs(oracle.eigenvalues).max()
            assert np.abs(fast.eigenvalues - oracle.eigenvalues).max() <= 1e-13 * scale, n


def test_ring_verdicts_agree_with_realize():
    # The Hartley realization of every ring, against LAPACK on the same
    # entries without the circulant profile for n <= 150.
    for n in range(3, 301):
        d = ring(n)
        dense = DistanceMatrix.from_entries(d.entries) if n <= 150 else None
        kappa = auto_kappa(d, n)
        cases = (
            (EmbeddingSpace.SPHERICAL, kappa, embeddable_spherical(d, kappa)),
            (EmbeddingSpace.EUCLIDEAN, 0.0, embeddable_euclidean(d)),
            (EmbeddingSpace.HYPERBOLIC, -1.0, embeddable_hyperbolic(d, -1.0)),
        )
        for space, curvature, verdict in cases:
            if not verdict.embeddable:
                with pytest.raises(NotEmbeddable):
                    realize(d, space, curvature)
                continue
            result = realize(d, space, curvature)
            assert result.max_distortion <= 1e-8, (n, space)
            if dense is not None:
                oracle = realize(dense, space, curvature)
                assert oracle.max_distortion <= 1e-8, (n, space)
                assert oracle.ambient_dim == result.ambient_dim, (n, space)
                assert oracle.irreducible == result.irreducible, (n, space)


def test_realize_ring_memory_is_quadratic():
    # A Euclidean realization holds a few N x N arrays at a time, not N x N x dim.
    d = distance_matrix(RingSpec(201))
    n = d.n_effective
    tracemalloc.start()
    try:
        realize(d, EmbeddingSpace.EUCLIDEAN)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * n * n * 8, peak


def test_ring_spherical_small_curvature_matches_euclidean_verdict():
    for n in range(3, 41):
        d = ring(n)
        euclidean = embeddable_euclidean(d)
        cap = spherical_feasibility_threshold(d).cap
        for share in (1e-4, 1e-8, 1e-12):
            assert embeddable_spherical(d, share * cap).embeddable == euclidean.embeddable
        # The non-constant modes tend to kappa times the Euclidean spectrum.
        if not euclidean.embeddable:
            margin = embeddable_spherical(d, 1e-8 * cap).margin
            assert margin == pytest.approx(euclidean.margin, rel=1e-5), n


def test_realize_spherical_ring5():
    d = distance_matrix(RingSpec(5))
    w = d.entries[0, 1]
    result = realize(d, EmbeddingSpace.SPHERICAL, kappa_max(5, w))
    assert result.ambient_dim == 4
    assert result.max_distortion < 1e-8
    assert result.irreducible
    radius = 1.0 / math.sqrt(result.curvature)
    norms = np.linalg.norm(result.coordinates, axis=1)
    assert np.abs(norms - radius).max() <= 1e-10


def test_realize_spherical_below_boundary_full_rank():
    d = distance_matrix(RingSpec(5))
    w = d.entries[0, 1]
    result = realize(d, EmbeddingSpace.SPHERICAL, 0.5 * kappa_max(5, w))
    assert result.ambient_dim == 5
    assert not result.irreducible
    assert result.max_distortion < 1e-8


def test_realize_spherical_quotient_matches_half_ring():
    d10 = distance_matrix(RingSpec(10), quotient=True)
    d5 = distance_matrix(RingSpec(5))
    assert np.abs(d10.entries - d5.entries).max() <= 1e-12
    w = d10.entries[0, 1]
    result = realize(d10, EmbeddingSpace.SPHERICAL, kappa_max(5, w))
    assert result.ambient_dim == 4
    assert result.max_distortion < 1e-8


def test_realize_euclidean_rings():
    result = realize(distance_matrix(RingSpec(7)), EmbeddingSpace.EUCLIDEAN)
    assert result.ambient_dim == 6
    assert result.max_distortion < 1e-8
    assert result.curvature == 0.0
    triangle = realize(
        distance_matrix(RingSpec(6), quotient=True), EmbeddingSpace.EUCLIDEAN
    )
    assert triangle.ambient_dim == 2
    assert triangle.max_distortion < 1e-8


def test_realize_hyperbolic_hyperboloid_invariants():
    d = distance_matrix(RingSpec(5))
    for kappa in (-1.0, -10.0):
        result = realize(d, EmbeddingSpace.HYPERBOLIC, kappa)
        assert result.max_distortion < 1e-8
        coords = result.coordinates
        assert np.all(coords[:, 0] > 0.0)
        mink = coords[:, 1:] @ coords[:, 1:].T - np.outer(coords[:, 0], coords[:, 0])
        assert np.abs(np.diag(mink) - (1.0 / kappa)).max() <= 1e-10
        assert result.ambient_dim == coords.shape[1]


def test_realize_rejects_infeasible_inputs():
    d = uniform_points(3, 1.0)
    with pytest.raises(NotEmbeddable):
        realize(d, EmbeddingSpace.SPHERICAL, 1.01 * kappa_max(3, 1.0))
    with pytest.raises(NotEmbeddable):
        realize(bad_quadruple(), EmbeddingSpace.EUCLIDEAN)
    with pytest.raises(InvalidArgs):
        realize(d, "flat")


def test_feasibility_threshold_localizes_boundary():
    for n in (3, 5, 8):
        w = 1.0
        boundary = kappa_max(n, w)
        threshold = spherical_feasibility_threshold(uniform_points(n, w))
        assert abs(threshold.kappa - boundary) <= 1e-9 * boundary, n
        assert not threshold.feasible_at_cap
        assert threshold.monotone_ok
        rank = embeddable_spherical(uniform_points(n, w), threshold.kappa).rank
        assert rank == n - 1, n


def test_feasibility_threshold_two_points_hits_cap():
    two = DistanceMatrix.from_entries(np.array([[0.0, 2.0], [2.0, 0.0]]))
    threshold = spherical_feasibility_threshold(two)
    assert threshold.feasible_at_cap
    assert threshold.kappa == threshold.cap


def test_feasibility_threshold_window_and_empty_rings():
    # n = 16 embeds only for kappa in about [0.53, 0.56] * cap.
    threshold = spherical_feasibility_threshold(ring(16))
    assert threshold.kappa == pytest.approx(2.873273, rel=1e-6)
    assert threshold.kappa / threshold.cap == pytest.approx(0.5595, abs=1e-3)
    assert not threshold.monotone_ok
    assert embeddable_spherical(ring(16), threshold.kappa).embeddable
    assert not embeddable_spherical(ring(16), 0.5 * threshold.kappa).embeddable
    # The threshold is the root of the margin, not the tolerance edge.
    assert abs(embeddable_spherical(ring(16), threshold.kappa).margin) <= 1e-13
    # n = 0 (mod 8), n >= 24: no sphere at all.
    for n in (24, 32, 64):
        threshold = spherical_feasibility_threshold(ring(n))
        assert threshold.kappa == 0.0, n
        assert threshold.monotone_ok, n


def test_ring_embedding_report_prime():
    report = ring_embedding_report(RingSpec(7))
    assert not report.quotiented
    assert report.n_points == 7
    assert report.classification.kind is RingKind.PRIME
    assert report.spherical_verdict.embeddable
    assert report.spherical_realization.ambient_dim == 6
    assert report.spherical_realization.irreducible
    assert report.euclidean_realization.ambient_dim == 6
    assert report.hyperbolic_realization is not None
    assert report.hyperbolic_kappa == -1.0
    boundary = kappa_max(7, report.weight_mean)
    assert abs(report.threshold.kappa - boundary) <= 1e-9 * boundary


def test_ring_embedding_report_twice_prime_quotient():
    report = ring_embedding_report(RingSpec(14))
    assert report.quotiented
    assert report.n_points == 7
    assert report.classification.kind is RingKind.TWICE_PRIME
    assert report.spherical_realization.ambient_dim == 6


def test_ring_embedding_report_composite():
    report = ring_embedding_report(RingSpec(9))
    assert report.classification.kind is RingKind.ODD_COMPOSITE
    assert not report.classification.uniform
    assert report.weight_min < report.weight_mean < report.weight_max
    # At n = 9 the mean-weight curvature bound is still feasible, and the
    # searched threshold sits at or above it.
    assert report.spherical_verdict.embeddable
    assert report.threshold.kappa >= report.kappa_max_mean_weight
    assert report.threshold.kappa <= report.threshold.cap
