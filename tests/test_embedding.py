import itertools
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
    distance_matrix,
    embeddable_euclidean,
    embeddable_hyperbolic,
    embeddable_spherical,
    jacobi_eigh,
    kappa_max,
    merge_distinct_values,
    numerical_spectrum,
    realize,
    ring_embedding,
    spherical_feasibility_threshold,
    toeplitz_eigenvalues,
    toeplitz_minor_closed_form,
    toeplitz_minor_recursion,
)
from spinring import embedding
from spinring.spectral import hartley_rows


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
    dec = numerical_spectrum(matrix)
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


def test_infinite_curvature_is_rejected():
    # An infinite kappa of the right sign would give NaN eigenvalues on the
    # sphere and a verdict that cannot be realized on the hyperboloid.
    for d in (ring(5), uniform_points(3, 1.0)):
        for space, kappa, decide in (
            (EmbeddingSpace.SPHERICAL, math.inf, embeddable_spherical),
            (EmbeddingSpace.HYPERBOLIC, -math.inf, embeddable_hyperbolic),
        ):
            message = f"^curvature must be finite, got {kappa}$"
            with pytest.raises(InvalidArgs, match=message):
                decide(d, kappa)
            with pytest.raises(InvalidArgs, match=message):
                realize(d, space, kappa)
        # NaN and the wrong sign keep their messages.
        for decide, kappa, message in (
            (embeddable_spherical, math.nan, "spherical curvature must be positive, got nan"),
            (embeddable_spherical, -math.inf, "spherical curvature must be positive, got -inf"),
            (embeddable_hyperbolic, math.nan, "hyperbolic curvature must be negative, got nan"),
            (embeddable_hyperbolic, math.inf, "hyperbolic curvature must be negative, got inf"),
        ):
            with pytest.raises(InvalidArgs, match=f"^{message}$"):
                decide(d, kappa)


def test_non_finite_gram_is_rejected(monkeypatch):
    # cosh overflows on the 5-ring at kappa = -1e6, and -d^2 / 2 on huge
    # hand-built distances.  Neither reaches a verdict, and a dense Gram
    # matrix is refused before LAPACK.
    def lapack_reached(*args, **kwargs):
        raise AssertionError("a non-finite Gram matrix reached LAPACK")

    monkeypatch.setattr(np.linalg, "eigvalsh", lapack_reached)
    monkeypatch.setattr(np.linalg, "eigh", lapack_reached)
    message = "^hyperbolic Gram matrix is not finite at kappa=-1000000.0$"
    for d in (ring(5), DistanceMatrix.from_entries(ring(5).entries)):
        with pytest.raises(InvalidArgs, match=message):
            embeddable_hyperbolic(d, -1e6)
        with pytest.raises(InvalidArgs, match=message):
            realize(d, EmbeddingSpace.HYPERBOLIC, -1e6)
    with pytest.raises(InvalidArgs, match="^euclidean Gram matrix is not finite at kappa=0.0$"):
        embeddable_euclidean(uniform_points(4, 1e200))


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


def auto_kappa(d):
    """The curvature ``embed --kappa auto`` picks for a ring in the sphere.

    The mean weight averages the N - 1 profile values, as ``embed`` reports
    it; the mean over all pairs can differ in the last bit (n = 11).  A ring
    is uniform when ``classify_ring`` finds one distinct value in its profile.
    """
    mean = kappa_max(d.n_effective, float(d.profile[1:].mean()))
    threshold = spherical_feasibility_threshold(d).kappa
    uniform = len(merge_distinct_values(d.profile[1:])) == 1
    return mean if uniform or threshold == 0.0 else threshold


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


def fft_spectra(d, space, kappa, scales):
    """The FFT ring route, the class spectra's oracle: one eigenvalue per mode j = 0..N - 1.

    One real DFT of the kernel applied to the profile, with modes j and
    N - j averaged and mode 0 the sum of the kernel values (0 when centred).
    """
    model = embedding._MODELS[space]
    with np.errstate(over="ignore", invalid="ignore"):
        varying = model.varying(np.asarray(scales, dtype=float)[..., None] * d.profile)
        w = np.fft.fft(varying).real
        w[..., 1:] = 0.5 * (w[..., 1:] + w[..., :0:-1])
        w[..., 0] = 0.0 if model.center else (model.constant + varying).sum(axis=-1)
    return w


def rings_up_to(n_max):
    """Every ring metric n = 3..n_max, raw and (even n) quotiented."""
    for n in range(3, n_max + 1):
        for quotient in (False, True) if n % 2 == 0 else (False,):
            yield n, distance_matrix(RingSpec(n), quotient)


def test_class_spectra_match_fft_and_dense_oracles():
    # Each class value, listed for every mode of its class, against the FFT
    # route per mode and against LAPACK on the dense Gram matrices, at scales
    # 0.3, 1 and the sphere's cap pi / diameter.
    for n, d in rings_up_to(300):
        scales = np.array([0.3, 1.0, math.pi / d.diameter])
        sizes = d.ramanujan[0].astype(int)
        dense = DistanceMatrix.from_entries(d.entries)
        for space in EmbeddingSpace:
            w = embedding._spectra(d, space, 1.0, scales)
            fft = fft_spectra(d, space, 1.0, scales)
            scale = np.abs(fft).max(axis=-1, keepdims=True)
            assert (np.abs(w[:, d.mode_class] - fft) <= 1e-13 * scale).all(), (n, space)
            lapack = embedding._spectra(dense, space, 1.0, scales)
            listed = np.sort(np.repeat(w, sizes, axis=-1), axis=-1)
            scale = np.abs(lapack).max(axis=-1, keepdims=True)
            assert (np.abs(listed - lapack) <= 1e-13 * scale).all(), (n, space)


def test_ring_spectra_bit_equal_within_gcd_classes():
    # A ring spectrum holds one value per class gcd(j, N), so all modes of a
    # class, j and N - j among them, are bit-equal and get the same keep
    # decision in realize; the verdict lists each value once per mode.  Every
    # class-indexed field shares one order, the divisors largest first.
    for n, d in rings_up_to(64):
        sizes = d.ramanujan[0].astype(int)
        gcd = [math.gcd(j, d.n_effective) for j in range(d.n_effective)]
        assert (np.diff(d.divisors) < 0).all(), n
        assert d.divisors[d.mode_class].tolist() == gcd, n
        assert np.array_equal(np.bincount(d.mode_class), sizes), n
        assert np.array_equal(d.profile[d.divisors % d.n_effective], d.by_class), n
        assert np.array_equal(d.sums.sum(axis=1), d.ramanujan.sum(axis=1)), n
        for space, kappa, decide in (
            (EmbeddingSpace.SPHERICAL, auto_kappa(d), embeddable_spherical),
            (EmbeddingSpace.EUCLIDEAN, 0.0, lambda d, kappa: embeddable_euclidean(d)),
            (EmbeddingSpace.HYPERBOLIC, -1.0, embeddable_hyperbolic),
        ):
            w = embedding._spectra(d, space, kappa, embedding._scale(space, kappa))
            assert w.shape == d.divisors.shape, (n, space)
            modes = w[d.mode_class]
            assert np.array_equal(modes[1:], modes[:0:-1]), (n, space)
            listed = -w if space is EmbeddingSpace.HYPERBOLIC else w
            eigenvalues = decide(d, kappa).eigenvalues
            assert np.array_equal(eigenvalues, np.sort(np.repeat(listed, sizes))), (n, space)


def test_ring_realization_reads_no_profile():
    # realize compares each class distance with its realized chord, so a
    # fresh ring that embeds is realized without its N-entry profile.
    for n in (7, 10, 45, 101):
        for space, kappa in ((EmbeddingSpace.EUCLIDEAN, 0.0), (EmbeddingSpace.HYPERBOLIC, -1.0)):
            d = ring(n)
            assert realize(d, space, kappa).max_distortion <= embedding.DEFAULT_REALIZE_TOL, (n, space)
            assert "profile" not in vars(d) and "entries" not in vars(d), (n, space)


def stacked_spectra(d, space, kappa, scales):
    """Dense spectra from one stacked LAPACK call on the Gram matrices at every scale at once."""
    model = embedding._MODELS[space]
    with np.errstate(over="ignore", invalid="ignore"):
        g = model.constant + model.varying(np.asarray(scales, dtype=float)[..., None, None] * d.entries)
        if model.center:
            g = g - g.mean(axis=-1, keepdims=True)
            g = g - g.mean(axis=-2, keepdims=True)
    return np.linalg.eigvalsh(embedding._finite(g, space, kappa))


def test_dense_spectra_one_gram_at_a_time_bit_equal_to_stacked(monkeypatch):
    # The dense route decomposes one Gram matrix per scale; its spectra and
    # the threshold search on them are bit-equal to the stacked route.
    dense = {n: DistanceMatrix.from_entries(distance_matrix(RingSpec(n)).entries) for n in range(3, 61)}
    for n, d in dense.items():
        scales = math.pi / d.diameter * np.arange(1, 17) / 16
        for space in EmbeddingSpace:
            for grid in (scales, scales[3], scales.reshape(4, 4)):
                w = embedding._spectra(d, space, 1.0, grid)
                assert np.array_equal(w, stacked_spectra(d, space, 1.0, grid)), (n, space)
    thresholds = [spherical_feasibility_threshold(d) for d in dense.values()]
    monkeypatch.setattr(embedding, "_spectra", stacked_spectra)
    assert thresholds == [spherical_feasibility_threshold(d) for d in dense.values()]


def test_dense_threshold_search_at_401_points_under_one_gib():
    # Stacked, the 256 Gram matrices of the first grid would need 329 MB for
    # each temporary; one at a time the search fits a 1 GiB address space.
    script = ("from spinring import DistanceMatrix, RingSpec, distance_matrix, spherical_feasibility_threshold\n"
              "d = DistanceMatrix.from_entries(distance_matrix(RingSpec(401)).entries)\n"
              "print(spherical_feasibility_threshold(d).kappa)\n")
    root = str(Path(embedding.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1"),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)))
    assert result.returncode == 0, result.stderr
    kappa = spherical_feasibility_threshold(ring(401)).kappa
    assert float(result.stdout) == pytest.approx(kappa, rel=1e-9)


def test_ramanujan_matrix_matches_cosine_sums():
    # Entry (a, b) sums cos(2 pi e_a s / N) over the separations s of class
    # e_b; the sums are integers, and the first row holds the class sizes.
    for n in range(1, 121):
        sep = np.arange(n)
        gcd = np.gcd(sep, n)
        classes = DistanceMatrix(profile=np.log1p(gcd % n))
        assert classes.divisors.tolist() == sorted({int(g) for g in gcd}, reverse=True), n
        assert np.array_equal(classes.values, np.unique(np.log1p(gcd % n))), n
        for a, e_a in enumerate(classes.divisors.tolist()):
            for b, e_b in enumerate(classes.divisors.tolist()):
                direct = math.fsum(math.cos(2.0 * math.pi * (e_a * s % n) / n)
                                   for s in sep[gcd == e_b].tolist())
                assert classes.ramanujan[a, b] == round(direct), (n, e_a, e_b)
                assert abs(direct - round(direct)) <= 1e-9 * n, (n, e_a, e_b)


def test_profile_not_constant_on_gcd_classes_takes_the_dense_route():
    # A circulant whose profile differs within a gcd class is no ring metric:
    # it is refused as a profile, and its entries decide and realize through
    # from_entries, on the dense route.
    realized = 0
    for profile in ([0.0, 1.0, 2.0, 2.0, 1.0], [0.0, 1.0, 1.1, 1.1, 1.0],
                    [0.0, 1.0, 1.5, 2.0, 2.0, 1.5, 1.0]):
        with pytest.raises(InvalidArgs, match="from_entries"):
            DistanceMatrix(profile=profile)
        sites = np.arange(len(profile))
        dense = DistanceMatrix.from_entries(np.array(profile)[(sites - sites[:, None]) % len(sites)])
        assert dense.divisors is None
        for space, kappa, decide in (
            (EmbeddingSpace.SPHERICAL, 1.0, embeddable_spherical),
            (EmbeddingSpace.EUCLIDEAN, 0.0, lambda d, kappa: embeddable_euclidean(d)),
            (EmbeddingSpace.HYPERBOLIC, -1.0, embeddable_hyperbolic),
        ):
            verdict = decide(dense, kappa)
            assert len(verdict.eigenvalues) == len(sites), (profile, space)
            if verdict.embeddable:
                result = realize(dense, space, kappa)
                assert result.ambient_dim == verdict.rank, (profile, space)
                assert result.max_distortion <= embedding.DEFAULT_REALIZE_TOL, (profile, space)
                realized += 1
            else:
                with pytest.raises(NotEmbeddable):
                    realize(dense, space, kappa)
    assert realized
    assert DistanceMatrix(profile=[0.0, 1.0, 2.0, 1.0]).divisors is not None


def test_zero_diameter_embeds_in_every_space():
    # One point, or two at distance 0: a zero diameter has no spherical cap.
    for d in (DistanceMatrix(profile=[0.0]), DistanceMatrix.from_entries([[0.0]]),
              DistanceMatrix.from_entries(np.zeros((2, 2)))):
        for space, kappa, decide in (
            (EmbeddingSpace.SPHERICAL, 2.0, embeddable_spherical),
            (EmbeddingSpace.EUCLIDEAN, 0.0, lambda d, kappa: embeddable_euclidean(d)),
            (EmbeddingSpace.HYPERBOLIC, -2.0, embeddable_hyperbolic),
        ):
            verdict = decide(d, kappa)
            assert verdict.embeddable and verdict.cap_ok, (d.entries, space)
            result = realize(d, space, kappa)
            assert result.max_distortion == 0.0, (d.entries, space)
            assert result.coordinates.shape == (d.n_effective, verdict.rank), (d.entries, space)
            if space is EmbeddingSpace.SPHERICAL:
                norms = np.linalg.norm(result.coordinates, axis=1)
                assert norms == pytest.approx(1.0 / math.sqrt(kappa), rel=1e-15), d.entries
        with pytest.raises(InvalidArgs, match="positive finite diameter"):
            spherical_feasibility_threshold(d)


def test_feasibility_threshold_refuses_an_infinite_diameter():
    # No curvature embeds it: the Gram matrix at every kappa > 0 is not finite.
    far = DistanceMatrix(profile=[0.0, math.inf, math.inf])
    with pytest.raises(InvalidArgs, match="not finite"):
        embeddable_spherical(far, 1.0)
    for d in (far, DistanceMatrix.from_entries(far.entries)):
        with pytest.raises(InvalidArgs, match="positive finite diameter"):
            spherical_feasibility_threshold(d)


@pytest.mark.parametrize("diameter", [1e-200, 1e-160, 1e-150])
def test_tiny_diameters_decide_realize_and_bound_the_threshold(diameter):
    # At 1e-200 the square of the diameter underflows to 0, and at 1e-160 the
    # cap pi^2 / diameter^2 overflows: the sphere has no cap there, and the
    # search, which needs a finite one, refuses.
    profile = DistanceMatrix(profile=[0.0, diameter, diameter])
    for d in (profile, DistanceMatrix.from_entries(profile.entries)):
        verdict = embeddable_spherical(d, 1.0)
        assert verdict.embeddable and verdict.cap_ok
        result = realize(d, EmbeddingSpace.SPHERICAL, 1.0)
        assert np.linalg.norm(result.coordinates, axis=1) == pytest.approx(1.0, rel=1e-15)
        if diameter < 1e-154:
            with pytest.raises(InvalidArgs, match="finite cap"):
                spherical_feasibility_threshold(d)
        else:
            threshold = spherical_feasibility_threshold(d)
            assert threshold.kappa == pytest.approx(kappa_max(3, diameter), rel=1e-9)


@pytest.mark.parametrize("diameter", [1e160, 1e200])
def test_huge_diameters_leave_no_cap(diameter):
    # The square of the diameter is inf, not an OverflowError: the cap is 0, so
    # the sphere at kappa = 1 refuses and the search has no cap to sample.
    profile = DistanceMatrix(profile=[0.0, diameter, diameter])
    for d in (profile, DistanceMatrix.from_entries(profile.entries)):
        assert not embeddable_spherical(d, 1.0).cap_ok
        with pytest.raises(NotEmbeddable):
            realize(d, EmbeddingSpace.SPHERICAL, 1.0)
        with pytest.raises(InvalidArgs, match="finite cap"):
            spherical_feasibility_threshold(d)


def test_ring_verdicts_agree_with_realize():
    # The Hartley realization of every ring, against LAPACK on the same
    # entries without the circulant profile for n <= 150.  Every embeddable
    # verdict is realized in as many dimensions as its rank counts, on the
    # ring and on the dense copy; for n <= 64 also at a grid of curvatures:
    # shares of the spherical cap and hyperbolic kappa from -1e-3 to -1e2.
    decide = {
        EmbeddingSpace.SPHERICAL: embeddable_spherical,
        EmbeddingSpace.EUCLIDEAN: lambda d, kappa: embeddable_euclidean(d),
        EmbeddingSpace.HYPERBOLIC: embeddable_hyperbolic,
    }
    for n in range(3, 301):
        d = ring(n)
        dense = DistanceMatrix.from_entries(d.entries) if n <= 150 else None
        cases = [(EmbeddingSpace.SPHERICAL, auto_kappa(d)), (EmbeddingSpace.EUCLIDEAN, 0.0),
                 (EmbeddingSpace.HYPERBOLIC, -1.0)]
        if n <= 64:
            cap = spherical_feasibility_threshold(d).cap
            cases += [(EmbeddingSpace.SPHERICAL, share * cap)
                      for share in (1e-3, 0.25, 0.5, 0.75, 1.0)]
            cases += [(EmbeddingSpace.HYPERBOLIC, -(10.0**e)) for e in range(-3, 3)]
        for space, curvature in cases:
            outcomes = []
            for metric in (d,) if dense is None else (d, dense):
                verdict = decide[space](metric, curvature)
                if not verdict.embeddable:
                    with pytest.raises(NotEmbeddable):
                        realize(metric, space, curvature)
                    outcomes.append(None)
                    continue
                result = realize(metric, space, curvature)
                assert result.max_distortion <= 1e-8, (n, space, curvature)
                assert result.ambient_dim == verdict.rank, (n, space, curvature)
                outcomes.append((result.ambient_dim, result.irreducible))
            # The dense copy gets the same verdict, dimension and irreducibility.
            assert outcomes.count(outcomes[0]) == len(outcomes), (n, space, curvature)


def test_realize_ring_columns_are_hartley_columns_in_mode_order():
    # Every coordinate column is one Hartley column scaled, and the columns
    # keep the spectrum's mode order, whatever the rounding of tied modes.
    for n in range(3, 65):
        d = ring(n)
        hartley = hartley_rows(d.n_effective, np.arange(d.n_effective))
        kappa = auto_kappa(d)
        for space, curvature, verdict in (
            (EmbeddingSpace.SPHERICAL, kappa, embeddable_spherical(d, kappa)),
            (EmbeddingSpace.EUCLIDEAN, 0.0, embeddable_euclidean(d)),
            (EmbeddingSpace.HYPERBOLIC, -1.0, embeddable_hyperbolic(d, -1.0)),
        ):
            if not verdict.embeddable:
                continue
            columns = realize(d, space, curvature).coordinates
            projections = hartley.T @ (columns / np.linalg.norm(columns, axis=0))
            modes = np.abs(projections).argmax(axis=0)
            matched = projections[modes, np.arange(len(modes))]
            assert np.abs(matched - 1.0).max() <= 1e-12, (n, space)
            assert (np.diff(modes) > 0).all(), (n, space, modes)


def all_pairs_distortion(d, space, kappa, coordinates):
    """The dense round trip: every pair's geodesic distance read back from the coordinates."""
    model = embedding._MODELS[space]
    scale = embedding._scale(space, kappa)
    x = coordinates * scale
    centred = x - x.mean(axis=0)
    signs = np.ones(x.shape[1])
    signs[0] = -1.0 if model.timelike else 1.0
    gram = (centred * signs) @ centred.T
    norms = np.diag(gram)
    chords = np.sqrt(np.clip(norms[:, None] + norms - 2.0 * gram, 0.0, None))
    error = np.abs(model.geodesic(chords) / scale - d.entries)
    np.fill_diagonal(error, 0.0)
    return float(error.max())


def test_ring_round_trip_bounds_the_all_pairs_distortion():
    # realize reads a ring's distances back per gcd class, from the kept
    # class values; the dense round trip on the emitted coordinates agrees
    # within the rounding of its own Gram products (23 ulps of the diameter
    # at most for n <= 300, on the sphere at the threshold).
    for n in range(3, 301):
        d = ring(n)
        cases = [(EmbeddingSpace.EUCLIDEAN, 0.0), (EmbeddingSpace.HYPERBOLIC, -1.0)]
        threshold = spherical_feasibility_threshold(d).kappa
        cases += [(EmbeddingSpace.SPHERICAL, threshold)] if threshold > 0.0 else []
        for space, kappa in cases:
            try:
                result = realize(d, space, kappa)
            except NotEmbeddable:
                continue
            dense = all_pairs_distortion(d, space, kappa, result.coordinates)
            gap = abs(dense - result.max_distortion)
            assert gap <= 32 * math.ulp(d.diameter), (n, space, dense, result.max_distortion)


def test_realize_ring_columns_match_hartley_rows():
    # Column j is gathered from Hartley row 1 at (k j) mod N; the full basis,
    # one FFT per row, is its oracle.  Both come from pocketfft and agree
    # within 27 ulps of 1/sqrt(N) for N <= 300 (Bluestein sizes such as
    # N = 262 are the worst).
    for n in range(3, 301):
        d = ring(n)
        n_points = d.n_effective
        hartley = hartley_rows(n_points, np.arange(n_points))
        for space, kappa in ((EmbeddingSpace.EUCLIDEAN, 0.0), (EmbeddingSpace.HYPERBOLIC, -1.0)):
            w = embedding._spectra(d, space, kappa, embedding._scale(space, kappa))
            verdict, keep = embedding._decide(d, space, kappa, w)
            if not verdict.embeddable:
                continue
            modes = np.flatnonzero(keep[d.mode_class])
            radii = np.sqrt(np.abs(w[d.mode_class[modes]])) / embedding._scale(space, kappa)
            coordinates = realize(d, space, kappa).coordinates
            gap = np.abs(coordinates - hartley[:, modes] * radii).max()
            assert gap <= 32 * math.ulp(1.0 / math.sqrt(n_points)) * radii.max(), (n, space)


def test_raw_even_rings_realize_with_coincident_antipodes():
    # Antipodal sites of a raw even ring are at distance zero.  The class
    # round trip reads that distance back exactly, where the dense one took
    # the square root of a rounding error (about 1e-8) and 114 of these
    # realizations for n <= 300 failed; the two sites get the same row.
    for n in range(4, 301, 2):
        d = distance_matrix(RingSpec(n))
        threshold = spherical_feasibility_threshold(d).kappa
        cases = [(EmbeddingSpace.EUCLIDEAN, 0.0, embeddable_euclidean(d)),
                 (EmbeddingSpace.HYPERBOLIC, -1.0, embeddable_hyperbolic(d, -1.0))]
        if threshold > 0.0:
            cases.append((EmbeddingSpace.SPHERICAL, threshold, embeddable_spherical(d, threshold)))
        for space, kappa, verdict in cases:
            if not verdict.embeddable:
                continue
            result = realize(d, space, kappa)
            assert result.max_distortion <= 1e-14, (n, space)
            assert result.ambient_dim == verdict.rank, (n, space)
            half = n // 2
            assert np.array_equal(result.coordinates[:half], result.coordinates[half:]), (n, space)


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



@pytest.mark.parametrize("kappa", [1e-3, -1e-3, 1e-6, -1e-6, 1e-9, -1e-9, 1e-12, -1e-12])
def test_near_flat_verdicts_agree_with_realize(kappa):
    # As kappa -> 0 a True curved verdict must still be realized within the
    # default tolerance, where the O(kappa) modes and arccos lost precision.
    space, decide = (
        (EmbeddingSpace.SPHERICAL, embeddable_spherical) if kappa > 0
        else (EmbeddingSpace.HYPERBOLIC, embeddable_hyperbolic)
    )
    for n in range(3, 65):
        d = ring(n)
        if decide(d, kappa).embeddable:
            assert realize(d, space, kappa).max_distortion <= 1e-8, n
        else:
            with pytest.raises(NotEmbeddable):
                realize(d, space, kappa)


def test_near_flat_hyperbolic_verdict_is_the_euclidean_one():
    # The rings n = 0 (mod 4) do not embed in Euclidean space; a margin that
    # shrinks like |kappa| passed every one of them at kappa = -1e-9.
    for n in range(4, 301, 4):
        d = ring(n)
        assert embeddable_hyperbolic(d, -1e-9).embeddable == embeddable_euclidean(d).embeddable, n


def test_realize_computes_one_ring_spectrum(monkeypatch):
    calls = []
    spectra = embedding._spectra
    monkeypatch.setattr(embedding, "_spectra", lambda *args: calls.append(1) or spectra(*args))
    for space, kappa in ((EmbeddingSpace.SPHERICAL, 1.0), (EmbeddingSpace.EUCLIDEAN, 0.0),
                         (EmbeddingSpace.HYPERBOLIC, -1.0)):
        calls.clear()
        realize(ring(7), space, kappa)
        assert len(calls) == 1, space


def test_ring_embedding_evaluates_the_ring_spectrum_once_per_space(monkeypatch):
    # The verdict and the realization share one class spectrum at the decided
    # curvature; on the sphere the threshold search adds its batched sweeps.
    scalar, batched = [], []
    spectra = embedding._spectra

    def counted(d, space, kappa, scales):
        (scalar if np.ndim(scales) == 0 else batched).append(space)
        return spectra(d, space, kappa, scales)

    monkeypatch.setattr(embedding, "_spectra", counted)
    for n in (5, 7, 12, 16, 25, 30, 64):
        for space in EmbeddingSpace:
            for kappa in (None, 0.5 if space is EmbeddingSpace.SPHERICAL else -0.5):
                scalar.clear(), batched.clear()
                report = ring_embedding(RingSpec(n), space, kappa)
                assert scalar == [space], (n, space, kappa, report.verdict.embeddable)
                assert bool(batched) == (space is EmbeddingSpace.SPHERICAL), (n, space, kappa)


def _outcome(d, space, kappa):
    """What ``realize`` gives: the result's fields, or the message it raises."""
    try:
        result = realize(d, space, kappa)
    except NotEmbeddable as error:
        return str(error)
    return (result.curvature, result.ambient_dim, result.coordinates.tobytes(),
            result.max_distortion, result.irreducible)


def _verdict_fields(verdict):
    return (verdict.embeddable, verdict.cap_ok, verdict.psd_ok, verdict.margin,
            verdict.eigenvalues.tobytes(), verdict.rank)


def test_a_kept_ring_decision_serves_only_its_space_and_kappa():
    # A decision at one (space, kappa) followed by another on the same ring
    # gives what a fresh ring gives, and so does the first one decided again.
    decide = {
        EmbeddingSpace.SPHERICAL: embeddable_spherical,
        EmbeddingSpace.EUCLIDEAN: lambda d, kappa: embeddable_euclidean(d),
        EmbeddingSpace.HYPERBOLIC: embeddable_hyperbolic,
    }
    for n in (5, 7, 9, 12, 16, 30):
        cap = spherical_feasibility_threshold(ring(n)).cap
        cases = [(EmbeddingSpace.SPHERICAL, share * cap) for share in (0.25, 0.5, 1.0)]
        cases += [(EmbeddingSpace.EUCLIDEAN, 0.0), (EmbeddingSpace.HYPERBOLIC, -1.0),
                  (EmbeddingSpace.HYPERBOLIC, -0.01)]
        for (first, kappa1), (second, kappa2) in itertools.permutations(cases, 2):
            d = ring(n)
            verdict = decide[first](d, kappa1)
            assert _outcome(d, second, kappa2) == _outcome(ring(n), second, kappa2), (n, first, second)
            fresh = decide[first](ring(n), kappa1)
            assert _verdict_fields(verdict) == _verdict_fields(fresh), (n, first, kappa1)
            assert _verdict_fields(decide[first](d, kappa1)) == _verdict_fields(fresh), (n, first)
            assert _outcome(d, first, kappa1) == _outcome(ring(n), first, kappa1), (n, first)


def test_explicit_entries_keep_no_decision(monkeypatch):
    calls = []
    spectra = embedding._spectra
    monkeypatch.setattr(embedding, "_spectra", lambda *args: calls.append(1) or spectra(*args))
    d = DistanceMatrix.from_entries(ring(7).entries)
    for _ in range(2):
        assert embeddable_spherical(d, 1.0).embeddable
        assert embeddable_euclidean(d).embeddable
        assert embeddable_hyperbolic(d, -1.0).embeddable
        for space, kappa in ((EmbeddingSpace.SPHERICAL, 1.0), (EmbeddingSpace.EUCLIDEAN, 0.0),
                             (EmbeddingSpace.HYPERBOLIC, -1.0)):
            realize(d, space, kappa)
    assert len(calls) == 6
    assert "_decision" not in vars(d)
    ring_copy = ring(7)
    embeddable_euclidean(ring_copy)
    assert "_decision" in vars(ring_copy)


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


def test_feasibility_threshold_cap_decided_on_the_grid():
    # Two points at distance w lie antipodally on the cap sphere; the cap is
    # the grid's last sample, so no separate diameter check can round it away.
    for w in np.linspace(0.1, 10, 2000):
        threshold = spherical_feasibility_threshold(
            DistanceMatrix.from_entries(np.array([[0.0, w], [w, 0.0]])))
        assert threshold.feasible_at_cap, w
        assert threshold.kappa == threshold.cap, w


def test_spherical_verdict_accepts_the_threshold_cap():
    # The verdict compares kappa with the cap by the search's own expression,
    # so two antipodal points are accepted at exactly the reported cap.
    for w in np.linspace(0.1, 10, 2000):
        d = DistanceMatrix.from_entries(np.array([[0.0, w], [w, 0.0]]))
        verdict = embeddable_spherical(d, math.pi**2 / d.diameter**2)
        assert verdict.cap_ok, w
        assert verdict.embeddable, w


@pytest.mark.parametrize("n, kappa, upper", [
    (5, 4.39141349210944, 4.391413492109442),
    (9, 3.780267875097639, 3.78026787509764),
    (12, 3.3645743047548855, 3.3645743047548864),
    (16, 2.873273448148925, 2.8732734481489253),
    (22, 3.4750870920148436, 3.4750870920148444),
])
def test_feasibility_threshold_pinned_values(n, kappa, upper):
    threshold = spherical_feasibility_threshold(ring(n))
    assert (threshold.kappa, threshold.upper) == (kappa, upper)


def test_feasibility_threshold_cell_is_one_rounding_wide():
    for n in range(3, 65):
        for quotient in {False, n % 2 == 0}:
            threshold = spherical_feasibility_threshold(distance_matrix(RingSpec(n), quotient))
            if threshold.kappa > 0.0:
                gap = threshold.upper - threshold.kappa
                assert 0.0 <= gap <= 8 * math.ulp(threshold.kappa), (n, quotient)


def test_feasibility_threshold_lands_in_the_fft_oracle_cell(monkeypatch):
    # The search on class spectra against the same search on the FFT route.
    ours = [spherical_feasibility_threshold(ring(n)) for n in range(3, 301)]
    monkeypatch.setattr(embedding, "_spectra", fft_spectra)
    for n, threshold in zip(range(3, 301), ours):
        oracle = spherical_feasibility_threshold(ring(n))
        for value, expected in ((threshold.kappa, oracle.kappa), (threshold.upper, oracle.upper)):
            assert abs(value - expected) <= 2 * math.ulp(expected), (n, value, expected)


def test_feasibility_threshold_memory_is_linear():
    # 256 grid samples of d(N) class values each: at n = 400001 (d(N) = 4) the
    # search holds a few arrays of N entries, where FFT spectra held 256 x N.
    d = distance_matrix(RingSpec(400001))
    tracemalloc.start()
    try:
        threshold = spherical_feasibility_threshold(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.0 < threshold.kappa < threshold.cap
    assert peak <= 8 * 8 * d.n_effective, peak


def test_class_table_and_threshold_search_stay_in_divisor_memory():
    # N = 22972950 has 384 divisors: the class table, its spectra and the
    # search with its sweeps hold d(N)^2 entries; the N-entry mode_class is
    # built when read.
    d = distance_matrix(RingSpec(45945900), quotient=True)
    tracemalloc.start()
    try:
        threshold = spherical_feasibility_threshold(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(d.divisors) == 384 and 0.0 < threshold.kappa < threshold.cap
    assert "mode_class" not in vars(d) and "profile" not in vars(d)
    assert peak <= d.n_effective, peak
    small = ring(360)
    assert not small.mode_class.flags.writeable and small.mode_class is small.mode_class


def test_feasibility_threshold_refines_in_few_sweeps(monkeypatch):
    calls = []
    spectra = embedding._spectra
    monkeypatch.setattr(embedding, "_spectra", lambda *args: calls.append(1) or spectra(*args))
    spherical_feasibility_threshold(ring(16))
    assert len(calls) <= 13


def test_ring_embedding_report_prime():
    spherical = ring_embedding(RingSpec(7), EmbeddingSpace.SPHERICAL)
    euclidean = ring_embedding(RingSpec(7), EmbeddingSpace.EUCLIDEAN)
    hyperbolic = ring_embedding(RingSpec(7), EmbeddingSpace.HYPERBOLIC)
    assert not spherical.quotiented
    assert spherical.distances.n_effective == 7
    assert spherical.classification.kind is RingKind.PRIME
    assert spherical.verdict.embeddable
    assert spherical.realization.ambient_dim == 6
    assert spherical.realization.irreducible
    assert euclidean.realization.ambient_dim == 6
    assert hyperbolic.realization is not None
    assert hyperbolic.kappa == -1.0
    boundary = kappa_max(7, spherical.weight_mean)
    assert abs(spherical.threshold.kappa - boundary) <= 1e-9 * boundary


def test_ring_embedding_report_twice_prime_quotient():
    report = ring_embedding(RingSpec(14), EmbeddingSpace.SPHERICAL)
    assert report.quotiented
    assert report.distances.n_effective == 7
    assert report.classification.kind is RingKind.TWICE_PRIME
    assert report.realization.ambient_dim == 6


def test_ring_embedding_report_composite():
    kappa_mean = ring_embedding(RingSpec(9), EmbeddingSpace.EUCLIDEAN).kappa_max_mean_weight
    report = ring_embedding(RingSpec(9), EmbeddingSpace.SPHERICAL, kappa_mean)
    assert report.kappa == report.kappa_max_mean_weight == kappa_mean
    assert report.classification.kind is RingKind.ODD_COMPOSITE
    assert not report.classification.uniform
    assert report.weight_min < report.weight_mean < report.weight_max
    # At n = 9 the mean-weight curvature bound is still feasible, and the
    # searched threshold sits at or above it.
    assert report.verdict.embeddable
    assert report.threshold.kappa >= report.kappa_max_mean_weight
    assert report.threshold.kappa <= report.threshold.cap


def test_ring_embedding_auto_kappa_matches_the_policy_oracle():
    for n in range(3, 65):
        assert ring_embedding(RingSpec(n), EmbeddingSpace.SPHERICAL).kappa == auto_kappa(ring(n))
    for n in (3, 4, 9, 16):
        assert ring_embedding(RingSpec(n), EmbeddingSpace.HYPERBOLIC).kappa == -1.0
        assert ring_embedding(RingSpec(n), EmbeddingSpace.EUCLIDEAN, 2.0).kappa is None
