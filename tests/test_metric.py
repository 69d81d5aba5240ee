import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from spinring import (
    DistanceMatrix,
    IndexOutOfRange,
    InvalidArgs,
    MetricClassification,
    QuotientOnOddRing,
    RingKind,
    RingSpec,
    asymptotic_distance,
    check_metric_axioms,
    circulant_spectrum,
    classify_ring,
    distance_matrix,
    distance_profile,
    distance_variance_sweep,
    embeddable_spherical,
    merge_distinct_values,
    p_max,
    p_max_closed_form,
    projector_overlaps,
    sqrt_p_max_closed_form,
    transfer_probability_time_series,
    zero_distance_pairs,
)
from spinring import metric
from spinring.metric import BLOCK, SAMPLE_CHUNK, TRIANGLE_TOL, _class_triangle_ok


def test_p_max_closed_form_small_rings():
    assert p_max_closed_form(3, 1) == pytest.approx(4.0 / 9.0, abs=1e-14)
    assert p_max_closed_form(4, 1) == pytest.approx(0.25, abs=1e-14)
    # Antipodal transfer on the 4-ring is perfect.
    assert p_max_closed_form(4, 2) == pytest.approx(1.0, abs=1e-14)


def test_p_max_closed_form_zero_separation_is_one():
    for n in (3, 4, 7, 10):
        assert p_max_closed_form(n, 0) == pytest.approx(1.0, abs=1e-12)


def test_p_max_closed_form_validation():
    with pytest.raises(InvalidArgs):
        sqrt_p_max_closed_form(2, 1)
    with pytest.raises(InvalidArgs):
        sqrt_p_max_closed_form(5, 3)
    with pytest.raises(InvalidArgs):
        sqrt_p_max_closed_form(5, -1)


def test_p_max_uniform_on_prime_ring():
    assert p_max_closed_form(5, 1) == pytest.approx(p_max_closed_form(5, 2), abs=1e-14)


def test_p_max_separation_dependent_on_composite_ring():
    assert abs(p_max_closed_form(9, 1) - p_max_closed_form(9, 3)) > 1e-3


def test_p_max_projector_route_matches_closed_form():
    for n in (5, 6, 9):
        dec = circulant_spectrum(RingSpec(n))
        for m in range(1, n // 2 + 1):
            assert p_max(dec, 1, 1 + m) == pytest.approx(
                p_max_closed_form(n, m), abs=1e-12
            )
        sites = np.arange(1, n + 1)
        assert np.array_equal(p_max(dec, 2, sites), [p_max(dec, 2, j) for j in sites])


def test_distance_values_small_rings():
    d3 = distance_matrix(RingSpec(3)).entries
    assert d3[0, 1] == pytest.approx(math.log(9.0 / 4.0), abs=1e-12)
    d4q = distance_matrix(RingSpec(4), quotient=True).entries
    assert d4q.shape == (2, 2)
    assert d4q[0, 1] == pytest.approx(math.log(4.0), abs=1e-12)


def test_even_ring_antipodal_zero_and_reflection():
    d6 = distance_matrix(RingSpec(6)).entries
    assert d6[0, 3] == 0.0
    # d(m) = d(n/2 - m) on even rings, so separations 1 and 2 coincide.
    assert d6[0, 1] == pytest.approx(d6[0, 2], abs=1e-12)
    profile = distance_profile(6)
    assert profile[1] == pytest.approx(profile[2], abs=1e-12)
    assert profile[3] == 0.0


def test_quotient_requires_even_ring():
    with pytest.raises(QuotientOnOddRing):
        distance_matrix(RingSpec(5), quotient=True)


def test_metric_axioms_sampled_matches_direct_gather():
    # Several gather chunks, against the same draws gathered by 2-D indexing.
    space = _axiom_test_space()
    samples = 2 * SAMPLE_CHUNK + 5
    report = check_metric_axioms(space, seed=11, exhaustive_limit=0, mc_samples=samples)
    rng = np.random.default_rng(11)
    i, j, k = (rng.integers(0, 5, samples) for _ in range(3))
    d = space.entries
    slack = d[i, j] - d[i, k] - d[k, j]
    expected = [
        ("triangle", (a + 1, b + 1, c + 1), s)
        for a, b, c, s in zip(i, j, k, slack)
        if s > 1e-10 and len({a, b, c}) == 3
    ]
    assert len(expected) > 1000
    assert [v for v in _violations(report) if v[0] == "triangle"] == expected


def test_distance_profile_matches_cosine_sum_oracle():
    for n in range(3, 201):
        profile = distance_profile(n)
        assert profile.shape == (n // 2 + 1,)
        oracle = [
            max(0.0, -2.0 * math.log(sqrt_p_max_closed_form(n, m))) for m in range(n // 2 + 1)
        ]
        np.testing.assert_allclose(profile, oracle, rtol=0.0, atol=1e-12, err_msg=f"n={n}")


def test_distance_profile_is_the_gcd_gather_bit_for_bit():
    # The divisor fill against the distance gathered through q = n / gcd(n, m).
    for n in [*range(3, 3001), 720720, 2**20]:
        orders, index = np.unique(n // np.gcd(n, np.arange(n // 2 + 1)), return_inverse=True)
        oracle = np.array([metric._distance_by_order(q) for q in orders.tolist()])[index]
        assert np.array_equal(distance_profile(n).view(np.int64), oracle.view(np.int64)), n


def test_distance_profile_matches_vectorized_cosine_sum():
    # sqrt(p_max) from the profile against the cosine sum evaluated with numpy,
    # at one separation of each order q | n and at a few random separations.
    rng = np.random.default_rng(0)
    for n in range(3, 2001):
        half = n // 2
        orders = [q for q in range(1, n + 1) if n % q == 0 and n // q <= half]
        m = np.unique(np.concatenate([[n // q for q in orders], rng.integers(0, half + 1, 3)]))
        lead = 2.0 / n if n % 2 == 0 else 1.0 / n
        k = np.arange(1, (n - 1) // 2 + 1)
        cosine = np.abs(np.cos(2.0 * np.pi * np.outer(m, k) / n))
        cosine_sum = lead + (2.0 / n) * cosine.sum(axis=1)
        from_profile = np.exp(-0.5 * distance_profile(n)[m])
        np.testing.assert_allclose(
            from_profile, cosine_sum, rtol=0.0, atol=1e-13, err_msg=f"n={n}"
        )


def test_distance_profile_validation_and_antipodes():
    for n in (-1, 0, 1, 2):
        with pytest.raises(InvalidArgs):
            distance_profile(n)
    for n in range(4, 2001, 2):
        antipode = distance_profile(n)[n // 2]
        # q = 2 gives sqrt(p_max) = 1 exactly, so the distance is +0.0.
        assert antipode == 0.0 and not math.copysign(1.0, antipode) < 0, n


def test_distance_matrix_from_entries_validation():
    with pytest.raises(InvalidArgs):
        DistanceMatrix.from_entries(np.zeros((2, 3)))
    with pytest.raises(InvalidArgs):
        DistanceMatrix.from_entries(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(InvalidArgs):
        DistanceMatrix.from_entries(np.array([[0.5, 1.0], [1.0, 0.0]]))
    with pytest.raises(InvalidArgs):
        DistanceMatrix.from_entries(np.array([[0.0, -1.0], [-1.0, 0.0]]))


def test_distance_matrix_takes_exactly_one_of_entries_or_profile():
    profile = np.array([0.0, 1.0, 1.0])
    entries = DistanceMatrix(profile=profile).entries
    for args in ({}, {"entries": entries, "profile": profile}):
        with pytest.raises(InvalidArgs, match="exactly one"):
            DistanceMatrix(**args)
    with pytest.raises(InvalidArgs, match="1-D profile"):
        DistanceMatrix(profile=entries)
    for shape in ((2, 3), (3,), (2, 2, 2)):
        with pytest.raises(InvalidArgs, match="square"):
            DistanceMatrix(np.zeros(shape))
    assert DistanceMatrix(profile=profile).n_effective == len(profile)
    assert DistanceMatrix(entries).n_effective == len(entries)
    assert DistanceMatrix(profile=profile).divisors is not None
    assert DistanceMatrix(entries).divisors is None
    for n, quotient in ((7, False), (8, False), (8, True)):
        d = distance_matrix(RingSpec(n), quotient)
        assert d.n_effective == len(d.profile) == (n // 2 if quotient else n)


def test_distance_matrix_refuses_zero_points():
    # With no points, diameter would meet a zero-size reduction and
    # check_metric_axioms a division by zero.
    for build in (lambda: DistanceMatrix(profile=[]), lambda: DistanceMatrix(np.zeros((0, 0))),
                  lambda: DistanceMatrix.from_entries(np.zeros((0, 0)))):
        with pytest.raises(InvalidArgs, match="non-empty"):
            build()


def test_distance_matrix_refuses_entries_that_are_not_numbers():
    for build in (lambda: DistanceMatrix.from_entries([["a"]]),
                  lambda: DistanceMatrix.from_entries([[0.0, 1.0], [1.0]]),
                  lambda: DistanceMatrix(profile=["x", 1])):
        with pytest.raises(InvalidArgs, match="array of numbers"):
            build()


def test_negative_distances_are_refused_on_every_route():
    # Unrefused, a negative profile passes as a rank-2 Euclidean metric that
    # realize cannot factor.  -0.0 is not negative.
    m = np.array([[0.0, -1.0, -1.0], [-1.0, 0.0, -1.0], [-1.0, -1.0, 0.0]])
    for build in (lambda: DistanceMatrix(profile=[0.0, -1.0, -1.0]), lambda: DistanceMatrix(m),
                  lambda: DistanceMatrix.from_entries(m)):
        with pytest.raises(InvalidArgs, match="distances must be nonnegative"):
            build()
    zero = np.array([[-0.0, 1.0], [1.0, -0.0]])
    assert DistanceMatrix(profile=[-0.0, 1.0, 1.0]).diameter == 1.0
    assert np.array_equal(DistanceMatrix.from_entries(zero).entries, zero)


def test_nan_distances_are_refused_on_every_route():
    # Every comparison with NaN is False, so a NaN pair would pass every axiom.
    m = np.array([[0.0, 1.0, math.nan], [1.0, 0.0, 1.0], [math.nan, 1.0, 0.0]])
    with pytest.raises(InvalidArgs, match="NaN"):
        DistanceMatrix(m)
    with pytest.raises(InvalidArgs, match="NaN"):
        DistanceMatrix.from_entries(m)
    with pytest.raises(InvalidArgs, match="NaN"):
        DistanceMatrix(profile=np.array([0.0, 1.0, math.nan, 1.0]))
    # Infinite distances stay allowed.
    far = np.array([[0.0, math.inf], [math.inf, 0.0]])
    assert DistanceMatrix.from_entries(far).diameter == math.inf
    assert DistanceMatrix(profile=far[0]).diameter == math.inf


def test_metric_axioms_odd_ring():
    report = check_metric_axioms(distance_matrix(RingSpec(7)))
    assert report.classification is MetricClassification.METRIC
    assert report.exhaustive
    assert not report.violations


def test_metric_axioms_even_ring_semi_metric():
    report = check_metric_axioms(distance_matrix(RingSpec(8)))
    assert report.classification is MetricClassification.SEMI_METRIC_ANTIPODAL
    assert report.identity_ok and report.symmetry_ok and report.triangle_ok
    assert not report.separation_ok
    pairs = sorted(v.sites for v in report.violations if v.kind == "separation")
    assert pairs == [(1, 5), (2, 6), (3, 7), (4, 8)]


def test_metric_axioms_even_ring_quotient_is_metric():
    report = check_metric_axioms(distance_matrix(RingSpec(8), quotient=True))
    assert report.classification is MetricClassification.METRIC


def test_metric_axioms_detect_triangle_violation():
    entries = np.array(
        [
            [0.0, 1.0, 3.0],
            [1.0, 0.0, 1.0],
            [3.0, 1.0, 0.0],
        ]
    )
    report = check_metric_axioms(DistanceMatrix.from_entries(entries))
    assert report.classification is MetricClassification.NOT_SEMI_METRIC
    assert not report.triangle_ok
    assert any(v.kind == "triangle" for v in report.violations)


def test_metric_axioms_detect_identity_violation():
    entries = np.array([[0.1, 1.0], [1.0, 0.0]])
    report = check_metric_axioms(DistanceMatrix(entries))
    assert not report.identity_ok
    assert report.classification is MetricClassification.NOT_SEMI_METRIC


def test_metric_axioms_sampled_path_on_large_ring():
    ring = distance_matrix(RingSpec(201))
    report = check_metric_axioms(DistanceMatrix.from_entries(ring.entries), seed=0)
    assert not report.exhaustive
    assert report.classification is MetricClassification.METRIC
    report = check_metric_axioms(ring, seed=0)
    assert report.exhaustive
    assert report.classification is MetricClassification.METRIC


def test_distance_matrix_carries_circulant_profile():
    for n, quotient in ((7, False), (8, False), (8, True), (12, True)):
        d = distance_matrix(RingSpec(n), quotient)
        points = d.n_effective
        i, j = np.indices((points, points))
        assert np.array_equal(d.entries, d.profile[(j - i) % points])
        assert not d.profile.flags.writeable
    assert DistanceMatrix.from_entries(d.entries).profile is None
    with pytest.raises(InvalidArgs):
        DistanceMatrix(d.entries, profile=d.profile[::-1] + 1.0)


def test_ring_entries_are_the_read_only_dense_circulant():
    for n, quotient, d in _rings(64):
        dense = np.array([np.roll(d.profile, i) for i in range(d.n_effective)])
        assert np.array_equal(d.entries, dense), (n, quotient)
        assert not d.entries.flags.writeable
        with pytest.raises(ValueError):
            d.entries[0, 1] = 1.0


def _traced(run):
    """The result of ``run()`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_ring_statistics_allocate_no_dense_matrix():
    # A ring's entries are a view of its profile, and the classification,
    # the diameter, a spherical verdict and a sweep row read the profile.
    n = 20000

    def run():
        d = distance_matrix(RingSpec(n), quotient=True)
        assert not d.entries.flags.writeable
        classify_ring(n, d)
        assert d.diameter == d.profile.max()
        embeddable_spherical(d, 1.0)
        distance_variance_sweep(n, n)

    _, peak = _traced(run)
    assert peak <= 64 * (n // 2) * 8, peak


def test_metric_check_memory_is_bounded_on_large_rings():
    # The circulant triangle slacks are checked a bounded block of rows at a time.
    report, peak = _traced(lambda: check_metric_axioms(distance_matrix(RingSpec(8001))))
    assert report.classification is MetricClassification.METRIC
    assert peak <= 32 * 2**20, peak


def test_metric_axioms_profile_route_matches_dense_oracle_on_rings():
    for n in range(3, 201):
        for quotient in (False, True) if n % 2 == 0 else (False,):
            ring = distance_matrix(RingSpec(n), quotient)
            dense = DistanceMatrix.from_entries(ring.entries)
            oracle = check_metric_axioms(dense)
            assert oracle.exhaustive
            assert check_metric_axioms(ring) == oracle, (n, quotient)


@pytest.mark.parametrize(
    "profile, classification",
    [
        # Triangle violations: d(1, 3) = 3 > d(1, 2) + d(2, 3).
        ([0.0, 1.0, 3.0, 1.0, 3.0, 1.0], MetricClassification.NOT_SEMI_METRIC),
        # Zeros at separation 2 and 4, not at the antipode 3.
        ([0.0, 1.0, 0.0, 1.0, 0.0, 1.0], MetricClassification.NOT_SEMI_METRIC),
        # Antipodal zeros only.
        ([0.0, 1.0, 1.0, 0.0, 1.0, 1.0], MetricClassification.SEMI_METRIC_ANTIPODAL),
    ],
)
def test_metric_axioms_profile_route_matches_dense_oracle_on_hand_built(
    profile, classification
):
    space = DistanceMatrix(profile=profile)
    report = check_metric_axioms(space)
    assert report == check_metric_axioms(DistanceMatrix(space.entries))
    assert report.exhaustive
    assert report.classification is classification


def test_infinite_distances_check_without_runtime_warnings():
    # inf - inf is NaN in the slacks and asymmetries, and no violation: only
    # a finite pair sum below an infinite distance breaks a triangle.
    for profile, triangle_ok in (([0.0, 1.0, math.inf, 1.0], False),
                                 ([0.0, math.inf, math.inf], True)):
        ring = DistanceMatrix(profile=profile)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = check_metric_axioms(ring)
            assert report == check_metric_axioms(DistanceMatrix(ring.entries))
            assert report == check_metric_axioms(DistanceMatrix.from_entries(ring.entries))
        assert report.symmetry_ok and report.triangle_ok == triangle_ok
        triangles = [v.magnitude for v in report.violations if v.kind == "triangle"]
        assert triangles == ([] if triangle_ok else [math.inf] * 8), profile


def test_metric_axioms_on_an_asymmetric_circulant_from_its_entries():
    # Not symmetric, so no ring profile; its only triangle violations have
    # a = b = 4 > N/2: d(i, i + 3) = 3 > d(i, i + 4) + d(i + 4, i + 3) = 2.
    profile = np.array([0.0, 2.0, 2.0, 3.0, 1.0])
    with pytest.raises(InvalidArgs, match="from_entries"):
        DistanceMatrix(profile=profile)
    sites = np.arange(5)
    report = check_metric_axioms(DistanceMatrix(profile[(sites - sites[:, None]) % 5]))
    assert report.exhaustive
    assert report.identity_ok and report.separation_ok
    assert not report.symmetry_ok and not report.triangle_ok
    assert report.triangle_ok == _all_rows_triangle_ok(profile)
    assert report.classification is MetricClassification.NOT_SEMI_METRIC
    assert sorted(_violations(report)) == sorted(
        [("symmetry", (i + 1, j + 1), 1.0) for i in range(5) for j in range(i + 1, 5)]
        + [("triangle", (i + 1, (i + 3) % 5 + 1, (i + 4) % 5 + 1), 1.0) for i in range(5)]
    )


def test_metric_axioms_profile_route_matches_dense_oracle_on_random_profiles():
    # One value per class gcd(s, N), the identity's class included.
    rng = np.random.default_rng(5)
    for _ in range(300):
        points = int(rng.integers(1, 9))
        by_class = rng.integers(0, 4, points + 1).astype(float)
        by_class[points] = 0.0 if rng.random() < 0.9 else 1.0
        profile = by_class[np.gcd(np.arange(points), points)]
        space = DistanceMatrix(profile=profile)
        dense = DistanceMatrix(space.entries)
        assert check_metric_axioms(space) == check_metric_axioms(dense), profile


def _windows(profile):
    """Read-only view W with W[r, b] = profile[(r + b) mod N] for r = 0..N, built without copying."""
    doubled = np.concatenate((profile, profile))
    step = doubled.strides[0]
    return np.lib.stride_tricks.as_strided(
        doubled, (len(profile) + 1, len(profile)), (step, step), writeable=False
    )


def _circulant_triangle_ok(d):
    """Oracle of ``_class_triangle_ok``: whether no slack c[a + b] - (c[a] + c[b]) exceeds TRIANGLE_TOL.

    c is constant on the classes gcd(x, N), so a row a = u e, u a unit, has
    row e's slacks (b -> u b): one row per divisor e < N is checked, about
    BLOCK slacks at a time.
    """
    profile, rows = d.profile, np.sort(d.divisors)[:-1]
    windows, step = _windows(profile), max(1, BLOCK // len(profile))
    for block in (rows[i:i + step] for i in range(0, len(rows), step)):
        slack = np.add.outer(profile[block], profile)
        np.subtract(windows[block], slack, out=slack)
        if (slack > TRIANGLE_TOL).any():
            return False
    return True


def _all_rows_triangle_ok(profile):
    """Oracle of ``_circulant_triangle_ok``: every row a = 1..N/2 when symmetric, else 1..N - 1."""
    n = len(profile)
    rows = n // 2 if np.array_equal(profile, profile[-np.arange(n)]) else n - 1
    windows, step = _windows(profile), max(1, BLOCK // n)
    for a in range(1, rows + 1, step):
        slack = np.add.outer(profile[a:min(a + step, rows + 1)], profile)
        np.subtract(windows[a:a + len(slack)], slack, out=slack)
        if (slack > TRIANGLE_TOL).any():
            return False
    return True


def _class_constant(profile):
    n = len(profile)
    return np.array_equal(profile, profile[np.gcd(np.arange(n), n) % n])


def test_divisor_rows_match_all_rows_on_rings():
    for n, quotient, d in _rings(400):
        assert _class_constant(d.profile), (n, quotient)
        assert _circulant_triangle_ok(d) == _all_rows_triangle_ok(d.profile), (n, quotient)


def test_divisor_rows_match_all_rows_on_random_class_constant_profiles():
    # Every class value lies in [1, 2], so every pair sum is at least 2; one
    # proper class is redrawn from [1, 3.75], which breaks the triangle
    # inequality in about a quarter of the profiles.
    rng = np.random.default_rng(20)
    verdicts = []
    for _ in range(3000):
        n = int(rng.integers(1, 120))
        sep = np.arange(n)
        gcd = np.gcd(sep, n)
        by_class = rng.uniform(1.0, 2.0, n + 1)
        by_class[n] = 0.0
        if n > 1:
            by_class[rng.choice(sep[gcd == sep])] = rng.uniform(1.0, 3.75)
        profile = by_class[gcd]
        verdicts.append(_circulant_triangle_ok(DistanceMatrix(profile=profile)))
        assert verdicts[-1] == _all_rows_triangle_ok(profile), profile
    assert 0.15 < verdicts.count(False) / len(verdicts) < 0.35


def test_divisor_rows_leave_other_circulants_on_all_rows():
    # A circulant that is not constant on the classes gcd(s, N) is refused as a
    # profile; its dense matrix is checked on every triple, and its verdict
    # is that of every row of slacks.
    rng = np.random.default_rng(21)
    for symmetric in (True, False):
        verdicts = []
        for _ in range(500):
            n = int(rng.integers(7, 60))
            profile = rng.uniform(1.0, 2.0, n)
            profile[int(rng.integers(1, n))] = rng.uniform(1.0, 3.0)
            if symmetric:
                profile = np.maximum(profile, profile[-np.arange(n)])
            profile[0] = 0.0
            assert np.array_equal(profile, profile[-np.arange(n)]) == symmetric
            assert not _class_constant(profile)
            with pytest.raises(InvalidArgs, match="from_entries"):
                DistanceMatrix(profile=profile)
            sites = np.arange(n)
            dense = DistanceMatrix(profile[(sites - sites[:, None]) % n])
            verdicts.append(check_metric_axioms(dense).triangle_ok)
            assert verdicts[-1] == _all_rows_triangle_ok(profile), profile
        assert True in verdicts and False in verdicts


def test_metric_axioms_list_class_constant_violations_as_the_dense_route():
    # Classes gcd(s, 12) = 1, 2, 3, 4, 6: c[4] = c[8] = 2.5 > c[2] + c[2].
    by_class = {1: 1.0, 2: 1.0, 3: 1.0, 4: 2.5, 6: 1.0, 12: 0.0}
    space = DistanceMatrix(profile=[by_class[math.gcd(s, 12)] for s in range(12)])
    assert _class_constant(space.profile)
    report = check_metric_axioms(space)
    assert not report.triangle_ok
    assert report.classification is MetricClassification.NOT_SEMI_METRIC
    assert report == check_metric_axioms(DistanceMatrix.from_entries(space.entries))


def test_merge_distinct_values():
    values = np.array([1.0, 1.0 + 5e-11, 2.0])
    assert len(merge_distinct_values(values)) == 2
    assert merge_distinct_values(np.array([])) == ()
    assert merge_distinct_values(np.array([0.75])) == (0.75,)
    # Each value lies within tol of the next, so the chain is one group even
    # though its ends are 3e-10 apart.
    chain = 1.0 + 0.75e-10 * np.arange(5)
    assert merge_distinct_values(chain[::-1]) == (float(np.mean(chain)),)
    # inf - inf is NaN between equal infinities, which cuts no group and warns of nothing.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert merge_distinct_values(np.array([math.inf, 1.0, math.inf])) == (1.0, math.inf)
        infinite = DistanceMatrix(profile=[0.0, math.inf, math.inf])
        assert classify_ring(3, infinite).distinct_values == (math.inf,)


def _axiom_test_space():
    """Five hand-built points that fail identity at 1, separation at (2, 4) and triangles."""
    entries = np.array(
        [
            [0.5, 1.0, 3.0, 1.0, 2.0],
            [1.0, 0.0, 1.0, 0.0, 1.0],
            [3.0, 1.0, 0.0, 1.0, 4.5],
            [1.0, 0.0, 1.0, 0.0, 1.0],
            [2.0, 1.0, 4.5, 1.0, 0.0],
        ]
    )
    return DistanceMatrix(entries)


def _violations(report):
    return [(v.kind, v.sites, v.magnitude) for v in report.violations]


def test_metric_axioms_exhaustive_violations_are_pinned():
    report = check_metric_axioms(_axiom_test_space())
    assert report.exhaustive
    assert report.classification is MetricClassification.NOT_SEMI_METRIC
    assert _violations(report) == [
        ("identity", (1,), 0.5),
        ("separation", (2, 4), 0.0),
        ("triangle", (1, 3, 2), 1.0),
        ("triangle", (3, 1, 2), 1.0),
        ("triangle", (3, 5, 2), 2.5),
        ("triangle", (5, 3, 2), 2.5),
        ("triangle", (1, 3, 4), 1.0),
        ("triangle", (3, 1, 4), 1.0),
        ("triangle", (3, 5, 4), 2.5),
        ("triangle", (5, 3, 4), 2.5),
    ]


def test_metric_axioms_sampled_violations_are_pinned():
    report = check_metric_axioms(
        _axiom_test_space(), seed=3, exhaustive_limit=0, mc_samples=200
    )
    assert not report.exhaustive
    assert report.classification is MetricClassification.NOT_SEMI_METRIC
    # The draws are those of the seeded generator, in draw order, repeats kept.
    assert _violations(report) == [
        ("identity", (1,), 0.5),
        ("separation", (2, 4), 0.0),
        ("triangle", (1, 3, 4), 1.0),
        ("triangle", (5, 3, 2), 2.5),
        ("triangle", (3, 5, 4), 2.5),
        ("triangle", (5, 3, 2), 2.5),
        ("triangle", (3, 1, 4), 1.0),
        ("triangle", (1, 3, 2), 1.0),
        ("triangle", (5, 3, 2), 2.5),
        ("triangle", (1, 3, 2), 1.0),
    ]


def _is_prime(n):
    """Trial division: the oracle of the divisor-count ring kind."""
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def test_classify_ring_kinds():
    for n, kind, uniform in (
        (11, RingKind.PRIME, True),
        (10, RingKind.TWICE_PRIME, True),
        (4, RingKind.TWICE_PRIME, True),
        (15, RingKind.ODD_COMPOSITE, False),
        (12, RingKind.TWICE_COMPOSITE, False),
    ):
        quotient = n % 2 == 0
        cls = classify_ring(n, distance_matrix(RingSpec(n), quotient=quotient))
        assert cls.kind is kind, n
        assert cls.uniform is uniform, n
        if not uniform:
            assert len(cls.distinct_values) >= 2
    kinds = {(True, True): RingKind.TWICE_PRIME, (True, False): RingKind.TWICE_COMPOSITE,
             (False, True): RingKind.PRIME, (False, False): RingKind.ODD_COMPOSITE}
    for n in range(3, 5001):
        even = n % 2 == 0
        d = distance_matrix(RingSpec(n), quotient=even)
        assert classify_ring(n, d).kind is kinds[even, _is_prime(n // 2 if even else n)], n
    for n in (2, 0, -5):
        with pytest.raises(InvalidArgs, match="at least 3"):
            classify_ring(n, distance_matrix(RingSpec(3)))


def test_classify_ring_needs_a_profile():
    entries = distance_matrix(RingSpec(9)).entries
    with pytest.raises(InvalidArgs, match="profile"):
        classify_ring(9, DistanceMatrix.from_entries(entries))


def _rings(n_max):
    """(n, quotient, distance matrix) for every ring n = 3..n_max, raw and quotiented."""
    for n in range(3, n_max + 1):
        for quotient in (False, True) if n % 2 == 0 else (False,):
            yield n, quotient, distance_matrix(RingSpec(n), quotient)


def test_every_ring_profile_is_accepted_with_the_divisors_of_n():
    # A single point, a square, highly composite sizes, a power of two and a prime.
    profiles = ((size, None, DistanceMatrix(profile=np.log1p(np.gcd(np.arange(size), size) % size)))
                for size in (1, 36, 1000000, 720720, 2**20, 1000003))
    for n, quotient, d in itertools.chain(_rings(2000), profiles):
        points = d.n_effective
        divisors = np.flatnonzero(points % np.arange(1, points) == 0) + 1
        assert np.sort(d.divisors)[:-1].dtype == divisors.dtype, (n, quotient)
        assert np.array_equal(np.sort(d.divisors)[:-1], divisors), (n, quotient)
        assert np.array_equal(d._by_gcd(d.divisors), np.gcd(np.arange(points), points)), (n, quotient)


def test_ring_statistics_from_profile_match_dense_pairs():
    # Each separation of a symmetric circulant stands for N/2 unordered
    # pairs, so profile[1:] has the statistics of all pairs, the dense oracle.
    for n, quotient, d in _rings(300):
        pairs = d.offdiagonal()
        raw_even = n % 2 == 0 and not quotient
        distinct = (merge_distinct_values(d.profile[1:]) if raw_even
                    else classify_ring(n, d).distinct_values)
        oracle = merge_distinct_values(pairs)
        assert len(distinct) == len(oracle), (n, quotient)
        assert np.abs(np.subtract(distinct, oracle)).max() <= 1e-14, (n, quotient)
        for statistic in (np.mean, np.min, np.max):
            assert abs(statistic(d.profile[1:]) - statistic(pairs)) <= 1e-14, (n, quotient)
    for policy in ("auto", "never"):
        for n, variance in distance_variance_sweep(3, 300, policy):
            pairs = distance_matrix(RingSpec(n), policy == "auto" and n % 2 == 0).offdiagonal()
            assert abs(variance - np.var(pairs)) <= 1e-14, (n, policy)


def test_variance_sweep_is_np_var_of_the_profile_bit_for_bit():
    for policy in ("auto", "never"):
        for n, variance in distance_variance_sweep(3, 400, policy):
            points = n // 2 if policy == "auto" and n % 2 == 0 else n
            sep = np.arange(1, points)
            profile = distance_profile(n)[np.minimum(sep, n - sep)]
            assert variance == float(np.var(profile)), (n, policy)


def test_variance_sweep_chunks_match_across_block_boundaries(monkeypatch):
    default = {policy: distance_variance_sweep(3, 300, policy) for policy in ("auto", "never")}
    # Rings up to 300 points, many longer than one block.
    monkeypatch.setattr(metric, "BLOCK", 64)
    for policy in ("auto", "never"):
        rows = distance_variance_sweep(3, 300, policy)
        assert rows == default[policy]
        for n, variance in rows:
            points = n // 2 if policy == "auto" and n % 2 == 0 else n
            sep = np.arange(1, points)
            assert variance == float(np.var(distance_profile(n)[np.minimum(sep, n - sep)])), n


def test_zero_distance_pairs_profile_route_matches_dense_scan():
    for n, quotient, d in _rings(200):
        pairs = zero_distance_pairs(d)
        assert np.array_equal(pairs, zero_distance_pairs(DistanceMatrix.from_entries(d.entries)))
        assert len(pairs) == (0 if quotient or n % 2 else n // 2), (n, quotient)
    hand = DistanceMatrix(profile=[0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    expected = [[1, 3], [1, 5], [2, 4], [2, 6], [3, 5], [4, 6]]
    assert (zero_distance_pairs(hand) + 1).tolist() == expected
    assert (zero_distance_pairs(DistanceMatrix.from_entries(hand.entries)) + 1).tolist() == expected


def test_asymptotic_distance_value():
    limit = asymptotic_distance()
    assert limit == pytest.approx(2.0 * math.log(math.pi / 2.0), abs=1e-15)
    assert math.exp(-limit) == pytest.approx((2.0 / math.pi) ** 2, abs=1e-15)


def test_distance_approaches_limit():
    limit = asymptotic_distance()
    err_11 = abs(-2.0 * math.log(sqrt_p_max_closed_form(11, 1)) - limit)
    err_101 = abs(-2.0 * math.log(sqrt_p_max_closed_form(101, 1)) - limit)
    assert err_101 < err_11


def test_variance_sweep_basics():
    rows = distance_variance_sweep(3, 16)
    assert [n for n, _ in rows] == list(range(3, 17))
    by_n = dict(rows)
    assert by_n[5] < 1e-20
    assert by_n[7] < 1e-20
    assert by_n[15] > 1e-6
    assert by_n[9] > 1e-6


def test_variance_sweep_never_policy_keeps_raw_even_rings():
    by_n = dict(distance_variance_sweep(6, 10, quotient_policy="never"))
    # The raw 8-ring mixes a zero antipodal distance with nonzero ones.
    assert by_n[8] > 1e-3


def test_variance_sweep_validation():
    with pytest.raises(InvalidArgs):
        distance_variance_sweep(10, 3)
    with pytest.raises(InvalidArgs):
        distance_variance_sweep(2, 10)
    with pytest.raises(InvalidArgs):
        distance_variance_sweep(3, 10, quotient_policy="sometimes")


def test_transfer_probability_at_time_zero():
    spec = RingSpec(5)
    grid = np.array([0.0])
    assert transfer_probability_time_series(spec, 2, 2, grid)[0] == pytest.approx(
        1.0, abs=1e-12
    )
    assert transfer_probability_time_series(spec, 1, 3, grid)[0] == pytest.approx(
        0.0, abs=1e-12
    )


def test_transfer_probability_hits_bound_on_triangle():
    # For the 3-ring the probability reaches p_max = 4/9 exactly at t = pi/6.
    spec = RingSpec(3)
    value = transfer_probability_time_series(spec, 1, 2, np.array([math.pi / 6.0]))[0]
    assert value == pytest.approx(4.0 / 9.0, abs=1e-12)


def test_transfer_probability_respects_bound():
    spec = RingSpec(5)
    grid = np.linspace(0.0, 25.0, 2001)
    for m in (1, 2):
        series = transfer_probability_time_series(spec, 1, 1 + m, grid)
        assert float(series.max()) <= p_max_closed_form(5, m) + 1e-10


def test_sampled_series_stays_under_the_exact_supremum_bound():
    # The sampled time series is the oracle of verify's exact transfer bound:
    # S^2 = (sum_k |<1|Pi_k|1+m>|)^2 bounds p(t) at every t, and it is the
    # closed-form p_max.
    for n in range(3, 13):
        spec = RingSpec(n)
        sites = 1 + np.arange(1, n // 2 + 1)
        supremum = projector_overlaps(circulant_spectrum(spec), 1, sites).sum(axis=0) ** 2
        grid = np.linspace(0.0, 50.0 / spec.subspace_coupling, 2001)
        series = transfer_probability_time_series(spec, 1, sites, grid)
        for m, bound, column in zip(range(1, n // 2 + 1), supremum, series.T):
            assert float(column.max()) <= bound + 1e-15, (n, m)
            assert abs(bound - p_max_closed_form(n, m)) <= 1e-12, (n, m)


def test_transfer_probability_validation():
    spec = RingSpec(5)
    with pytest.raises(InvalidArgs):
        transfer_probability_time_series(spec, 1, 2, np.array([-1.0]))
    with pytest.raises(IndexOutOfRange):
        transfer_probability_time_series(spec, 0, 2, np.array([0.0]))
    with pytest.raises(IndexOutOfRange):
        transfer_probability_time_series(spec, 1, 6, np.array([0.0]))
    with pytest.raises(IndexOutOfRange):
        transfer_probability_time_series(spec, 1, np.array([2, 6]), np.array([0.0]))
    with pytest.raises(InvalidArgs):
        transfer_probability_time_series(spec, 1, np.array([[2]]), np.array([0.0]))


def test_transfer_probability_site_array_matches_single_sites():
    for n in range(3, 13):
        spec = RingSpec(n)
        grid = np.linspace(0.0, 50.0 / spec.subspace_coupling, 2001)
        sites = np.arange(1, n + 1)
        for i in (1, n):
            series = transfer_probability_time_series(spec, i, sites, grid)
            assert series.shape == (len(grid), n)
            for column, j in enumerate(sites):
                single = transfer_probability_time_series(spec, i, int(j), grid)
                assert single.shape == (len(grid),)
                assert np.array_equal(series[:, column], single), (n, i, j)


def test_transfer_probability_memory_reads_two_rows():
    # The series reads basis rows i and j, not an n x n basis or projector.
    tracemalloc.start()
    try:
        transfer_probability_time_series(
            RingSpec(4000), 1, np.arange(2, 6), np.linspace(0.0, 10.0, 201)
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20, peak


def test_transfer_probability_matches_projector_entries():
    # The closed-form coefficients are the entries of the closed-form projectors.
    grid = np.linspace(0.0, 10.0, 101)
    for n in (3, 4, 9, 12):
        spec = RingSpec(n)
        dec = circulant_spectrum(spec)
        for i, j in ((1, 1), (1, 2), (2, n), (n, 1 + n // 2)):
            coeff = np.array([p[i - 1, j - 1] for p in dec.projectors])
            phases = np.outer(grid, dec.eigenvalues)
            expected = (np.cos(phases) @ coeff) ** 2 + (np.sin(phases) @ coeff) ** 2
            series = transfer_probability_time_series(spec, i, j, grid)
            assert np.array_equal(series, expected), (n, i, j)


def _gathered_profile(n, quotient):
    """A ring's profile from the closed form at q = n / gcd(n, min(s, n - s)), one value per order."""
    sep = np.arange(n // 2 if quotient else n)
    orders, index = np.unique(n // np.gcd(n, np.minimum(sep, n - sep)), return_inverse=True)
    return np.array([metric._distance_by_order(q) for q in orders.tolist()])[index]


def test_class_built_rings_equal_profile_built_bit_for_bit():
    # distance_matrix builds the class table alone; a caller's profile goes
    # through the class-constancy check.  Both give the same table, profile,
    # entries and gcd classes, bit for bit.
    for n, quotient, d in _rings(3000):
        profile = _gathered_profile(n, quotient)
        given = DistanceMatrix(profile=profile)
        assert np.array_equal(d.profile.view(np.int64), profile.view(np.int64)), (n, quotient)
        assert d._factors == given._factors, (n, quotient)
        assert np.array_equal(d.divisors, given.divisors), (n, quotient)
        assert np.array_equal(d.by_class.view(np.int64), given.by_class.view(np.int64)), n
        if n <= 64:
            assert np.array_equal(d.entries, given.entries), (n, quotient)
        for field in ("divisors", "mode_class", "ramanujan", "values", "sums"):
            built, oracle = getattr(d, field), getattr(given, field)
            assert built.dtype == oracle.dtype, (n, quotient, field)
            assert np.array_equal(built.view(np.int64), oracle.view(np.int64)), (n, quotient, field)


def _inverse_matrix_ramanujan(divisors):
    """c_{N/e_b}(e_a) for divisors listed largest first, through the inverse divisibility matrix."""
    divides = divisors % divisors[:, None] == 0
    return (divides.T * divisors) @ np.rint(np.linalg.inv(divides))[:, ::-1]


def test_ramanujan_matrix_from_the_factorization_matches_the_matrix_inverse():
    for n in [*range(1, 400), 720720, 997920]:
        classes = DistanceMatrix(profile=np.log1p(np.gcd(np.arange(n), n) % n))
        oracle = _inverse_matrix_ramanujan(classes.divisors)
        assert np.array_equal(classes.ramanujan, oracle), n


def test_a_ring_decision_reads_no_n_length_array():
    # The quotient metric-check at n = 2^20 decides from 20 classes.
    n = 2**20

    def run():
        d = distance_matrix(RingSpec(n), quotient=True)
        return d, check_metric_axioms(d)

    (d, report), peak = _traced(run)
    assert report.classification is MetricClassification.METRIC and not report.violations
    assert "profile" not in vars(d) and "entries" not in vars(d)
    assert peak <= 2**18, peak
    d = distance_matrix(RingSpec(735134400), quotient=True)
    assert check_metric_axioms(d).classification is MetricClassification.METRIC
    assert len(d.divisors) == 1152 and "profile" not in vars(d)


def _class_triples_brute_force(n):
    """The set of (gcd(a, n), gcd(b, n), gcd(a + b, n)) over all a, b in Z_n."""
    a, b = np.indices((n, n))
    codes = np.unique((np.gcd(a, n) * (n + 1) + np.gcd(b, n)) * (n + 1) + np.gcd((a + b) % n, n))
    return {(code // (n + 1) ** 2, code // (n + 1) % (n + 1), code % (n + 1)) for code in codes.tolist()}


def _class_triples_by_rule(n):
    """The same set from the valuation triples allowed at each prime power of n."""
    found = set()
    factors = metric._factorization(n)
    tables = [metric._valuation_triples(p == 2, k).tolist() for p, k in factors]
    for combination in itertools.product(*tables):
        found.add(tuple(math.prod(p ** triple[slot] for (p, _), triple in zip(factors, combination))
                        for slot in range(3)))
    return found


def test_valuation_triples_match_brute_force():
    for n in range(1, 300):
        assert _class_triples_by_rule(n) == _class_triples_brute_force(n), n


def test_class_triangle_check_matches_the_row_loop_on_rings(monkeypatch):
    for n, quotient, d in _rings(1500):
        assert _class_triangle_ok(d) == _circulant_triangle_ok(d), (n, quotient)
    # Blocks of a few triples: the class triples checked a slice at a time.
    monkeypatch.setattr(metric, "BLOCK", 5)
    for n, quotient, d in _rings(200):
        assert _class_triangle_ok(d) == _circulant_triangle_ok(d), (n, quotient)


@pytest.mark.parametrize("block", [BLOCK, 7])
def test_class_triangle_check_matches_row_loop_and_dense_on_random_profiles(monkeypatch, block):
    # Class values in [1, 2] pass; a redrawn class in [1, 3.75] fails in about
    # a quarter of the profiles, and so does a perturbation of a passing one.
    monkeypatch.setattr(metric, "BLOCK", block)
    rng = np.random.default_rng(31)
    verdicts = []
    for _ in range(1500):
        n = int(rng.integers(1, 400))
        sep = np.arange(n)
        gcd = np.gcd(sep, n)
        by_class = rng.uniform(1.0, 2.0, n + 1)
        by_class[n] = 0.0
        if n > 1:
            by_class[rng.choice(sep[gcd == sep])] = rng.uniform(1.0, 3.75)
        for profile in (by_class[gcd], np.where(gcd == gcd[-1], 2.5, by_class[gcd])):
            profile[0] = 0.0
            space = DistanceMatrix(profile=profile)
            verdicts.append(_class_triangle_ok(space))
            assert verdicts[-1] == _circulant_triangle_ok(space), profile
            if n <= 40:
                dense = check_metric_axioms(DistanceMatrix(space.entries))
                assert verdicts[-1] == dense.triangle_ok, profile
                assert check_metric_axioms(space) == dense, profile
    assert 0.15 < verdicts.count(False) / len(verdicts) < 0.6


def _split_means(values):
    """The group means by np.split and np.mean, the oracle of merge_distinct_values."""
    ordered = np.sort(values)
    cuts = np.flatnonzero(np.diff(ordered) > metric.DISTINCT_VALUE_TOL) + 1
    return tuple(float(np.mean(group)) for group in np.split(ordered, cuts))


def test_merge_distinct_values_is_np_mean_of_each_group_bit_for_bit():
    def bits(values):
        return np.array(values).view(np.int64).tolist()

    for n in range(3, 2001):
        profile = distance_matrix(RingSpec(n), n % 2 == 0).profile[1:]
        assert bits(merge_distinct_values(profile)) == bits(_split_means(profile)), n
    rng = np.random.default_rng(4)
    for _ in range(2000):
        size = int(rng.integers(1, 3000))
        values = rng.choice(rng.uniform(0.0, 3.0, int(rng.integers(1, 12))), size)
        values = values + rng.choice([0.0, 3e-11, -4e-11, 1e-9], size) * (rng.random() < 0.5)
        values[rng.random(size) < 0.05] = rng.choice([0.0, -0.0])
        assert bits(merge_distinct_values(values)) == bits(_split_means(values)), values


def test_classify_ring_refuses_a_matrix_of_another_ring():
    for n, d in ((7, distance_matrix(RingSpec(12), True)), (7, distance_matrix(RingSpec(8))),
                 (12, distance_matrix(RingSpec(12))), (12, distance_matrix(RingSpec(7))),
                 (10, distance_matrix(RingSpec(12), True))):
        with pytest.raises(InvalidArgs, match="points of ring"):
            classify_ring(n, d)
    assert classify_ring(7, distance_matrix(RingSpec(7))).kind is RingKind.PRIME
    assert classify_ring(12, distance_matrix(RingSpec(12), True)).kind is RingKind.TWICE_COMPOSITE
