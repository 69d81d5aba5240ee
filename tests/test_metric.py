import math
import tracemalloc

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
from spinring.metric import BLOCK, SAMPLE_CHUNK, TRIANGLE_TOL, _circulant_triangle_ok, _windows


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
        ([0.0, 1.0, 3.0, 3.0, 1.0], MetricClassification.NOT_SEMI_METRIC),
        # Zeros at separation 2 and 4, not at the antipode 3.
        ([0.0, 1.0, 0.0, 1.0, 0.0, 1.0], MetricClassification.NOT_SEMI_METRIC),
        # Antipodal zeros only.
        ([0.0, 1.0, 1.0, 0.0, 1.0, 1.0], MetricClassification.SEMI_METRIC_ANTIPODAL),
        # Not symmetric; its only triangle violations have a, b > N/2.
        ([0.0, 2.0, 2.0, 3.0, 1.0], MetricClassification.NOT_SEMI_METRIC),
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


def test_metric_axioms_profile_route_matches_dense_oracle_on_random_profiles():
    rng = np.random.default_rng(5)
    for _ in range(300):
        points = int(rng.integers(1, 9))
        profile = rng.integers(0, 4, points).astype(float)
        if rng.random() < 0.5:
            profile = np.maximum(profile, profile[-np.arange(points)])
        profile[0] = 0.0 if rng.random() < 0.9 else 1.0
        space = DistanceMatrix(profile=profile)
        dense = DistanceMatrix(space.entries)
        assert check_metric_axioms(space) == check_metric_axioms(dense), profile


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
        assert _circulant_triangle_ok(d.profile) == _all_rows_triangle_ok(d.profile), (n, quotient)


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
        verdicts.append(_circulant_triangle_ok(profile))
        assert verdicts[-1] == _all_rows_triangle_ok(profile), profile
    assert 0.15 < verdicts.count(False) / len(verdicts) < 0.35


def test_divisor_rows_leave_other_circulants_on_all_rows():
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
            verdicts.append(_circulant_triangle_ok(profile))
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


def test_classify_ring_kinds():
    for n, kind, uniform in (
        (11, RingKind.PRIME, True),
        (10, RingKind.TWICE_PRIME, True),
        (15, RingKind.ODD_COMPOSITE, False),
        (12, RingKind.TWICE_COMPOSITE, False),
    ):
        quotient = n % 2 == 0
        cls = classify_ring(n, distance_matrix(RingSpec(n), quotient=quotient))
        assert cls.kind is kind, n
        assert cls.uniform is uniform, n
        if not uniform:
            assert len(cls.distinct_values) >= 2


def test_classify_ring_needs_a_profile():
    entries = distance_matrix(RingSpec(9)).entries
    with pytest.raises(InvalidArgs, match="profile"):
        classify_ring(9, DistanceMatrix.from_entries(entries))


def _rings(n_max):
    """(n, quotient, distance matrix) for every ring n = 3..n_max, raw and quotiented."""
    for n in range(3, n_max + 1):
        for quotient in (False, True) if n % 2 == 0 else (False,):
            yield n, quotient, distance_matrix(RingSpec(n), quotient)


def test_ring_statistics_from_profile_match_dense_pairs():
    # Each separation of a symmetric circulant stands for N/2 unordered
    # pairs, so profile[1:] has the statistics of all pairs, the dense oracle.
    for n, quotient, d in _rings(300):
        pairs = d.offdiagonal()
        distinct = classify_ring(n, d).distinct_values
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
