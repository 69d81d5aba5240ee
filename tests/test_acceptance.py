"""Acceptance gate: one test per release criterion, tolerances pinned.

Each test prints a single CRITERION line on success so the gate can be read
off a verbose run directly.  Expected values were fixed from independent
oracle computations (direct determinants, library eigensolvers, closed-form
sums) before being frozen here.
"""

import math
import time

import numpy as np

from spinring import (
    Coupling,
    MetricClassification,
    RingSpec,
    build_single_excitation_hamiltonian,
    check_metric_axioms,
    distance_matrix,
    distance_variance_sweep,
    embeddable_spherical,
    kappa_max,
    merge_distinct_values,
    numerical_spectrum,
    p_max,
    p_max_closed_form,
    realize,
    spherical_feasibility_threshold,
    sqrt_p_max_closed_form,
    toeplitz_eigenvalues,
    toeplitz_minor_closed_form,
    toeplitz_minor_recursion,
    transfer_probability_time_series,
    verify_subspace_restriction,
)
from spinring import DistanceMatrix, EmbeddingSpace, cayley_menger_minors

LIMIT = 2.0 * math.log(math.pi / 2.0)


def is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def numerical_distance_matrix(spec):
    """Distance matrix built entirely through the numerical eigensolver route."""
    dec = numerical_spectrum(build_single_excitation_hamiltonian(spec))
    total = np.zeros((spec.n, spec.n))
    for proj in dec.projectors:
        total += np.abs(proj)
    prob = np.minimum(total * total, 1.0)
    dist = np.maximum(-np.log(prob), 0.0)
    np.fill_diagonal(dist, 0.0)
    return dist


def test_criterion_01_asymptotic_limit():
    start = time.perf_counter()
    errors = []
    for n in (101, 1009, 10007):
        d = -2.0 * math.log(sqrt_p_max_closed_form(n, 1))
        errors.append(abs(d - LIMIT))
    elapsed = time.perf_counter() - start
    assert errors[2] <= 5e-3
    assert errors[0] > errors[1] > errors[2]
    assert elapsed < 1.0
    print("CRITERION 1 PASS: closed-form d_n(1,2) approaches 2 log(pi/2), "
          f"error {errors[2]:.3e} at n=10007 in {elapsed:.3f}s")


def test_criterion_02_uniformity():
    start = time.perf_counter()
    for n in (n for n in range(3, 200) if is_prime(n)):
        values = distance_matrix(RingSpec(n)).offdiagonal()
        assert values.max() - values.min() < 1e-10, n
    for p in (p for p in range(3, 100) if is_prime(p) and 2 * p <= 199):
        values = distance_matrix(RingSpec(2 * p), quotient=True).offdiagonal()
        assert values.max() - values.min() < 1e-10, 2 * p
    for n in (9, 15, 21, 25, 27):
        distinct = merge_distinct_values(distance_matrix(RingSpec(n)).offdiagonal())
        assert len(distinct) >= 2, n
        assert max(distinct) - min(distinct) > 1e-4, n
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print("CRITERION 2 PASS: uniform distances at primes and 2p (quotient), "
          f"distinct values at odd composites, in {elapsed:.3f}s")


def test_criterion_03_metric_axioms():
    start = time.perf_counter()
    for n in range(3, 100, 2):
        report = check_metric_axioms(distance_matrix(RingSpec(n)))
        assert report.exhaustive, n
        assert report.classification is MetricClassification.METRIC, n
    for n in range(4, 99, 2):
        raw = check_metric_axioms(distance_matrix(RingSpec(n)))
        assert raw.classification is MetricClassification.SEMI_METRIC_ANTIPODAL, n
        pairs = sorted(v.sites for v in raw.violations if v.kind == "separation")
        assert pairs == [(i, i + n // 2) for i in range(1, n // 2 + 1)], n
        quotient = check_metric_axioms(distance_matrix(RingSpec(n), quotient=True))
        assert quotient.classification is MetricClassification.METRIC, n
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print("CRITERION 3 PASS: metric axioms for odd n<=99, antipodal-only "
          f"separation failures and clean quotients for even n<=98, in {elapsed:.3f}s")


def test_criterion_04_coupling_equivalence():
    worst = 0.0
    for n in range(3, 65):
        d_xx = numerical_distance_matrix(RingSpec(n, Coupling.XX))
        d_heis = numerical_distance_matrix(RingSpec(n, Coupling.HEISENBERG))
        worst = max(worst, float(np.abs(d_xx - d_heis).max()))
    assert worst <= 1e-10
    for n in range(3, 11):
        for coupling in (Coupling.XX, Coupling.HEISENBERG):
            deviation = verify_subspace_restriction(RingSpec(n, coupling))
            assert deviation <= 1e-12, (n, coupling)
    print("CRITERION 4 PASS: XX and Heisenberg distances agree "
          f"(worst {worst:.3e}) and full-space restrictions verify for n<=10")


def test_criterion_05_oracle_equivalence():
    worst = 0.0
    for n in range(3, 65):
        dec = numerical_spectrum(build_single_excitation_hamiltonian(RingSpec(n)))
        for m in range(1, n // 2 + 1):
            gap = abs(p_max(dec, 1, 1 + m) - p_max_closed_form(n, m))
            worst = max(worst, gap)
    assert worst <= 1e-9
    print("CRITERION 5 PASS: closed-form p_max matches the numerical (LAPACK) "
          f"projector route for n=3..64 (worst {worst:.3e})")


def test_criterion_06_time_domain_bound():
    overshoot = -math.inf
    for n in (3, 4, 5, 7, 8):
        spec = RingSpec(n)
        grid = np.linspace(0.0, 50.0 / spec.subspace_coupling, 10**4)
        for m in range(1, n // 2 + 1):
            series = transfer_probability_time_series(spec, 1, 1 + m, grid)
            overshoot = max(overshoot, float(series.max()) - p_max_closed_form(n, m))
    assert overshoot <= 1e-10
    spec = RingSpec(3)
    peak_time = math.pi / (3.0 * spec.subspace_coupling)
    window = np.linspace(0.9 * peak_time, 1.1 * peak_time, 10**4)
    peak = float(transfer_probability_time_series(spec, 1, 2, window).max())
    assert peak >= 0.999 * (4.0 / 9.0)
    print("CRITERION 6 PASS: p(t) never exceeds p_max "
          f"(max overshoot {overshoot:.3e}) and the 3-ring reaches "
          f"{peak:.9f} near t=pi/(3h)")


def test_criterion_07_toeplitz_minors_and_eigenvalues():
    for c in (-0.9, -0.25, 0.0, 0.3, 0.5, 0.99):
        recursion = toeplitz_minor_recursion(12, c)
        for k in range(1, 13):
            matrix = np.full((k, k), c)
            np.fill_diagonal(matrix, 1.0)
            direct = float(np.linalg.det(matrix))
            for value in (toeplitz_minor_closed_form(k, c), recursion[k - 1]):
                assert abs(value - direct) <= max(1e-10 * abs(direct), 1e-14), (k, c)
    for c in (-0.25, 0.5):
        for n in (2, 3, 4, 8, 16, 32):
            simple, repeated, mult = toeplitz_eigenvalues(n, c)
            expected = np.sort(np.array([simple] + [repeated] * mult))
            matrix = np.full((n, n), c)
            np.fill_diagonal(matrix, 1.0)
            dec = numerical_spectrum(matrix)
            observed = np.sort(np.repeat(dec.eigenvalues, dec.multiplicities))
            assert np.abs(expected - observed).max() <= 1e-9, (n, c)
    print("CRITERION 7 PASS: Toeplitz minors agree across closed form, "
          "recursion and determinants (k<=12), eigenvalues match the solver (n<=32)")


def test_criterion_08_cayley_menger_signs_and_recursion():
    for d in (0.5, 1.0, 2.0):
        recursion = cayley_menger_minors(d, 10)
        for k in range(2, 11):
            cm = np.zeros((k + 1, k + 1))
            cm[0, 1:] = 1.0
            cm[1:, 0] = 1.0
            cm[1:, 1:] = d * d * (np.ones((k, k)) - np.eye(k))
            direct = float(np.linalg.det(cm))
            assert np.sign(direct) == (-1.0) ** k, (k, d)
            if k >= 4:
                assert abs(recursion[k - 2] - direct) <= 1e-10 * abs(direct), (k, d)
    print("CRITERION 8 PASS: Cayley-Menger minors alternate as (-1)^k for "
          "d in {0.5, 1, 2} up to k=10 and the recursion matches determinants")


def test_criterion_09_spherical_boundary_localization():
    for n in range(3, 11):
        w = 1.0
        uniform = DistanceMatrix.from_entries(w * (np.ones((n, n)) - np.eye(n)))
        boundary = kappa_max(n, w)
        threshold = spherical_feasibility_threshold(uniform)
        assert abs(threshold.kappa - boundary) <= 1e-9 * boundary, n
        assert embeddable_spherical(uniform, threshold.kappa).rank == n - 1, n
    print("CRITERION 9 PASS: the sweep search localizes the spherical feasibility "
          "threshold to kappa_max within 1e-9 relative, Gram rank n-1 there")


def test_criterion_10_realization_round_trip():
    d5 = distance_matrix(RingSpec(5))
    w5 = d5.entries[0, 1]
    spherical = realize(d5, EmbeddingSpace.SPHERICAL, kappa_max(5, w5))
    assert spherical.ambient_dim == 4
    assert spherical.max_distortion < 1e-8

    d10 = distance_matrix(RingSpec(10), quotient=True)
    assert np.abs(d10.entries - d5.entries).max() <= 1e-12
    quotient = realize(d10, EmbeddingSpace.SPHERICAL, kappa_max(5, d10.entries[0, 1]))
    assert quotient.ambient_dim == 4
    assert quotient.max_distortion < 1e-8

    simplex = realize(distance_matrix(RingSpec(7)), EmbeddingSpace.EUCLIDEAN)
    assert simplex.ambient_dim == 6
    assert simplex.max_distortion < 1e-8
    print("CRITERION 10 PASS: n=5 realizes on S^3 (ambient 4), the n=10 "
          "quotient reproduces it, and n=7 realizes as a regular 6-simplex")


def test_criterion_11_variance_sweep_reproduction():
    rows = dict(distance_variance_sweep(3, 200))
    composite_rows = {}
    for n, variance in rows.items():
        if n % 2 == 0:
            uniform_expected = is_prime(n // 2)
        else:
            uniform_expected = is_prime(n)
        if uniform_expected:
            assert variance < 1e-20, n
        else:
            assert variance > 1e-12, n
            composite_rows[n] = variance
    late = max(v for n, v in composite_rows.items() if n >= 100)
    early = max(v for n, v in composite_rows.items() if n < 50)
    assert late < early
    print("CRITERION 11 PASS: variance vanishes at primes and 2p, stays "
          f"positive at composites, and decays ({early:.3e} -> {late:.3e})")
