import logging
import math
import tracemalloc

import numpy as np
import pytest

from spinring import (
    Coupling,
    DenseSymmetricMatrix,
    IndexOutOfRange,
    NoConvergence,
    RingSpec,
    SpectralSource,
    build_single_excitation_hamiltonian,
    circulant_spectrum,
    jacobi_eigh,
    jacobi_eigh_many,
    numerical_spectra,
    numerical_spectrum,
    projector_overlaps,
)
from spinring.spectral import _grouped, circulant_eigenspaces, eigenspace_entries, hartley_rows


def test_circulant_spectrum_n3():
    dec = circulant_spectrum(RingSpec(3))
    assert np.allclose(dec.eigenvalues, [-2.0, 4.0], atol=1e-12)
    assert list(dec.multiplicities) == [2, 1]
    assert dec.source is SpectralSource.CLOSED_FORM


def test_circulant_spectrum_n4():
    dec = circulant_spectrum(RingSpec(4))
    assert np.allclose(dec.eigenvalues, [-4.0, 0.0, 4.0], atol=1e-12)
    assert list(dec.multiplicities) == [1, 2, 1]


def test_multiplicity_pattern():
    # Odd n: one simple mode (k=0); even n adds a second simple mode (k=n/2).
    for n, expected in ((5, [2, 2, 1]), (8, [1, 2, 2, 2, 1]), (9, [2, 2, 2, 2, 1])):
        dec = circulant_spectrum(RingSpec(n))
        assert list(dec.multiplicities) == expected, n
        assert int(dec.multiplicities.sum()) == n


def cosine_projector_entries(n, modes, diff):
    """Closed-form entries of the projector onto the given modes of an n-cycle, by separation."""
    total = np.zeros(diff.shape)
    for k in modes:
        if k == 0:
            total += 1.0 / n
        elif 2 * k == n:
            total += ((-1.0) ** diff) / n
        else:
            total += (2.0 / n) * np.cos(2.0 * math.pi * k * diff / n)
    return total


def test_closed_form_projectors_match_cosine_formula():
    for n in range(3, 65):
        diff = np.subtract.outer(np.arange(n), np.arange(n))
        for coupling in (Coupling.XX, Coupling.HEISENBERG):
            spec = RingSpec(n, coupling)
            dec = circulant_spectrum(spec)
            _, _, order = circulant_eigenspaces(spec)
            modes = np.minimum(order, n - order)
            starts = np.cumsum(dec.multiplicities) - dec.multiplicities
            for start, count, proj in zip(starts, dec.multiplicities, dec.projectors):
                expected = cosine_projector_entries(n, set(modes[start:start + count]), diff)
                assert np.abs(proj - expected).max() <= 1e-14, (n, coupling)


def test_hartley_row_subsets_match_all_rows():
    rng = np.random.default_rng(11)
    for n in range(1, 301):
        full = hartley_rows(n, np.arange(n))
        for size in (1, 2, max(1, n // 3)):
            rows = rng.choice(n, size=min(size, n), replace=False)
            assert np.array_equal(hartley_rows(n, rows), full[rows]), n


def test_circulant_spectrum_memory_is_quadratic():
    # One n x n basis and a few temporaries, not n/2 + 1 dense projectors.
    n = 300
    tracemalloc.start()
    try:
        circulant_spectrum(RingSpec(n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * n * n * 8, peak


def test_closed_form_grouping_merges_extreme_modes(caplog):
    # Near the cosine's extremes, adjacent modes fall within 1e-8 x spread of
    # each other from n = 31 416: k = 1 joins k = 0 and, for even n,
    # k = n/2 - 1 joins k = n/2.  The eigenvalue-only route builds no basis.
    with caplog.at_level(logging.INFO, logger="spinring.spectral"):
        eigenvalues, multiplicities, order = circulant_eigenspaces(RingSpec(31500))
    assert len(eigenvalues) == 15749
    assert int(multiplicities.max()) == 3
    assert int(multiplicities.sum()) == 31500
    assert sorted(order.tolist()) == list(range(31500))
    assert np.all(np.diff(eigenvalues) > 0)
    assert sum("merging cosine-coincident modes" in r.getMessage() for r in caplog.records) == 2
    _, multiplicities, _ = circulant_eigenspaces(RingSpec(31400))
    assert int(multiplicities.max()) == 2


def check_resolution(dec, matrix):
    n = dec.n
    total = np.zeros((n, n))
    recon = np.zeros((n, n))
    for lam, proj in zip(dec.eigenvalues, dec.projectors):
        assert np.abs(proj - proj.T).max() <= 1e-12
        assert np.abs(proj @ proj - proj).max() <= 1e-10
        total += proj
        recon += lam * proj
    assert np.abs(total - np.eye(n)).max() <= 1e-10
    assert np.abs(recon - matrix).max() <= 1e-10
    for a in range(len(dec.projectors)):
        trace = float(np.trace(dec.projectors[a]))
        assert abs(trace - dec.multiplicities[a]) <= 1e-10
        for b in range(a + 1, len(dec.projectors)):
            cross = dec.projectors[a] @ dec.projectors[b]
            assert np.abs(cross).max() <= 1e-10


def test_projector_invariants_closed_form():
    for n in range(3, 13):
        spec = RingSpec(n, Coupling.HEISENBERG)
        dec = circulant_spectrum(spec)
        check_resolution(dec, build_single_excitation_hamiltonian(spec).entries)


def test_projector_invariants_numerical():
    for n in (3, 4, 6, 9):
        spec = RingSpec(n)
        matrix = build_single_excitation_hamiltonian(spec)
        dec = numerical_spectrum(matrix)
        assert dec.source is SpectralSource.NUMERICAL_SOLVER
        check_resolution(dec, matrix.entries)


def test_closed_form_matches_numerical():
    for n in (5, 7, 8, 12):
        spec = RingSpec(n, Coupling.HEISENBERG)
        closed = circulant_spectrum(spec)
        numeric = numerical_spectrum(build_single_excitation_hamiltonian(spec))
        assert list(closed.multiplicities) == list(numeric.multiplicities)
        assert np.abs(closed.eigenvalues - numeric.eigenvalues).max() <= 1e-10
        for p_closed, p_numeric in zip(closed.projectors, numeric.projectors):
            assert np.abs(p_closed - p_numeric).max() <= 1e-8


def test_numerical_spectrum_identity():
    dec = numerical_spectrum(DenseSymmetricMatrix(3, np.eye(3)))
    assert len(dec.eigenvalues) == 1
    assert dec.eigenvalues[0] == pytest.approx(1.0)
    assert dec.multiplicities[0] == 3
    assert np.abs(dec.projectors[0] - np.eye(3)).max() <= 1e-12


def test_numerical_spectrum_distinct_diagonal():
    dec = numerical_spectrum(DenseSymmetricMatrix(3, np.diag([1.0, 2.0, 3.0])))
    assert np.allclose(dec.eigenvalues, [1.0, 2.0, 3.0], atol=1e-12)
    assert list(dec.multiplicities) == [1, 1, 1]
    for k, proj in enumerate(dec.projectors):
        expected = np.zeros((3, 3))
        expected[k, k] = 1.0
        assert np.abs(proj - expected).max() <= 1e-12


def test_jacobi_against_library_solver():
    rng = np.random.default_rng(7)
    matrices = []
    for n in (3, 5, 7, 12, 15, 30, 31, 64):
        base = rng.standard_normal((n, n))
        matrices.append(0.5 * (base + base.T))
    # Degenerate spectrum: every mode but two is a double eigenvalue.
    matrices.append(build_single_excitation_hamiltonian(RingSpec(64)).entries)
    # 16 shares its padded size with 15, as the degenerate block shares 64's.
    base = rng.standard_normal((16, 16))
    matrices.append(0.5 * (base + base.T))
    stacked = jacobi_eigh_many(matrices)
    assert len(stacked) == len(matrices)
    for matrix, stacked_pair in zip(matrices, stacked):
        n = matrix.shape[0]
        reference = np.linalg.eigvalsh(matrix)
        scale = max(1.0, float(np.abs(reference).max()))
        for w, v in (jacobi_eigh(matrix), stacked_pair):
            assert w.shape == (n,) and v.shape == (n, n), n
            assert np.abs(w - reference).max() <= 1e-10 * scale, n
            assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-12, n
            assert np.abs(v @ np.diag(w) @ v.T - matrix).max() <= 1e-11 * scale, n


def test_jacobi_no_convergence():
    matrix = build_single_excitation_hamiltonian(RingSpec(5)).entries
    with pytest.raises(NoConvergence):
        jacobi_eigh(matrix, max_sweeps=0)
    stack = [build_single_excitation_hamiltonian(RingSpec(n)).entries for n in (5, 6, 9)]
    with pytest.raises(NoConvergence):
        jacobi_eigh_many(stack, max_sweeps=0)


def test_numerical_spectra_match_single_spectra():
    matrices = [
        build_single_excitation_hamiltonian(RingSpec(n, coupling))
        for coupling in (Coupling.XX, Coupling.HEISENBERG)
        for n in range(3, 21)
    ]
    matrices.append(DenseSymmetricMatrix(3, np.eye(3)))
    stacked = numerical_spectra(matrices)
    assert len(stacked) == len(matrices)
    for matrix, dec in zip(matrices, stacked):
        single = numerical_spectrum(matrix)
        assert dec.source is SpectralSource.NUMERICAL_SOLVER
        assert dec.n == matrix.dim
        assert list(dec.multiplicities) == list(single.multiplicities), matrix.dim
        assert np.abs(dec.eigenvalues - single.eigenvalues).max() <= 1e-12, matrix.dim


def test_numerical_spectra_match_the_jacobi_oracle_on_verify_blocks():
    # The blocks verify decomposes: n = 3..64, both couplings.  LAPACK and the
    # round-robin Jacobi oracle agree on the multiplicities, the eigenvalues
    # and the projector entries of site 1 against every site.
    blocks = [build_single_excitation_hamiltonian(RingSpec(n, coupling))
              for coupling in (Coupling.XX, Coupling.HEISENBERG) for n in range(3, 65)]
    oracle = jacobi_eigh_many([block.entries for block in blocks])
    for block, dec, (w, v) in zip(blocks, numerical_spectra(blocks), oracle):
        eigenvalues, multiplicities = _grouped(w)
        scale = float(np.abs(w).max())
        assert list(dec.multiplicities) == list(multiplicities), block.dim
        assert np.abs(dec.eigenvalues - eigenvalues).max() <= 1e-12 * scale, block.dim
        entries = eigenspace_entries(dec.basis[0], dec.basis, dec.multiplicities)
        expected = eigenspace_entries(v[0], v, multiplicities)
        assert np.abs(entries - expected).max() <= 1e-12 * scale, block.dim


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_numerical_spectrum_rejects_non_finite_entries(value):
    entries = np.eye(4)
    entries[0, 1] = entries[1, 0] = value
    with pytest.raises(NoConvergence, match="non-finite"):
        numerical_spectrum(DenseSymmetricMatrix(4, entries))


def test_numerical_spectra_report_a_lapack_failure_as_no_convergence(monkeypatch):
    def fail(stack):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NoConvergence, match="did not converge"):
        numerical_spectrum(DenseSymmetricMatrix(3, np.eye(3)))


def test_projector_overlaps_uniform_mode():
    # The k=0 projector is constant 1/n, and it carries the top eigenvalue.
    for n in (4, 5, 9):
        dec = circulant_spectrum(RingSpec(n))
        overlaps = projector_overlaps(dec, 1, 2)
        assert overlaps[-1] == pytest.approx(1.0 / n, abs=1e-14)


def test_projector_overlaps_n5():
    dec = circulant_spectrum(RingSpec(5))
    overlaps = projector_overlaps(dec, 1, 2)
    expected = sorted(
        (2.0 / 5.0) * abs(np.cos(2.0 * np.pi * k / 5.0)) for k in (1, 2)
    )
    # Ascending eigenvalue order puts k=2 first, then k=1, then k=0.
    assert overlaps[0] == pytest.approx(expected[1], abs=1e-14)
    assert overlaps[1] == pytest.approx(expected[0], abs=1e-14)
    assert overlaps[2] == pytest.approx(0.2, abs=1e-14)


def test_projector_overlaps_same_site_sum_to_one():
    for n in (3, 6, 11):
        dec = circulant_spectrum(RingSpec(n))
        for site in (1, n):
            assert float(projector_overlaps(dec, site, site).sum()) == pytest.approx(
                1.0, abs=1e-12
            )


def test_projector_overlaps_index_validation():
    dec = circulant_spectrum(RingSpec(5))
    with pytest.raises(IndexOutOfRange):
        projector_overlaps(dec, 0, 1)
    with pytest.raises(IndexOutOfRange):
        projector_overlaps(dec, 1, 6)
    with pytest.raises(IndexOutOfRange):
        projector_overlaps(dec, 1, np.array([2, 6]))
