import logging
import math
import tracemalloc

import numpy as np
import pytest

from spinring import (
    Coupling,
    IndexOutOfRange,
    InvalidSpec,
    NoConvergence,
    RingSpec,
    build_single_excitation_blocks,
    build_single_excitation_hamiltonian,
    circulant_spectrum,
    jacobi_eigh,
    numerical_spectra,
    numerical_spectrum,
    p_max_closed_form,
    projector_overlaps,
)
from spinring.spectral import circulant_eigenspaces, eigenspace_entries, hartley_rows


def test_circulant_spectrum_n3():
    dec = circulant_spectrum(RingSpec(3))
    assert np.allclose(dec.eigenvalues, [-2.0, 4.0], atol=1e-12)
    assert list(dec.multiplicities) == [2, 1]


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
            _, _, order = circulant_eigenspaces([n], [1.0], [coupling.epsilon])
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


def test_closed_form_grouping_is_by_mode(caplog):
    # Adjacent modes at the cosine's extremes lie within 1e-8 x spread of each
    # other from n = 31 416 on, yet each mode keeps its own eigenspace.  The
    # eigenvalue-only route builds no basis.
    with caplog.at_level(logging.INFO, logger="spinring.spectral"):
        eigenvalues, multiplicities, order = circulant_eigenspaces([31500], [1.0], [0.0])
    assert len(eigenvalues) == 15751
    assert int(multiplicities.max()) == 2
    assert int(multiplicities.sum()) == 31500
    assert sorted(order.tolist()) == list(range(31500))
    assert np.all(np.diff(eigenvalues) > 0)
    assert not caplog.records


def test_circulant_eigenspaces_batch_equals_batches_of_one():
    specs = [RingSpec(n, coupling, strength)
             for n in (3, 4, 5, 8, 13, 64, 31, 3, 100)
             for coupling in (Coupling.XX, Coupling.HEISENBERG) for strength in (1.0, 0.7)]
    batch = circulant_eigenspaces([spec.n for spec in specs], [spec.strength for spec in specs],
                                  [spec.coupling.epsilon for spec in specs])
    singles = [circulant_eigenspaces([spec.n], [spec.strength], [spec.coupling.epsilon])
               for spec in specs]
    for batched, single in zip(batch, zip(*singles)):
        expected = np.concatenate(single)
        assert batched.dtype == expected.dtype
        assert np.array_equal(batched, expected)
    for spec, (eigenvalues, multiplicities, order) in zip(specs, singles):
        assert len(eigenvalues) == len(multiplicities) == spec.n // 2 + 1
        assert sorted(order.tolist()) == list(range(spec.n))
        reference = np.linalg.eigvalsh(build_single_excitation_hamiltonian(spec))
        gap = np.repeat(eigenvalues, multiplicities) - reference
        assert np.abs(gap).max() <= 1e-12 * max(1.0, float(np.abs(reference).max())), spec


def test_closed_form_eigenspace_p_max_matches_closed_form_at_large_n():
    # A merged pair of modes would turn |a| + |b| into |a + b| in the sum.
    for n in (31416, 40000):
        m = n // 3
        _, multiplicities, order = circulant_eigenspaces([n], [1.0], [0.0])
        row_1, row_m = hartley_rows(n, [0, m])[:, order]
        total = np.abs(eigenspace_entries(row_1, row_m, multiplicities)).sum()
        assert abs(total * total - p_max_closed_form(n, m)) <= 1e-12, n


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
        check_resolution(dec, build_single_excitation_hamiltonian(spec))


def test_projector_invariants_numerical():
    for n in (3, 4, 6, 9):
        spec = RingSpec(n)
        matrix = build_single_excitation_hamiltonian(spec)
        check_resolution(numerical_spectrum(matrix), matrix)


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
    dec = numerical_spectrum(np.eye(3))
    assert len(dec.eigenvalues) == 1
    assert dec.eigenvalues[0] == pytest.approx(1.0)
    assert dec.multiplicities[0] == 3
    assert np.abs(dec.projectors[0] - np.eye(3)).max() <= 1e-12


def test_numerical_spectrum_distinct_diagonal():
    dec = numerical_spectrum(np.diag([1.0, 2.0, 3.0]))
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
    matrices.append(build_single_excitation_hamiltonian(RingSpec(64)))
    # 16 shares its padded size with 15, as the degenerate block shares 64's.
    base = rng.standard_normal((16, 16))
    matrices.append(0.5 * (base + base.T))
    for matrix in matrices:
        n = matrix.shape[0]
        reference = np.linalg.eigvalsh(matrix)
        scale = max(1.0, float(np.abs(reference).max()))
        w, v = jacobi_eigh(matrix)
        assert w.shape == (n,) and v.shape == (n, n), n
        assert np.abs(w - reference).max() <= 1e-10 * scale, n
        assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-12, n
        assert np.abs(v @ np.diag(w) @ v.T - matrix).max() <= 1e-11 * scale, n


def test_jacobi_no_convergence():
    matrix = build_single_excitation_hamiltonian(RingSpec(5))
    with pytest.raises(NoConvergence):
        jacobi_eigh(matrix, max_sweeps=0)
    for n in (6, 9):
        with pytest.raises(NoConvergence):
            jacobi_eigh(build_single_excitation_hamiltonian(RingSpec(n)), max_sweeps=0)


def _grouped(w: np.ndarray):
    """The per-matrix grouping ``numerical_spectra`` replaced, kept as the oracle of its flat pass.

    Distinct values and multiplicities of one ascending spectrum w: a group
    ends wherever the gap to the next value exceeds 1e-8 times the spread
    w[-1] - w[0], and each distinct value is the mean of its group.
    """
    tol = 1e-8 * float(w[-1] - w[0])
    starts = np.flatnonzero(np.concatenate(([True], w[1:] - w[:-1] > tol)))
    multiplicities = np.diff(np.append(starts, len(w)))
    return np.add.reduceat(w, starts) / multiplicities, multiplicities


def _stacked(matrices):
    """Square matrices of any sizes as a zero-padded (matrices, B, B) stack and their sizes."""
    sizes = [len(matrix) for matrix in matrices]
    stack = np.zeros((len(matrices), max(sizes), max(sizes)), np.result_type(*matrices))
    for slab, matrix in zip(stack, matrices):
        slab[:len(matrix), :len(matrix)] = matrix
    return stack, sizes


def _per_matrix(spectra, sizes):
    """The flat ``numerical_spectra`` arrays as (eigenvalues, multiplicities, basis) per matrix."""
    eigenvalues, multiplicities, vectors = spectra
    ends = np.cumsum(sizes)
    # No eigenspace spans two matrices.
    assert np.isin(ends, np.cumsum(multiplicities)).all()
    cuts = np.searchsorted(np.cumsum(multiplicities), ends[:-1]) + 1
    bases = np.split(vectors, np.cumsum(np.square(sizes))[:-1])
    assert len(vectors) == int(np.square(sizes).sum())
    return [(w, m, v.reshape(n, n)) for n, w, m, v in zip(sizes, np.split(eigenvalues, cuts),
                                                          np.split(multiplicities, cuts), bases)]


def test_numerical_spectra_match_single_spectra():
    matrices = [
        build_single_excitation_hamiltonian(RingSpec(n, coupling))
        for coupling in (Coupling.XX, Coupling.HEISENBERG)
        for n in range(3, 21)
    ]
    matrices.append(np.eye(3))
    stacked = _per_matrix(numerical_spectra(*_stacked(matrices)), [len(m) for m in matrices])
    assert len(stacked) == len(matrices)
    for matrix, (eigenvalues, multiplicities, basis) in zip(matrices, stacked):
        single = numerical_spectrum(matrix)
        assert single.n == basis.shape[0] == len(matrix)
        assert list(multiplicities) == list(single.multiplicities), len(matrix)
        assert np.abs(eigenvalues - single.eigenvalues).max() <= 1e-12, len(matrix)


def test_flat_grouping_matches_the_per_matrix_oracle_bit_for_bit():
    # Mixed sizes in shuffled order, so one size's matrices are not adjacent:
    # ring blocks, random symmetric matrices, exact degeneracies and the
    # zero-spread identity, which is one group.
    rng = np.random.default_rng(5)
    matrices = [build_single_excitation_hamiltonian(RingSpec(n, coupling))
                for coupling in (Coupling.XX, Coupling.HEISENBERG) for n in range(3, 25)]
    for n in (3, 4, 7, 7, 12):
        base = rng.standard_normal((n, n))
        matrices.append(base + base.T)
    matrices += [np.diag([2.0, 1.0, 2.0, 1.0, 1.0]), np.diag([-3.0, -3.0, -3.0, 4.0]), np.eye(3)]
    matrices = [matrices[index] for index in rng.permutation(len(matrices))]
    flat = _per_matrix(numerical_spectra(*_stacked(matrices)), [len(m) for m in matrices])
    groups = {}
    for matrix, (eigenvalues, multiplicities, basis) in zip(matrices, flat):
        w, v = np.linalg.eigh(matrix)
        expected_values, expected_multiplicities = _grouped(w)
        assert np.array_equal(eigenvalues, expected_values), len(matrix)
        assert np.array_equal(multiplicities, expected_multiplicities), len(matrix)
        assert np.array_equal(basis, v), len(matrix)
        groups[tuple(np.diag(matrix))] = multiplicities.tolist()
    assert groups[(2.0, 1.0, 2.0, 1.0, 1.0)] == [3, 2]
    assert groups[(-3.0, -3.0, -3.0, 4.0)] == [3, 1]
    assert groups[(1.0, 1.0, 1.0)] == [3]
    broken = np.eye(6)
    broken[2, 4] = broken[4, 2] = math.nan
    with pytest.raises(NoConvergence, match="non-finite entry in a 6 x 6 matrix"):
        numerical_spectra(*_stacked(matrices + [broken] + matrices))


def test_numerical_spectra_on_interleaved_sizes_match_single_spectra_bit_for_bit(monkeypatch):
    # Sizes 3, 3, 4, 3, 4: four runs of equal size, one stacked eigh each.
    rng = np.random.default_rng(11)
    base = rng.standard_normal((4, 4))
    matrices = [build_single_excitation_hamiltonian(RingSpec(3)),
                build_single_excitation_hamiltonian(RingSpec(3, Coupling.HEISENBERG)),
                build_single_excitation_hamiltonian(RingSpec(4, Coupling.HEISENBERG)),
                np.diag([2.0, 1.0, 2.0]), base + base.T]
    stacks = []
    eigh = np.linalg.eigh

    def counted(stack):
        stacks.append(stack.shape)
        return eigh(stack)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    flat = _per_matrix(numerical_spectra(*_stacked(matrices)), [len(m) for m in matrices])
    assert stacks == [(2, 3, 3), (1, 4, 4), (1, 3, 3), (1, 4, 4)]
    for matrix, (eigenvalues, multiplicities, basis) in zip(matrices, flat):
        single = numerical_spectrum(matrix)
        assert np.array_equal(eigenvalues, single.eigenvalues), len(matrix)
        assert np.array_equal(multiplicities, single.multiplicities), len(matrix)
        assert np.array_equal(basis, single.basis), len(matrix)
    # A bad matrix in a later run is still refused.
    broken = np.eye(4)
    broken[0, 3] = broken[3, 0] = math.inf
    with pytest.raises(NoConvergence, match="non-finite entry in a 4 x 4 matrix"):
        numerical_spectra(*_stacked(matrices + [np.eye(3), broken]))
    with pytest.raises(InvalidSpec, match="complex"):
        numerical_spectra(*_stacked(matrices + [np.eye(3), np.eye(4) + 0j]))


def test_numerical_spectra_of_the_padded_verify_stack_match_single_spectra_bit_for_bit():
    # Each block is decomposed at its own size, on a view of the 64 x 64
    # slabs: LAPACK on a padded slab gives other bits.
    couplings = (Coupling.XX, Coupling.HEISENBERG)
    sizes = np.arange(6, 130) // 2
    stack = build_single_excitation_blocks(sizes, np.ones(len(sizes)),
                                           [coupling.epsilon for coupling in couplings] * 62)
    flat = _per_matrix(numerical_spectra(stack, sizes), sizes)
    for k, (eigenvalues, multiplicities, basis) in enumerate(flat):
        single = numerical_spectrum(build_single_excitation_hamiltonian(
            RingSpec(int(sizes[k]), couplings[k % 2])))
        assert np.array_equal(eigenvalues, single.eigenvalues), k
        assert np.array_equal(multiplicities, single.multiplicities), k
        assert np.array_equal(basis, single.basis), k


def test_numerical_spectra_match_the_jacobi_oracle_on_verify_blocks():
    # The blocks verify decomposes: n = 3..64, both couplings.  LAPACK and the
    # round-robin Jacobi oracle agree on the multiplicities, the eigenvalues
    # and the projector entries of site 1 against every site.
    sizes = [n for coupling in (Coupling.XX, Coupling.HEISENBERG) for n in range(3, 65)]
    epsilon = [coupling.epsilon for coupling in (Coupling.XX, Coupling.HEISENBERG)
               for n in range(3, 65)]
    stack = build_single_excitation_blocks(sizes, np.ones(len(sizes)), epsilon)
    blocks = [slab[:n, :n] for slab, n in zip(stack, sizes)]
    oracle = [jacobi_eigh(block) for block in blocks]
    flat = _per_matrix(numerical_spectra(stack, sizes), sizes)
    for block, (values, counts, basis), (w, v) in zip(blocks, flat, oracle):
        eigenvalues, multiplicities = _grouped(w)
        scale = float(np.abs(w).max())
        assert list(counts) == list(multiplicities), len(block)
        assert np.abs(values - eigenvalues).max() <= 1e-12 * scale, len(block)
        entries = eigenspace_entries(basis[0], basis, counts)
        expected = eigenspace_entries(v[0], v, multiplicities)
        assert np.abs(entries - expected).max() <= 1e-12 * scale, len(block)


def test_jacobi_oracle_never_calls_the_library_solver(monkeypatch):
    # The oracle must stay independent of the LAPACK route it checks.
    def library_reached(*args, **kwargs):
        raise AssertionError("the Jacobi oracle reached np.linalg")

    for name in ("eigh", "eigvalsh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, library_reached)
    blocks = [build_single_excitation_hamiltonian(RingSpec(n, coupling))
              for coupling in (Coupling.XX, Coupling.HEISENBERG) for n in range(3, 65)]
    for block in blocks:
        w, v = jacobi_eigh(block)
        scale = float(np.abs(w).max())
        assert np.abs(v @ np.diag(w) @ v.T - block).max() <= 1e-11 * scale, len(block)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_numerical_spectrum_rejects_non_finite_entries(value):
    entries = np.eye(4)
    entries[0, 1] = entries[1, 0] = value
    with pytest.raises(NoConvergence, match="non-finite"):
        numerical_spectrum(entries)


def test_numerical_spectra_reject_non_square_input():
    for bad in (np.zeros((3, 4)), np.zeros(3), np.zeros((2, 2, 2)), np.zeros((0, 0))):
        with pytest.raises(InvalidSpec, match="square"):
            numerical_spectra(np.stack([bad, bad]))
        with pytest.raises(InvalidSpec, match="square"):
            numerical_spectrum(bad)
    with pytest.raises(InvalidSpec, match=r"\(3, 4\)"):
        numerical_spectrum(np.zeros((3, 4)))
    # Each matrix's size lies in 1..B, one size per slab.
    for sizes in ([3, 0], [3, 5], [3], [3, 3, 3]):
        with pytest.raises(InvalidSpec, match="one size in 1..4 per matrix"):
            numerical_spectra(np.zeros((2, 4, 4)), sizes)


def test_numerical_spectra_reject_complex_input():
    # Cast to float, this Hermitian matrix would lose its imaginary part and
    # decompose as the identity, with only a ComplexWarning.
    hermitian = np.array([[1, 2j], [-2j, 1]])
    for matrices in ([hermitian], [np.eye(2), hermitian.real + 0j]):
        with pytest.raises(InvalidSpec, match="complex"):
            numerical_spectra(matrices)


def test_numerical_spectra_report_a_lapack_failure_as_no_convergence(monkeypatch):
    def fail(stack):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NoConvergence, match="did not converge"):
        numerical_spectrum(np.eye(3))


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
