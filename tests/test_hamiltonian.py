import math
import tracemalloc

import numpy as np
import pytest

from spinring import (
    Coupling,
    DimensionTooLarge,
    InvalidArgs,
    InvalidSpec,
    RestrictionMismatch,
    RingSpec,
    build_full_hamiltonian,
    build_single_excitation_blocks,
    build_single_excitation_hamiltonian,
    single_excitation_index,
    verify_subspace_restriction,
)
from spinring import hamiltonian

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
# sy = i * SY_REAL, so the sy sy bond term equals -(SY_REAL kron SY_REAL).
SY_REAL = np.array([[0.0, -1.0], [1.0, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])


def kron_chain(ops):
    out = np.array([[1.0]])
    for op in ops:
        out = np.kron(out, op)
    return out


def full_hamiltonian_oracle(n, eps, strength):
    dim = 2**n
    ham = np.zeros((dim, dim))
    eye = np.eye(2)
    for a in range(n):
        b = (a + 1) % n
        for single, sign in ((SX, 1.0), (SY_REAL, -1.0), (SZ, eps)):
            ops = [eye] * n
            ops[a] = single
            ops[b] = single
            ham += strength * sign * kron_chain(ops)
    return ham


def test_full_hamiltonian_matches_kron_oracle():
    for n in range(3, 9):
        for coupling in (Coupling.XX, Coupling.HEISENBERG):
            built = build_full_hamiltonian(RingSpec(n, coupling))
            oracle = full_hamiltonian_oracle(n, coupling.epsilon, 1.0)
            assert np.abs(built - oracle).max() < 1e-12, (n, coupling)


def test_full_hamiltonian_scales_with_strength():
    built = build_full_hamiltonian(RingSpec(4, Coupling.HEISENBERG, 0.7))
    oracle = full_hamiltonian_oracle(4, 1.0, 0.7)
    assert np.abs(built - oracle).max() < 1e-12


def test_full_hamiltonian_is_exactly_symmetric():
    for n in (3, 5, 6):
        for coupling in (Coupling.XX, Coupling.HEISENBERG):
            ham = build_full_hamiltonian(RingSpec(n, coupling))
            assert np.array_equal(ham, ham.T)


def test_single_excitation_index_bit_layout():
    # Spin 1 is the most significant bit.
    assert single_excitation_index(3, 1) == 4
    assert single_excitation_index(3, 2) == 2
    assert single_excitation_index(3, 3) == 1
    assert single_excitation_index(5, 1) == 16


def test_single_excitation_block_n3():
    # Ring of 3: every pair of sites is a bond, so the block is h off the
    # diagonal everywhere; the Heisenberg diagonal is J * (n - 4) = -1.
    xx = build_single_excitation_hamiltonian(RingSpec(3, Coupling.XX))
    assert np.array_equal(xx, np.array([[0.0, 2.0, 2.0], [2.0, 0.0, 2.0], [2.0, 2.0, 0.0]]))
    heis = build_single_excitation_hamiltonian(RingSpec(3, Coupling.HEISENBERG))
    assert np.array_equal(heis - xx, -np.eye(3))


def test_single_excitation_block_n4_pattern():
    block = build_single_excitation_hamiltonian(RingSpec(4, Coupling.XX))
    expected = np.array(
        [
            [0.0, 2.0, 0.0, 2.0],
            [2.0, 0.0, 2.0, 0.0],
            [0.0, 2.0, 0.0, 2.0],
            [2.0, 0.0, 2.0, 0.0],
        ]
    )
    assert np.array_equal(block, expected)


def test_single_excitation_block_is_circulant():
    n = 5
    block = build_single_excitation_hamiltonian(RingSpec(n, Coupling.HEISENBERG))
    shift = np.zeros((n, n))
    for i in range(n):
        shift[i, (i + 1) % n] = 1.0
    assert np.abs(shift @ block @ shift.T - block).max() == 0.0


def test_single_excitation_block_matches_a_per_site_loop():
    # The slice-assigned build equals the per-site loop bit for bit.
    for n in range(3, 65):
        for coupling in (Coupling.XX, Coupling.HEISENBERG):
            spec = RingSpec(n, coupling)
            expected = np.zeros((n, n))
            for i in range(n):
                expected[i, (i + 1) % n] = expected[(i + 1) % n, i] = spec.subspace_coupling
            np.fill_diagonal(expected, spec.subspace_shift)
            block = build_single_excitation_hamiltonian(spec)
            assert block.dtype == np.float64 and block.shape == (n, n)
            assert block.tobytes() == expected.tobytes(), (n, coupling)


def _strided_block(spec):
    """The per-ring zeros-and-strides build the batched builder replaced, kept as its oracle."""
    n = spec.n
    h = spec.subspace_coupling
    block = np.zeros((n, n))
    block.flat[::n + 1] = spec.subspace_shift
    block.flat[1::n + 1] = block.flat[n::n + 1] = h  # super and sub diagonal
    block[0, -1] = block[-1, 0] = h
    return block


def _rings(specs):
    """The ring arrays (n, strength, epsilon) of ``specs``."""
    return ([spec.n for spec in specs], [spec.strength for spec in specs],
            [spec.coupling.epsilon for spec in specs])


def test_batched_blocks_equal_the_per_ring_strided_build_bit_for_bit():
    # One stack of every ring n = 3..64, both couplings and three strengths.
    specs = [RingSpec(n, coupling, strength) for strength in (1.0, 1.0 + 1e-6, 0.37)
             for coupling in (Coupling.XX, Coupling.HEISENBERG) for n in range(3, 65)]
    blocks = build_single_excitation_blocks(*_rings(specs))
    assert blocks.dtype == np.float64 and blocks.shape == (len(specs), 64, 64)
    assert not blocks.flags.writeable
    for spec, slab in zip(specs, blocks):
        expected = _strided_block(spec)
        assert slab[:spec.n, :spec.n].tobytes() == expected.tobytes(), spec
        assert not slab[spec.n:].any() and not slab[:, spec.n:].any(), spec
        single = build_single_excitation_hamiltonian(spec)
        assert single.shape == (spec.n, spec.n) and not single.flags.writeable
        assert single.tobytes() == expected.tobytes(), spec


def test_coupling_models_differ_by_identity_shift():
    # For n = 6 the Heisenberg diagonal shift is J * (6 - 4) = 2.
    xx = build_single_excitation_hamiltonian(RingSpec(6, Coupling.XX))
    heis = build_single_excitation_hamiltonian(RingSpec(6, Coupling.HEISENBERG))
    assert np.array_equal(heis - xx, 2.0 * np.eye(6))


def test_subspace_restriction_verifies():
    for n in range(3, 11):
        for coupling in (Coupling.XX, Coupling.HEISENBERG):
            assert verify_subspace_restriction(RingSpec(n, coupling)) <= 1e-12


def test_subspace_restriction_memory_is_row_sized():
    # Only the nonzero entries of the n one-excitation rows are built, not
    # n dense rows of length 2^n (1.8 MB at n = 14).
    tracemalloc.start()
    try:
        verify_subspace_restriction(RingSpec(14, Coupling.HEISENBERG))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_restriction_mismatch_reports_indices(monkeypatch):
    build = hamiltonian.build_single_excitation_hamiltonian

    def perturbed(spec):
        # One block entry off by 0.25, at 1-based sites (2, 3).
        block = build(spec).copy()
        block[1, 2] += 0.25
        return block

    monkeypatch.setattr(hamiltonian, "build_single_excitation_hamiltonian", perturbed)
    with pytest.raises(RestrictionMismatch) as excinfo:
        verify_subspace_restriction(RingSpec(4))
    assert excinfo.value.indices == (2, 3)
    assert excinfo.value.deviation == 0.25
    assert "block entry at sites (2, 3)" in str(excinfo.value)


def test_restriction_mismatch_reports_leakage(monkeypatch):
    rows_of = hamiltonian._hamiltonian_rows

    def leaking(n, strength, epsilon, states):
        # Couple the last one-excitation row to the all-up state.
        rows, columns, values = rows_of(n, strength, epsilon, states)
        return (np.append(rows, len(states) - 1), np.append(columns, (1 << n[-1]) - 1),
                np.append(values, 0.5))

    monkeypatch.setattr(hamiltonian, "_hamiltonian_rows", leaking)
    with pytest.raises(RestrictionMismatch) as excinfo:
        verify_subspace_restriction(RingSpec(5))
    assert excinfo.value.indices == (5, 31)
    assert excinfo.value.deviation == 0.5


def test_invalid_spec_rejected():
    with pytest.raises(InvalidSpec):
        RingSpec(2)
    for strength in (0.0, -1.0, math.inf, -math.inf, math.nan):
        with pytest.raises(InvalidSpec):
            RingSpec(5, Coupling.XX, strength)


def test_overflowing_strength_fails_the_restriction():
    # 2J overflows to inf, so the block entries inf - inf are NaN: a NaN
    # deviation is a block-entry mismatch, never a pass.
    for coupling in (Coupling.XX, Coupling.HEISENBERG):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RestrictionMismatch) as excinfo:
                verify_subspace_restriction(RingSpec(5, coupling, 1e308))
        assert math.isnan(excinfo.value.deviation)
        assert "block entry at sites" in str(excinfo.value)
        with np.errstate(over="ignore", invalid="ignore"):
            rings = _rings([RingSpec(5, coupling, 1e308), RingSpec(5, coupling)])
            deviations, mismatches = hamiltonian.check_subspace_restrictions(
                *rings, build_single_excitation_blocks(*rings))
        assert list(mismatches) == [0] and math.isnan(deviations[0]) and deviations[1] == 0.0
        assert "block entry at sites" in str(mismatches[0])


def test_full_space_cap_enforced():
    with pytest.raises(DimensionTooLarge):
        build_full_hamiltonian(RingSpec(15))
    # The restriction builds n rows, so only int64 basis states cap it.
    assert verify_subspace_restriction(RingSpec(15)) == 0.0
    assert verify_subspace_restriction(RingSpec(62, Coupling.HEISENBERG)) == 0.0
    with pytest.raises(DimensionTooLarge):
        verify_subspace_restriction(RingSpec(63))


def test_batched_restriction_matches_batch_of_one():
    specs = [RingSpec(n, coupling, strength) for strength in (1.0, 0.7)
             for n in range(3, 15) for coupling in (Coupling.XX, Coupling.HEISENBERG)]
    rings = _rings(specs)
    deviations, mismatches = hamiltonian.check_subspace_restrictions(
        *rings, build_single_excitation_blocks(*rings))
    assert mismatches == {}
    for spec, batched in zip(specs, deviations.tolist()):
        assert batched == verify_subspace_restriction(spec), spec


def test_restriction_refuses_blocks_that_do_not_match_the_rings():
    rings = _rings([RingSpec(4), RingSpec(5, Coupling.HEISENBERG)])
    blocks = build_single_excitation_blocks(*rings)
    for wrong in (np.concatenate((blocks, blocks[:1])), blocks[:1], blocks[:, :4, :4],
                  blocks[:, :, :4], blocks[0]):
        with pytest.raises(InvalidArgs, match="one B x B slab per ring"):
            hamiltonian.check_subspace_restrictions(*rings, wrong)
    deviations, mismatches = hamiltonian.check_subspace_restrictions(*rings, blocks)
    assert deviations.tolist() == [0.0, 0.0] and mismatches == {}
    # Swapped rings fit the shape and fail the check; so does a nonzero pad.
    assert sorted(hamiltonian.check_subspace_restrictions(*rings, blocks[::-1])[1]) == [0, 1]
    padded = blocks.copy()
    padded[0, 4, 4] = 0.5
    deviations, mismatches = hamiltonian.check_subspace_restrictions(*rings, padded)
    assert deviations.tolist() == [0.5, 0.0] and mismatches[0].indices == (5, 5)
    # A wider pad than the largest ring needs is accepted.
    wide = np.zeros((2, 6, 6))
    wide[:, :5, :5] = blocks
    assert hamiltonian.check_subspace_restrictions(*rings, wide)[1] == {}


def test_matrices_are_read_only():
    for matrix in (build_single_excitation_hamiltonian(RingSpec(5)),
                   build_full_hamiltonian(RingSpec(4))):
        assert matrix.dtype == np.float64 and not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0


def test_full_hamiltonian_is_held_once():
    # The peak is the 32 MiB matrix and its entry lists, not the matrix and
    # a copy of it.
    tracemalloc.start()
    try:
        ham = build_full_hamiltonian(RingSpec(11))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ham.nbytes == 8 * 4**11
    assert peak <= 1.15 * ham.nbytes, peak


def test_subspace_parameters():
    spec = RingSpec(7, Coupling.HEISENBERG, 1.5)
    assert spec.subspace_coupling == 3.0
    assert spec.subspace_shift == 1.5 * (7 - 4)
    assert RingSpec(7, Coupling.XX, 1.5).subspace_shift == 0.0
