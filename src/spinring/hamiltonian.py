"""Spin-ring Hamiltonians: full Hilbert space at desk scale, and the one-excitation block.

A ring of n spins carries the exchange Hamiltonian

    H = sum_bonds J * (sx_i sx_j + sy_i sy_j + eps * sz_i sz_j)

over the n cyclic nearest-neighbour bonds, including the bond that closes
spin n back to spin 1.  With eps = 0 this is the XX model, with eps = 1 the
Heisenberg model.  H preserves the number of up spins, so its restriction to
the n-dimensional one-excitation sector is an n x n circulant matrix H_1 with
off-diagonal coupling h and a uniform diagonal shift.  The off-diagonal value
is derived constructively (h = 2J for both couplings) and verified against
the full-space restriction rather than hardcoded.  Both builders return a
read-only float64 array; they write (i, j) and (j, i) alike, so symmetry
holds exactly and is never repaired after the fact.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge, InvalidArgs, InvalidSpec, RestrictionMismatch

FULL_SPACE_CAP = 14
ROW_SPACE_CAP = 62
RESTRICTION_TOL = 1e-12


class Coupling(enum.Enum):
    """Exchange coupling model of the ring."""

    XX = "xx"
    HEISENBERG = "heisenberg"

    @property
    def epsilon(self) -> float:
        """Weight of the sz sz term: 0 for XX, 1 for Heisenberg."""
        return 0.0 if self is Coupling.XX else 1.0


@dataclass(frozen=True)
class RingSpec:
    """Uniform ring of n spins with nearest-neighbour exchange coupling.

    Parameters
    ----------
    n : int
        Number of spins, at least 3.
    coupling : Coupling
        XX or Heisenberg exchange.
    strength : float
        Uniform positive, finite coupling constant J on every bond.
    """

    n: int
    coupling: Coupling = Coupling.XX
    strength: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 3:
            raise InvalidSpec(f"ring needs at least 3 spins, got n={self.n}")
        if not 0 < self.strength < np.inf:
            raise InvalidSpec(
                f"coupling strength must be positive and finite, got {self.strength}")

    @property
    def subspace_coupling(self) -> float:
        """Off-diagonal entry h of the one-excitation block, h = 2J."""
        return 2.0 * self.strength

    @property
    def subspace_shift(self) -> float:
        """Uniform diagonal of the one-excitation block, J * eps * (n - 4)."""
        return self.strength * self.coupling.epsilon * (self.n - 4)


def single_excitation_index(n: int, site: int) -> int:
    """Computational-basis index of the state with only spin `site` (1-based) up.

    Spin 1 occupies the most significant bit, so site i maps to 1 << (n - i).
    """
    return 1 << (n - site)


def _hamiltonian_rows(n, strength, epsilon, states: np.ndarray):
    """Nonzero entries (rows, columns, values) of rows ``states`` of ring Hamiltonians.

    Row r belongs to a ring of n[r] spins with coupling strength[r] and sz sz
    weight epsilon[r]; each of the three broadcasts against ``states``, so
    scalars give rows of one ring.  The sx sx + sy sy part of a bond hops an
    up spin to its down neighbour with amplitude 2J (the product of the two
    imaginary sy factors is real, so the matrix is real symmetric), to a
    distinct state for each bond.  The sz sz part adds J * eps times +1 for
    aligned and -1 for anti-aligned bond spins to the diagonal.  Every state
    meets every bond's masks at once; bonds are padded to the largest n, and
    a padded bond has both masks 0, so it never hops.

    Raises
    ------
    DimensionTooLarge
        If n exceeds 62 spins, where int64 basis states run out.
    """
    if np.max(n) > ROW_SPACE_CAP:
        raise DimensionTooLarge(f"basis states need n <= {ROW_SPACE_CAP}, got n={np.max(n)}")
    states = np.asarray(states, dtype=np.int64)
    n_bond = np.asarray(n)[..., None]
    bonds = np.arange(np.max(n))
    bits = 1 << (n_bond - 1 - np.arange(len(bonds) + 1) % n_bond)  # spins 1..n and spin 1 again
    mask_a, mask_b = (np.where(bonds < n_bond, b, 0) for b in (bits[..., :-1], bits[..., 1:]))
    hop = ((states[:, None] & mask_a) == 0) != ((states[:, None] & mask_b) == 0)
    diag = strength * epsilon * (n - 2 * hop.sum(axis=1))
    hop_rows, hop_bonds = np.nonzero(hop)
    flips = np.broadcast_to(mask_a | mask_b, hop.shape)[hop_rows, hop_bonds]
    amplitudes = np.broadcast_to(2.0 * np.asarray(strength), states.shape)[hop_rows]
    rows = np.concatenate((np.arange(len(states)), hop_rows))
    return rows, np.concatenate((states, states[hop_rows] ^ flips)), np.concatenate((diag, amplitudes))


def build_full_hamiltonian(spec: RingSpec) -> np.ndarray:
    """Dense 2^n x 2^n ring Hamiltonian summed over all n cyclic bonds.

    Raises
    ------
    DimensionTooLarge
        If n exceeds the desk-scale cap of 14 spins.
    """
    if spec.n > FULL_SPACE_CAP:
        raise DimensionTooLarge(f"full space needs n <= {FULL_SPACE_CAP}, got n={spec.n}")
    dim = 1 << spec.n
    rows, columns, values = _hamiltonian_rows(spec.n, spec.strength, spec.coupling.epsilon,
                                              np.arange(dim))
    ham = np.zeros((dim, dim))
    ham[rows, columns] = values
    ham.flags.writeable = False
    return ham


def build_single_excitation_hamiltonian(spec: RingSpec) -> np.ndarray:
    """Direct n x n circulant build of the one-excitation block H_1.

    Off-diagonal h sits on the cyclic super and sub diagonal including the
    (1, n) corner; the diagonal is the uniform shift J * eps * (n - 4).
    """
    n = spec.n
    h = spec.subspace_coupling
    block = np.zeros((n, n))
    block.flat[::n + 1] = spec.subspace_shift
    block.flat[1::n + 1] = block.flat[n::n + 1] = h  # super and sub diagonal
    block[0, -1] = block[-1, 0] = h
    block.flags.writeable = False
    return block


def check_subspace_restrictions(specs, blocks) -> list:
    """The restriction check of each ring against its n x n block in ``blocks``, in order.

    The n one-excitation rows of every ring come from one ``_hamiltonian_rows``
    call.  An entry whose column is a one-excitation state of its own ring is
    added into that ring's block of a (rings, B, B) stack, B the largest n;
    any other entry is leakage.  The caller's blocks, one n x n array per ring
    in the order of ``specs`` (else ``InvalidArgs``), fill the same places of a
    zero stack, which is subtracted in one operation.

    Returns
    -------
    list
        Per ring, its worst deviation as a float, or its ``RestrictionMismatch``
        (returned, not raised).  A NaN deviation is a mismatch, located at a
        NaN block entry.
    """
    sizes = np.array([spec.n for spec in specs])
    if [np.shape(block) for block in blocks] != [(n, n) for n in sizes.tolist()]:
        raise InvalidArgs("blocks must hold one n x n block per ring, in the order of specs")
    ring = np.repeat(np.arange(len(specs)), sizes)
    site = np.arange(len(ring)) - np.repeat(np.cumsum(sizes) - sizes, sizes)  # 0-based
    n = sizes[ring]
    strength = np.array([spec.strength for spec in specs])[ring]
    epsilon = np.array([spec.coupling.epsilon for spec in specs])[ring]
    rows, columns, values = _hamiltonian_rows(n, strength, epsilon,
                                              single_excitation_index(n, site + 1))
    ring, site, n = ring[rows], site[rows], n[rows]  # per entry
    in_sector = (columns > 0) & (columns & (columns - 1) == 0) & (columns >> n == 0)
    target = n - np.frexp(columns.astype(float))[1]  # site of a one-excitation column
    restricted = np.zeros((len(specs), sizes.max(), sizes.max()))
    np.add.at(restricted, (ring[in_sector], site[in_sector], target[in_sector]), values[in_sector])
    expected = np.zeros_like(restricted)
    for r, block in enumerate(blocks):
        expected[r, :len(block), :len(block)] = block
    block_dev = np.abs(restricted - expected)
    leak = ~in_sector
    worst_leaks = np.zeros(len(specs))
    np.maximum.at(worst_leaks, ring[leak], np.abs(values[leak]))

    results = []
    for r, deviation in enumerate(np.maximum(block_dev.max(axis=(1, 2)), worst_leaks).tolist()):
        if deviation <= RESTRICTION_TOL:
            results.append(deviation)
            continue
        if not worst_leaks[r] > block_dev[r].max():  # so a NaN block entry is reported
            i, j = np.unravel_index(int(block_dev[r].argmax()), block_dev[r].shape)
            indices = (int(i) + 1, int(j) + 1)
            what = f"block entry at sites {indices}"
        else:
            mine = leak & (ring == r)
            k = np.lexsort((columns[mine], site[mine], -np.abs(values[mine])))[0]  # first worst
            indices = (int(site[mine][k]) + 1, int(columns[mine][k]))
            what = f"leakage from site {indices[0]} to basis state {indices[1]}"
        message = f"restriction deviates by {deviation:.3e} > {RESTRICTION_TOL:.1e} ({what})"
        results.append(RestrictionMismatch(message, indices=indices, deviation=deviation))
    return results


def verify_subspace_restriction(spec: RingSpec) -> float:
    """Check that the full Hamiltonian restricts to the direct one-excitation build.

    Builds only the n rows of the full 2^n Hamiltonian that belong to the
    basis states with a single up spin, compares their one-excitation block
    entrywise with ``build_single_excitation_hamiltonian``, and additionally
    checks that these rows do not couple the one-excitation sector to any
    other excitation sector: ``check_subspace_restrictions`` of one ring.

    Returns
    -------
    float
        The worst entry error, at most ``RESTRICTION_TOL``.

    Raises
    ------
    RestrictionMismatch
        If any block entry or any leakage entry exceeds ``RESTRICTION_TOL`` or is NaN;
        the error carries the worst offending indices.
    """
    result = check_subspace_restrictions([spec], [build_single_excitation_hamiltonian(spec)])[0]
    if isinstance(result, RestrictionMismatch):
        raise result
    return result
