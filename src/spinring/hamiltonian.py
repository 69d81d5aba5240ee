"""Spin-ring Hamiltonians: full Hilbert space at desk scale, and the one-excitation block.

A ring of n spins carries the exchange Hamiltonian

    H = sum_bonds J * (sx_i sx_j + sy_i sy_j + eps * sz_i sz_j)

over the n cyclic nearest-neighbour bonds, including the bond that closes
spin n back to spin 1.  With eps = 0 this is the XX model, with eps = 1 the
Heisenberg model.  H preserves the number of up spins, so its restriction to
the n-dimensional one-excitation sector is an n x n circulant matrix H_1 with
off-diagonal coupling h and a uniform diagonal shift.  The off-diagonal value
is derived constructively (h = 2J for both couplings) and verified against
the full-space restriction rather than hardcoded.  The batched routines take
rings as three arrays, n, coupling strength J and sz sz weight eps, one entry
per ring; ``build_single_excitation_blocks`` returns every ring's block in
one read-only zero-padded float64 stack, and ``build_full_hamiltonian`` a
read-only dense array.  Both write (i, j) and (j, i) alike, so symmetry
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
    """Uniform ring of n >= 3 spins with nearest-neighbour XX or Heisenberg exchange.

    ``strength`` is the coupling constant J on every bond, positive and finite.
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


def _ring_sites(n: np.ndarray):
    """Ring and 0-based site of each site of rings (or segments) of n[0], n[1], ... spins, in turn."""
    ring = np.repeat(np.arange(len(n)), n)
    return ring, np.arange(len(ring)) - np.repeat(np.cumsum(n) - n, n)


def build_single_excitation_blocks(n, strength, epsilon) -> np.ndarray:
    """One-excitation blocks H_1 of rings as one read-only (rings, B, B) stack, B = max(n).

    Ring r's n x n circulant fills the leading corner of slab r, zeros pad
    the rest: h = 2J on the cyclic super and sub diagonal including the
    (1, n) corner, and the uniform shift J * eps * (n - 4) on the diagonal.
    """
    n, strength, epsilon = np.asarray(n), np.asarray(strength), np.asarray(epsilon)
    ring, site = _ring_sites(n)
    after = (site + 1) % n[ring]
    blocks = np.zeros((len(n), n.max(), n.max()))
    blocks[ring, site, after] = blocks[ring, after, site] = (2.0 * strength)[ring]
    blocks[ring, site, site] = (strength * epsilon * (n - 4))[ring]
    blocks.flags.writeable = False
    return blocks


def build_single_excitation_hamiltonian(spec: RingSpec) -> np.ndarray:
    """Direct n x n circulant build of the one-excitation block H_1: a stack of one ring."""
    return build_single_excitation_blocks([spec.n], [spec.strength], [spec.coupling.epsilon])[0]


def check_subspace_restrictions(n, strength, epsilon, blocks):
    """Per ring, its worst restriction deviation, and by ring index the ``RestrictionMismatch``es.

    The one-excitation rows of all rings come from one ``_hamiltonian_rows``
    call.  An entry whose column is a one-excitation state of its own ring
    is added into that ring's slab of a zero stack shaped like ``blocks``
    (one B x B slab per ring, B >= max(n), else ``InvalidArgs``); any other
    entry is leakage.  The stacks are subtracted in one operation.  A ring
    whose deviation exceeds ``RESTRICTION_TOL`` or is NaN gets a mismatch
    (returned, not raised) located at its worst entry, or at a NaN one.
    """
    n = np.asarray(n)
    shape = np.shape(blocks)
    if len(shape) != 3 or shape[0] != len(n) or not shape[1] == shape[2] >= n.max():
        raise InvalidArgs("blocks must hold one B x B slab per ring, B at least its n")
    ring, site = _ring_sites(n)
    n = n[ring]  # per state
    rows, columns, values = _hamiltonian_rows(n, np.asarray(strength)[ring],
                                              np.asarray(epsilon)[ring],
                                              single_excitation_index(n, site + 1))
    ring, site, n = ring[rows], site[rows], n[rows]  # per entry
    in_sector = (columns > 0) & (columns & (columns - 1) == 0) & (columns >> n == 0)
    target = n - np.frexp(columns.astype(float))[1]  # site of a one-excitation column
    restricted = np.zeros(shape)
    np.add.at(restricted, (ring[in_sector], site[in_sector], target[in_sector]), values[in_sector])
    block_dev = np.abs(restricted - blocks)
    leak = ~in_sector
    worst_leaks = np.zeros(shape[0])
    np.maximum.at(worst_leaks, ring[leak], np.abs(values[leak]))
    deviations = np.maximum(block_dev.max(axis=(1, 2)), worst_leaks)

    mismatches = {}
    for r in np.flatnonzero(~(deviations <= RESTRICTION_TOL)).tolist():
        if not worst_leaks[r] > block_dev[r].max():  # so a NaN block entry is reported
            i, j = np.unravel_index(int(block_dev[r].argmax()), block_dev[r].shape)
            indices = (int(i) + 1, int(j) + 1)
            what = f"block entry at sites {indices}"
        else:
            mine = leak & (ring == r)
            k = np.lexsort((columns[mine], site[mine], -np.abs(values[mine])))[0]  # first worst
            indices = (int(site[mine][k]) + 1, int(columns[mine][k]))
            what = f"leakage from site {indices[0]} to basis state {indices[1]}"
        message = f"restriction deviates by {deviations[r]:.3e} > {RESTRICTION_TOL:.1e} ({what})"
        mismatches[r] = RestrictionMismatch(message, indices=indices, deviation=float(deviations[r]))
    return deviations, mismatches


def verify_subspace_restriction(spec: RingSpec) -> float:
    """The worst restriction error of one ring against ``build_single_excitation_hamiltonian``.

    ``check_subspace_restrictions`` of a batch of one: block entries and
    leakage to other sectors.  Raises its ``RestrictionMismatch``, which
    carries the worst offending indices, if the error exceeds
    ``RESTRICTION_TOL`` or is NaN.
    """
    deviations, mismatches = check_subspace_restrictions(
        [spec.n], [spec.strength], [spec.coupling.epsilon],
        build_single_excitation_hamiltonian(spec)[None])
    if mismatches:
        raise mismatches[0]
    return float(deviations[0])
