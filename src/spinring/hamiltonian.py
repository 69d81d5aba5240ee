"""Spin-ring Hamiltonians: full Hilbert space at desk scale, and the one-excitation block.

A ring of n spins carries the exchange Hamiltonian

    H = sum_bonds J * (sx_i sx_j + sy_i sy_j + eps * sz_i sz_j)

over the n cyclic nearest-neighbour bonds, including the bond that closes
spin n back to spin 1.  With eps = 0 this is the XX model, with eps = 1 the
Heisenberg model.  H preserves the number of up spins, so its restriction to
the n-dimensional one-excitation sector is an n x n circulant matrix H_1 with
off-diagonal coupling h and a uniform diagonal shift.  The off-diagonal value
is derived constructively (h = 2J for both couplings) and verified against
the full-space restriction rather than hardcoded.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge, InvalidSpec, RestrictionMismatch

FULL_SPACE_CAP = 14
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
        Uniform positive coupling constant J on every bond.
    """

    n: int
    coupling: Coupling = Coupling.XX
    strength: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 3:
            raise InvalidSpec(f"ring needs at least 3 spins, got n={self.n}")
        if not self.strength > 0:
            raise InvalidSpec(f"coupling strength must be positive, got {self.strength}")

    @property
    def subspace_coupling(self) -> float:
        """Off-diagonal entry h of the one-excitation block, h = 2J."""
        return 2.0 * self.strength

    @property
    def subspace_shift(self) -> float:
        """Uniform diagonal of the one-excitation block, J * eps * (n - 4)."""
        return self.strength * self.coupling.epsilon * (self.n - 4)


@dataclass(frozen=True, eq=False)
class DenseSymmetricMatrix:
    """Real symmetric matrix stored dense; entries are immutable after construction.

    Builders write both (i, j) and (j, i), so symmetry holds exactly and is
    never repaired after the fact.  Read-only float64 arrays that own their
    data are kept as given; any other input is copied.
    """

    dim: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = self.entries
        if not (isinstance(arr, np.ndarray) and arr.dtype == np.float64
                and arr.flags.owndata and not arr.flags.writeable):
            arr = np.array(arr, dtype=float, copy=True)
        if arr.shape != (self.dim, self.dim):
            raise InvalidSpec(f"expected shape ({self.dim}, {self.dim}), got {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)


def single_excitation_index(n: int, site: int) -> int:
    """Computational-basis index of the state with only spin `site` (1-based) up.

    Spin 1 occupies the most significant bit, so site i maps to 1 << (n - i).
    """
    return 1 << (n - site)


def _check_full_space(spec: RingSpec) -> None:
    if spec.n > FULL_SPACE_CAP:
        raise DimensionTooLarge(
            f"full space needs n <= {FULL_SPACE_CAP}, got n={spec.n}"
        )


def _hamiltonian_rows(spec: RingSpec, states: np.ndarray):
    """Nonzero entries (rows, columns, values) of rows ``states`` of the ring Hamiltonian.

    The sx sx + sy sy part of a bond hops an up spin to its down neighbour
    with amplitude 2J (the product of the two imaginary sy factors is real,
    so the matrix is real symmetric), to a distinct state for each bond.  The
    sz sz part adds J * eps times +1 for aligned and -1 for anti-aligned bond
    spins to the diagonal.  Every state meets every bond's masks at once.

    Raises
    ------
    DimensionTooLarge
        If n exceeds the desk-scale cap of 14 spins.
    """
    _check_full_space(spec)
    n = spec.n
    states = np.asarray(states, dtype=np.int64)
    bits = 1 << (n - 1 - np.arange(n + 1) % n)  # spins 1..n and spin 1 again
    mask_a, mask_b = bits[:-1], bits[1:]
    hop = ((states[:, None] & mask_a) == 0) != ((states[:, None] & mask_b) == 0)
    diag = spec.strength * spec.coupling.epsilon * (n - 2 * hop.sum(axis=1))
    hop_rows, bonds = np.nonzero(hop)
    rows = np.concatenate((np.arange(len(states)), hop_rows))
    columns = np.concatenate((states, states[hop_rows] ^ (mask_a | mask_b)[bonds]))
    return rows, columns, np.concatenate((diag, np.full(len(bonds), 2.0 * spec.strength)))


def build_full_hamiltonian(spec: RingSpec) -> DenseSymmetricMatrix:
    """Dense 2^n x 2^n ring Hamiltonian summed over all n cyclic bonds.

    Raises
    ------
    DimensionTooLarge
        If n exceeds the desk-scale cap of 14 spins.
    """
    _check_full_space(spec)
    dim = 1 << spec.n
    rows, columns, values = _hamiltonian_rows(spec, np.arange(dim))
    ham = np.zeros((dim, dim))
    ham[rows, columns] = values
    ham.flags.writeable = False  # kept as is, not copied, by DenseSymmetricMatrix
    return DenseSymmetricMatrix(dim, ham)


def build_single_excitation_hamiltonian(spec: RingSpec) -> DenseSymmetricMatrix:
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
    block.flags.writeable = False  # kept as is, not copied, by DenseSymmetricMatrix
    return DenseSymmetricMatrix(n, block)


@dataclass(frozen=True)
class RestrictionCheck:
    """Outcome of comparing the full-space restriction with the direct build."""

    ok: bool
    max_abs_deviation: float


def verify_subspace_restriction(
    spec: RingSpec, tol: float = RESTRICTION_TOL
) -> RestrictionCheck:
    """Check that the full Hamiltonian restricts to the direct one-excitation build.

    Builds only the n rows of the full 2^n Hamiltonian that belong to the
    basis states with a single up spin, compares their one-excitation block
    entrywise with ``build_single_excitation_hamiltonian``, and additionally
    checks that these rows do not couple the one-excitation sector to any
    other excitation sector.

    Returns
    -------
    RestrictionCheck
        ``ok`` is True and ``max_abs_deviation`` is the worst entry error.

    Raises
    ------
    RestrictionMismatch
        If any block entry or any leakage entry exceeds ``tol``; the error
        carries the worst offending indices.
    """
    n = spec.n
    idx = np.array([single_excitation_index(n, site) for site in range(1, n + 1)])
    rows, columns, values = _hamiltonian_rows(spec, idx)
    sites = columns[:, None] == idx
    block = np.eye(n)[rows].T @ (values[:, None] * sites)  # entry (row, site) of each value
    block_dev = np.abs(block - build_single_excitation_hamiltonian(spec).entries)
    leak = ~sites.any(axis=1)
    leak_dev = np.abs(values[leak])

    worst_block = float(block_dev.max())
    worst_leak = float(leak_dev.max(initial=0.0))
    deviation = max(worst_block, worst_leak)
    if deviation > tol:
        if worst_block >= worst_leak:
            i, j = np.unravel_index(int(block_dev.argmax()), block_dev.shape)
            indices = (int(i) + 1, int(j) + 1)
            what = f"block entry at sites {indices}"
        else:
            k = np.lexsort((columns[leak], rows[leak], -leak_dev))[0]  # first worst, row-major
            i, s = rows[leak][k], columns[leak][k]
            indices = (int(i) + 1, int(s))
            what = f"leakage from site {int(i) + 1} to basis state {int(s)}"
        raise RestrictionMismatch(
            f"restriction deviates by {deviation:.3e} > {tol:.1e} ({what})",
            indices=indices,
            deviation=deviation,
        )
    return RestrictionCheck(True, deviation)
