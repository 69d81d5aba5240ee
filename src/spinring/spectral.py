"""Eigenspace decompositions of the one-excitation block, closed form and numerical.

The circulant structure of H_1 gives eigenvalues delta + 2h cos(2 pi k / n)
for k = 0..floor(n/2), simple at k = 0 and (for even n) at k = n/2, double
otherwise.  Complex circulant eigenvectors are replaced by their real and
imaginary parts, which span the same eigenspaces, so every projector is a
real symmetric matrix.  A round-robin Jacobi eigensolver provides the
independent numerical route; both produce the same ``SpectralDecomposition``
shape so downstream code never cares which route built it.
"""

from __future__ import annotations

import enum
import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, NoConvergence
from .hamiltonian import DenseSymmetricMatrix, RingSpec

logger = logging.getLogger(__name__)

JACOBI_MAX_SWEEPS = 100
JACOBI_OFF_FACTOR = 1e-14
DEGENERACY_FACTOR = 1e-8

class SpectralSource(enum.Enum):
    """Which route produced a decomposition."""

    CLOSED_FORM = "ClosedForm"
    NUMERICAL_SOLVER = "NumericalSolver"


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Distinct eigenvalues with multiplicities and orthogonal eigenprojectors.

    Attributes
    ----------
    eigenvalues : numpy.ndarray
        Distinct eigenvalues sorted ascending.
    multiplicities : numpy.ndarray
        Positive integer multiplicity per distinct eigenvalue.
    projectors : tuple of numpy.ndarray
        One n x n real symmetric idempotent projector per distinct eigenvalue.
        They resolve the identity and reconstruct the matrix as
        sum_k lambda_k Pi_k.
    source : SpectralSource
    """

    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    projectors: tuple
    source: SpectralSource

    @property
    def n(self) -> int:
        return self.projectors[0].shape[0]


@functools.lru_cache(maxsize=64)
def _round_robin_schedule(m: int):
    """Index arrays for round-robin Jacobi on an even m, as read-only arrays.

    The matrix is stored so that each round pairs slot i with slot k + i,
    k = m / 2.  Between rounds the slots are reshuffled by one fixed
    permutation, the circle method of Brent & Luk (1985): seat 0 stays, the
    other m - 1 seats move one place.  After m - 1 rounds every pair has met
    once and the slots are back in their original order.

    The arrays index the 2m x m stack of the matrix over its eigenvector
    matrix: the row and column shuffles (the row shuffle leaves the
    eigenvector rows in place), the flat indices of (a_pp, a_qq, a_pq) for
    the 2k rotated rows, of the paired off-diagonal entries and of all
    off-diagonal entries, and the half-angle signs that give the p rows
    -sin and the q rows +sin.
    """
    k = m // 2
    seat_of_slot = np.concatenate((np.arange(k), np.arange(m - 1, k - 1, -1)))
    seat_from = np.concatenate(([0, m - 1], np.arange(1, m - 1)))
    shuffle = np.argsort(seat_of_slot)[seat_from[seat_of_slot]]
    shuffle_rows = np.concatenate((shuffle, np.arange(m, 2 * m)))[:, None]
    p = np.arange(k)
    q = p + k
    pair_entries = np.tile(np.stack((p * (m + 1), q * (m + 1), p * m + q)), 2)
    pair_flat = np.concatenate((p * m + q, q * m + p))
    off_flat = np.flatnonzero(~np.eye(m, dtype=bool))
    half_signs = np.repeat([-0.5, 0.5], k)
    schedule = (shuffle_rows, shuffle, pair_entries, pair_flat, off_flat, half_signs)
    for array in schedule:
        array.flags.writeable = False
    return schedule


def _jacobi_sweeps(av: np.ndarray, off_target: float, max_sweeps: int):
    """Round-robin Jacobi sweeps on the stack of an even-sized symmetric a over v.

    Each round applies its m / 2 disjoint rotations at once, as whole-array
    operations: the rows of a, then the columns of a and v together.
    Rotations on disjoint index pairs commute, so a round equals the same
    rotations applied one after another.  A pair whose off-diagonal entry is
    zero gets the identity rotation.

    Returns the rotated stack and the sweeps used, or -1 when the
    off-diagonal norm of a does not reach ``off_target`` in ``max_sweeps``.
    """
    m = av.shape[1]
    k = m // 2
    shuffle_rows, shuffle, pair_entries, pair_flat, off_flat, half_signs = (
        _round_robin_schedule(m)
    )
    for sweep in range(max_sweeps + 1):
        off = av.take(off_flat)
        if math.sqrt(float(off @ off)) <= off_target:
            return av, sweep
        if sweep == max_sweeps:
            break
        for _ in range(m - 1):
            app, aqq, apq = av.take(pair_entries)
            tau = aqq - app
            # tan(2 phi) = 2 a_pq / (a_qq - a_pp) with |phi| <= pi / 4.
            phi = half_signs * np.arctan2(np.copysign(2.0, tau) * apq, np.abs(tau))
            c = np.cos(phi).reshape(2, k)
            s = np.sin(phi).reshape(2, k)
            rows = av[:m].reshape(2, k, m)
            rows[:] = c[:, :, None] * rows + s[:, :, None] * rows[::-1]
            cols = av.reshape(2 * m, 2, k)
            av = (c * cols + s * cols[:, ::-1]).reshape(2 * m, m)
            av.put(pair_flat, 0.0)
            av = av[shuffle_rows, shuffle]
    return av, -1


def jacobi_eigh(matrix: np.ndarray, max_sweeps: int = JACOBI_MAX_SWEEPS):
    """Full eigendecomposition of a real symmetric matrix by round-robin Jacobi sweeps.

    The independent oracle for the closed-form spectrum; embedding code uses
    LAPACK.  An odd-sized matrix is padded with one decoupled index, which no
    rotation touches and which is dropped from the result.  Returns
    eigenvalues sorted ascending and the matching orthonormal eigenvector
    columns.  Convergence target is an off-diagonal Frobenius norm below
    1e-14 times the Frobenius norm of the input.

    Raises
    ------
    NoConvergence
        If the target is not reached within ``max_sweeps`` sweeps.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    m = n + n % 2
    av = np.zeros((2 * m, m))
    av[:n, :n] = matrix
    np.fill_diagonal(av[m:], 1.0)
    off_target = JACOBI_OFF_FACTOR * float(np.linalg.norm(matrix))
    av, sweeps = _jacobi_sweeps(av, off_target, max_sweeps)
    if sweeps < 0:
        raise NoConvergence(
            f"off-diagonal norm above {off_target:.3e} after {max_sweeps} sweeps"
        )
    w = np.diag(av)[:n]
    order = np.argsort(w, kind="stable")
    return w[order], av[m : m + n, order]


def _group_eigenvalues(w: np.ndarray, tol: float):
    """Split sorted eigenvalues into groups whose adjacent gaps stay within tol."""
    groups = []
    start = 0
    for i in range(1, len(w)):
        if w[i] - w[i - 1] > tol:
            groups.append((start, i))
            start = i
    groups.append((start, len(w)))
    return groups


def numerical_spectrum(
    matrix: DenseSymmetricMatrix, degeneracy_tol: float | None = None
) -> SpectralDecomposition:
    """Eigenspace decomposition of a dense symmetric matrix via Jacobi sweeps.

    Eigenvalues within ``degeneracy_tol`` of each other (default 1e-8 times
    the spectral range) are merged into one eigenspace, and the eigenspace
    projector is the sum of outer products of its orthonormal eigenvectors.
    """
    w, v = jacobi_eigh(matrix.entries)
    if degeneracy_tol is None:
        spread = float(w[-1] - w[0])
        degeneracy_tol = DEGENERACY_FACTOR * spread
    eigenvalues = []
    multiplicities = []
    projectors = []
    for start, stop in _group_eigenvalues(w, degeneracy_tol):
        block = v[:, start:stop]
        proj = block @ block.T
        proj = 0.5 * (proj + proj.T)
        eigenvalues.append(float(np.mean(w[start:stop])))
        multiplicities.append(stop - start)
        projectors.append(proj)
    return SpectralDecomposition(
        eigenvalues=np.array(eigenvalues),
        multiplicities=np.array(multiplicities, dtype=int),
        projectors=tuple(projectors),
        source=SpectralSource.NUMERICAL_SOLVER,
    )


def _circulant_projector(n: int, k: int) -> np.ndarray:
    """Real projector onto the eigenspace of mode k of an n-cycle."""
    diff = np.subtract.outer(np.arange(n), np.arange(n))
    if k == 0:
        return np.full((n, n), 1.0 / n)
    if 2 * k == n:
        return ((-1.0) ** diff) / n
    return (2.0 / n) * np.cos(2.0 * math.pi * k * diff / n)


def circulant_modes(spec: RingSpec):
    """Closed-form distinct eigenvalues ascending, their multiplicities and modes.

    Returns the eigenvalues and multiplicities of ``circulant_spectrum`` as
    arrays, and per eigenvalue the list of modes k it merges, without
    building any projector.
    """
    n = spec.n
    h = spec.subspace_coupling
    delta = spec.subspace_shift
    modes = list(range(n // 2 + 1))
    lam = np.array([delta + 2.0 * h * math.cos(2.0 * math.pi * k / n) for k in modes])
    mult = np.array([1 if (k == 0 or 2 * k == n) else 2 for k in modes], dtype=int)

    order = np.argsort(lam, kind="stable")
    lam = lam[order]
    mult = mult[order]
    modes = [modes[i] for i in order]

    spread = float(lam[-1] - lam[0])
    tol = DEGENERACY_FACTOR * spread
    eigenvalues = []
    multiplicities = []
    groups = []
    for start, stop in _group_eigenvalues(lam, tol):
        group_modes = modes[start:stop]
        if len(group_modes) > 1:
            logger.info(
                "merging cosine-coincident modes %s at eigenvalue %.12g",
                group_modes,
                float(np.mean(lam[start:stop])),
            )
        eigenvalues.append(float(np.mean(lam[start:stop])))
        multiplicities.append(int(mult[start:stop].sum()))
        groups.append(group_modes)
    return np.array(eigenvalues), np.array(multiplicities, dtype=int), groups


def circulant_spectrum(spec: RingSpec) -> SpectralDecomposition:
    """Closed-form eigenspace decomposition of the one-excitation block.

    Modes k = 0..floor(n/2) carry eigenvalues delta + 2h cos(2 pi k / n);
    k = 0 and (even n) k = n/2 are simple, all other modes are double.
    Distinct modes can never share an eigenvalue here because the cosine is
    strictly decreasing over the mode range, but a merge path exists and is
    logged if numerical coincidence ever triggers it.
    """
    eigenvalues, multiplicities, groups = circulant_modes(spec)
    projectors = []
    for group_modes in groups:
        proj = np.zeros((spec.n, spec.n))
        for k in group_modes:
            proj += _circulant_projector(spec.n, k)
        projectors.append(proj)
    return SpectralDecomposition(
        eigenvalues=eigenvalues,
        multiplicities=multiplicities,
        projectors=tuple(projectors),
        source=SpectralSource.CLOSED_FORM,
    )


def projector_overlaps(dec: SpectralDecomposition, i: int, j: int) -> np.ndarray:
    """Absolute projector entries |<i| Pi_k |j>| for 1-based sites i and j."""
    n = dec.n
    if not (1 <= i <= n) or not (1 <= j <= n):
        raise IndexOutOfRange(f"sites must lie in 1..{n}, got ({i}, {j})")
    return np.array([abs(float(p[i - 1, j - 1])) for p in dec.projectors])
