"""Eigenspace decompositions of the one-excitation block, closed form and numerical.

The circulant structure of H_1 gives eigenvalues delta + 2h cos(2 pi k / n)
for k = 0..floor(n/2), simple at k = 0 and (for even n) at k = n/2, double
otherwise.  Complex circulant eigenvectors are replaced by their real and
imaginary parts, which span the same eigenspaces, so every projector is a
real symmetric matrix, and its entries are a closed form in the separation
i - j (``circulant_projector_entries``).

A round-robin Jacobi eigensolver provides the independent numerical route.
It runs on stacks: matrices of one padded size m = n + n % 2 share one
rotation schedule and are rotated together (``jacobi_eigh_many``,
``numerical_spectra``); the single-matrix ``jacobi_eigh`` and
``numerical_spectrum`` are stacks of one.  Both routes produce the same
``SpectralDecomposition`` shape so downstream code never cares which route
built it.
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

    The arrays hold flat indices into the 2m x m stack of the matrix over
    its eigenvector matrix: the shuffle of rows and columns together (the
    eigenvector rows stay in place), (a_pp, a_qq, a_pq) for the 2k rotated
    rows, the paired off-diagonal entries and all off-diagonal entries; and
    the half-angle signs that give the p rows -sin and the q rows +sin.
    """
    k = m // 2
    seat_of_slot = np.concatenate((np.arange(k), np.arange(m - 1, k - 1, -1)))
    seat_from = np.concatenate(([0, m - 1], np.arange(1, m - 1)))
    shuffle = np.argsort(seat_of_slot)[seat_from[seat_of_slot]]
    shuffle_rows = np.concatenate((shuffle, np.arange(m, 2 * m)))
    shuffle_flat = (shuffle_rows[:, None] * m + shuffle).ravel()
    p = np.arange(k)
    q = p + k
    pair_entries = np.tile(np.stack((p * (m + 1), q * (m + 1), p * m + q)), 2)
    pair_flat = np.concatenate((p * m + q, q * m + p))
    off_flat = np.flatnonzero(~np.eye(m, dtype=bool))
    half_signs = np.repeat([-0.5, 0.5], k)
    schedule = (shuffle_flat, pair_entries, pair_flat, off_flat, half_signs)
    for array in schedule:
        array.flags.writeable = False
    return schedule


def _jacobi_sweeps(av: np.ndarray, off_targets: np.ndarray, max_sweeps: int):
    """Round-robin Jacobi sweeps on a b x 2m x m stack of symmetric a over v.

    Each round applies the m / 2 disjoint rotations of every member at once,
    as whole-array operations: the rows of a, then the columns of a and v
    together.  Rotations on disjoint index pairs commute, so a round equals
    the same rotations applied one after another.  A pair whose off-diagonal
    entry is zero gets the identity rotation.  The stack stops when the
    off-diagonal norm of every member's a is within its own target.

    Raises
    ------
    NoConvergence
        If some member misses its target after ``max_sweeps`` sweeps.
    """
    b, _, m = av.shape
    k = m // 2
    shuffle_flat, pair_entries, pair_flat, off_flat, half_signs = _round_robin_schedule(m)
    # Flat indices into the whole stack: member r starts at r * 2m^2.
    base = np.arange(b) * (2 * m * m)
    shuffle_flat = base[:, None] + shuffle_flat
    pair_entries = base[:, None, None] + pair_entries
    pair_flat = base[:, None] + pair_flat
    off_flat = base[:, None] + off_flat
    for sweep in range(max_sweeps + 1):
        off = av.take(off_flat)
        norms = np.sqrt(np.einsum("ij,ij->i", off, off))
        if (norms <= off_targets).all():
            return av
        if sweep == max_sweeps:
            break
        for _ in range(m - 1):
            entries = av.take(pair_entries)
            app, aqq, apq = entries[:, 0], entries[:, 1], entries[:, 2]
            tau = aqq - app
            # tan(2 phi) = 2 a_pq / (a_qq - a_pp) with |phi| <= pi / 4.
            phi = half_signs * np.arctan2(np.copysign(2.0, tau) * apq, np.abs(tau))
            c = np.cos(phi).reshape(b, 2, k)
            s = np.sin(phi).reshape(b, 2, k)
            rows = av[:, :m].reshape(b, 2, k, m)
            swapped = s[..., None] * rows[:, ::-1]
            rows *= c[..., None]
            rows += swapped
            cols = av.reshape(b, 2 * m, 2, k)
            av = c[:, None] * cols
            av += s[:, None] * cols[:, :, ::-1]
            av.put(pair_flat, 0.0)
            av = av.take(shuffle_flat).reshape(b, 2 * m, m)
    worst = int(np.argmax(norms - off_targets))
    raise NoConvergence(
        f"off-diagonal norm {norms[worst]:.3e} above {off_targets[worst]:.3e} "
        f"after {max_sweeps} sweeps"
    )


def jacobi_eigh_many(matrices, max_sweeps: int = JACOBI_MAX_SWEEPS) -> list:
    """Eigendecompositions of real symmetric matrices by stacked round-robin Jacobi.

    The independent oracle for the closed-form spectrum; embedding code uses
    LAPACK.  Every matrix is rotated in one stack with the others of its
    padded size m = n + n % 2, which share one round-robin schedule; an
    odd-sized matrix is padded with one decoupled index, which no rotation
    touches and which is dropped from the result.  Each member converges to
    an off-diagonal Frobenius norm below 1e-14 times its own Frobenius norm.
    Returns, in input order, pairs of eigenvalues sorted ascending and the
    matching orthonormal eigenvector columns.

    Raises
    ------
    NoConvergence
        If a stack misses its targets within ``max_sweeps`` sweeps.
    """
    matrices = [np.asarray(matrix, dtype=float) for matrix in matrices]
    stacks = {}
    for index, matrix in enumerate(matrices):
        n = matrix.shape[0]
        stacks.setdefault(n + n % 2, []).append(index)
    results = [None] * len(matrices)
    for m, members in stacks.items():
        av = np.zeros((len(members), 2 * m, m))
        av[:, m:] = np.eye(m)
        off_targets = np.empty(len(members))
        for row, index in enumerate(members):
            matrix = matrices[index]
            n = matrix.shape[0]
            av[row, :n, :n] = matrix
            off_targets[row] = JACOBI_OFF_FACTOR * float(np.linalg.norm(matrix))
        av = _jacobi_sweeps(av, off_targets, max_sweeps)
        for row, index in enumerate(members):
            n = matrices[index].shape[0]
            w = np.diag(av[row])[:n]
            order = np.argsort(w, kind="stable")
            results[index] = (w[order], av[row, m : m + n][:, order])
    return results


def jacobi_eigh(matrix: np.ndarray, max_sweeps: int = JACOBI_MAX_SWEEPS):
    """Eigenvalues ascending and eigenvectors of one matrix: a stack of one."""
    return jacobi_eigh_many([matrix], max_sweeps)[0]


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


def _decomposition(w: np.ndarray, v: np.ndarray, degeneracy_tol) -> SpectralDecomposition:
    """Group an eigendecomposition into distinct eigenvalues and eigenspace projectors."""
    if degeneracy_tol is None:
        degeneracy_tol = DEGENERACY_FACTOR * float(w[-1] - w[0])
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


def numerical_spectra(matrices, degeneracy_tol: float | None = None) -> list:
    """Eigenspace decompositions of dense symmetric matrices via stacked Jacobi sweeps.

    Eigenvalues within ``degeneracy_tol`` of each other (default 1e-8 times
    each matrix's spectral range) are merged into one eigenspace, and the
    eigenspace projector is the sum of outer products of its orthonormal
    eigenvectors.  Matrices of one padded size share a Jacobi stack
    (``jacobi_eigh_many``); the decompositions come back in input order.
    """
    return [
        _decomposition(w, v, degeneracy_tol)
        for w, v in jacobi_eigh_many([matrix.entries for matrix in matrices])
    ]


def numerical_spectrum(
    matrix: DenseSymmetricMatrix, degeneracy_tol: float | None = None
) -> SpectralDecomposition:
    """Eigenspace decomposition of one dense symmetric matrix: ``numerical_spectra`` of one."""
    return numerical_spectra([matrix], degeneracy_tol)[0]


def circulant_projector_entries(n: int, k: int, diff) -> np.ndarray:
    """Entries <i| Pi_k |j> of the real projector onto mode k of an n-cycle.

    ``diff`` holds the integer separations i - j, in any shape: 1/n at
    k = 0, (-1)^(i - j) / n at k = n/2, and (2/n) cos(2 pi k (i - j) / n)
    otherwise.
    """
    diff = np.asarray(diff)
    if k == 0:
        return np.full(diff.shape, 1.0 / n)
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
    diff = np.subtract.outer(np.arange(spec.n), np.arange(spec.n))
    projectors = []
    for group_modes in groups:
        proj = np.zeros((spec.n, spec.n))
        for k in group_modes:
            proj += circulant_projector_entries(spec.n, k, diff)
        projectors.append(proj)
    return SpectralDecomposition(
        eigenvalues=eigenvalues,
        multiplicities=multiplicities,
        projectors=tuple(projectors),
        source=SpectralSource.CLOSED_FORM,
    )


def projector_overlaps(dec: SpectralDecomposition, i: int, j) -> np.ndarray:
    """Absolute projector entries |<i| Pi_k |j>| for 1-based sites i and j.

    One entry per eigenspace; a 1-D array of sites ``j`` gives one column
    per site.
    """
    n = dec.n
    sites = np.asarray(j)
    if not (1 <= i <= n) or np.any((sites < 1) | (sites > n)):
        raise IndexOutOfRange(f"sites must lie in 1..{n}, got ({i}, {j})")
    return np.abs([p[i - 1, sites - 1] for p in dec.projectors])
