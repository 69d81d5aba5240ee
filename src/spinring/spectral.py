"""Eigenspace decompositions of the one-excitation block, closed form and numerical.

A decomposition holds the distinct eigenvalues, their multiplicities and n
orthonormal eigenvector columns stored eigenspace after eigenspace.  A
projector entry <i| Pi_k |j> sums the products of basis rows i and j over
eigenspace k (``eigenspace_entries``), so two sites cost two rows; dense
projectors are built only when ``SpectralDecomposition.projectors`` is read.
The closed form uses the real Hartley basis cas(2 pi j k / n) / sqrt(n),
which diagonalises every symmetric circulant (Bracewell 1983): column k of
H_1 carries delta + 2h cos(2 pi min(k, n - k) / n).  ``hartley_rows``
builds any subset of its rows, for ``embedding``'s ring Gram matrices too.

The numerical route is LAPACK ``np.linalg.eigh``, one stacked call per
matrix size (``numerical_spectra``; ``numerical_spectrum`` is a stack of
one).  Both routes produce the same ``SpectralDecomposition`` shape so
downstream code never cares which route built it.  The round-robin Jacobi
eigensolver (``jacobi_eigh_many``, ``jacobi_eigh``) runs on no CLI path: it
is the named test oracle of the numerical route, and the benchmark's
per-layer tracer binds ``jacobi_eigh`` by name.
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


def eigenspace_entries(row_i: np.ndarray, rows_j: np.ndarray, multiplicities) -> np.ndarray:
    """Projector entries <i| Pi_k |j> from basis rows, one per eigenspace along the last axis.

    ``row_i`` is basis row i and ``rows_j`` one row or a stack of rows; each
    entry is the product of the two rows summed over the columns of one
    eigenspace, the columns being stored eigenspace after eigenspace.
    """
    starts = np.cumsum(multiplicities) - multiplicities
    return np.add.reduceat(row_i * rows_j, starts, axis=-1)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Distinct eigenvalues with multiplicities and an orthonormal eigenvector basis.

    Attributes
    ----------
    eigenvalues : numpy.ndarray
        Distinct eigenvalues sorted ascending.
    multiplicities : numpy.ndarray
        Positive integer multiplicity per distinct eigenvalue.
    basis : numpy.ndarray
        n x n orthonormal eigenvector columns, eigenspace after eigenspace:
        the first ``multiplicities[0]`` columns span the first eigenspace,
        and so on.
    source : SpectralSource
    """

    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    basis: np.ndarray
    source: SpectralSource

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def projectors(self) -> tuple:
        """One n x n eigenprojector per eigenspace, built from the basis on every read.

        They resolve the identity and reconstruct the matrix as
        sum_k lambda_k Pi_k.
        """
        entries = np.stack([eigenspace_entries(row, self.basis, self.multiplicities)
                            for row in self.basis])
        return tuple(np.moveaxis(entries, -1, 0))


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

    The test oracle of ``numerical_spectra``; every CLI path uses LAPACK.
    Every matrix is rotated in one stack with the others of its
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


def _grouped(w: np.ndarray, tol: float | None = None):
    """Distinct values and multiplicities of sorted w, cut wherever a gap exceeds tol.

    Each distinct value is the mean of its group; tol defaults to 1e-8
    times the spread of w.
    """
    if tol is None:
        tol = DEGENERACY_FACTOR * float(w[-1] - w[0])
    starts = np.flatnonzero(np.concatenate(([True], w[1:] - w[:-1] > tol)))
    multiplicities = np.diff(np.append(starts, len(w)))
    return np.add.reduceat(w, starts) / multiplicities, multiplicities


def numerical_spectra(matrices, degeneracy_tol: float | None = None) -> list:
    """Eigenspace decompositions of dense symmetric matrices via stacked LAPACK ``eigh``.

    Eigenvalues within ``degeneracy_tol`` of each other (default 1e-8 times
    each matrix's spectral range) are merged into one eigenspace, spanned by
    their eigenvector columns.  Matrices of one size share one
    ``np.linalg.eigh`` call; the decompositions come back in input order.
    A non-finite entry or a LAPACK failure raises ``NoConvergence``.
    """
    results = [None] * len(matrices)
    for n in {matrix.dim for matrix in matrices}:
        members = [index for index, matrix in enumerate(matrices) if matrix.dim == n]
        stack = np.stack([matrices[index].entries for index in members])
        if not np.isfinite(stack).all():
            raise NoConvergence(f"non-finite entry in a {n} x {n} matrix")
        try:
            w, v = np.linalg.eigh(stack)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"LAPACK eigh: {exc}") from exc
        for index, wi, vi in zip(members, w, v):
            results[index] = SpectralDecomposition(*_grouped(wi, degeneracy_tol), vi,
                                                   SpectralSource.NUMERICAL_SOLVER)
    return results


def numerical_spectrum(
    matrix: DenseSymmetricMatrix, degeneracy_tol: float | None = None
) -> SpectralDecomposition:
    """Eigenspace decomposition of one dense symmetric matrix: ``numerical_spectra`` of one."""
    return numerical_spectra([matrix], degeneracy_tol)[0]


def hartley_rows(n: int, rows) -> np.ndarray:
    """Rows of the real Hartley basis cas(2 pi j k / n) / sqrt(n), one per index in ``rows``.

    Each row is the FFT of a unit vector, which is exact at the quarter
    turns, so a subset of rows equals the same rows of the full basis bit
    for bit.  The basis is symmetric and orthonormal, and its columns are
    eigenvectors of every real symmetric n x n circulant.
    """
    rows = np.asarray(rows)
    units = np.zeros((rows.size, n))
    units[np.arange(rows.size), rows] = 1.0
    f = np.fft.fft(units)
    return (f.real - f.imag) / math.sqrt(n)


def circulant_eigenspaces(spec: RingSpec):
    """Closed-form distinct eigenvalues ascending, multiplicities and Hartley column order.

    Hartley column k carries delta + 2h cos(2 pi min(k, n - k) / n).  The
    columns are sorted by eigenvalue (stably), so ``order`` lists them
    eigenspace after eigenspace; no basis row is built.  Modes k and n - k
    always share an eigenvalue.  Distinct modes merge, with a log line, when
    their gap is within 1e-8 times the spread 4|h|: at the extremes of the
    cosine the gap is about |h| (2 pi / n)^2, so from n = 2 pi x 10^4
    (about 31 416) on, mode 1 joins mode 0 and (even n) mode n/2 - 1 joins
    mode n/2.
    """
    n = spec.n
    k = np.arange(n)
    modes = np.minimum(k, n - k)
    lam = spec.subspace_shift + 2.0 * spec.subspace_coupling * np.cos(2.0 * math.pi * modes / n)
    order = np.argsort(lam, kind="stable")
    lam = lam[order]
    eigenvalues, multiplicities = _grouped(lam)
    starts = np.cumsum(multiplicities) - multiplicities
    sorted_modes = modes[order]
    merged = np.minimum.reduceat(sorted_modes, starts) < np.maximum.reduceat(sorted_modes, starts)
    for group in np.flatnonzero(merged):
        group_modes = sorted_modes[starts[group]:starts[group] + multiplicities[group]]
        logger.info("merging cosine-coincident modes %s at eigenvalue %.12g",
                    np.unique(group_modes).tolist(), eigenvalues[group])
    return eigenvalues, multiplicities, order


def circulant_spectrum(spec: RingSpec) -> SpectralDecomposition:
    """Closed-form eigenspace decomposition of the one-excitation block.

    The basis is the Hartley basis with its columns in the order of
    ``circulant_eigenspaces``.  Modes k = 0..floor(n/2) carry eigenvalues
    delta + 2h cos(2 pi k / n); k = 0 and (even n) k = n/2 are simple, all
    other modes are double.  The cosine strictly decreases over the mode
    range, yet at large n adjacent modes at its extremes fall within the
    degeneracy tolerance and share an eigenspace (``circulant_eigenspaces``).
    """
    eigenvalues, multiplicities, order = circulant_eigenspaces(spec)
    basis = hartley_rows(spec.n, np.arange(spec.n))[:, order]
    return SpectralDecomposition(eigenvalues, multiplicities, basis, SpectralSource.CLOSED_FORM)


def projector_overlaps(dec: SpectralDecomposition, i: int, j) -> np.ndarray:
    """Absolute projector entries |<i| Pi_k |j>| for 1-based sites i and j.

    One entry per eigenspace; a 1-D array of sites ``j`` gives one column
    per site.
    """
    n = dec.n
    sites = np.asarray(j)
    if not (1 <= i <= n) or np.any((sites < 1) | (sites > n)):
        raise IndexOutOfRange(f"sites must lie in 1..{n}, got ({i}, {j})")
    return np.abs(eigenspace_entries(dec.basis[i - 1], dec.basis[sites - 1], dec.multiplicities).T)
