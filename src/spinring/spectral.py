"""Eigenspace decompositions of the one-excitation block, closed form and numerical.

A decomposition holds the distinct eigenvalues, their multiplicities and n
orthonormal eigenvector columns stored eigenspace after eigenspace.  A
projector entry <i| Pi_k |j> sums the products of basis rows i and j over
eigenspace k (``eigenspace_entries``), so two sites cost two rows; dense
projectors are built only when ``SpectralDecomposition.projectors`` is read.
The closed form uses the real Hartley basis cas(2 pi j k / n) / sqrt(n),
which diagonalises every symmetric circulant (Bracewell 1983): column k of
H_1 carries delta + 2h cos(2 pi min(k, n - k) / n), so its eigenspaces are
grouped by mode min(k, n - k), with no tolerance.  ``hartley_rows``
builds any subset of its rows; ``embedding`` gathers ring eigenvectors from row 1.

The numerical route (``numerical_spectra``) is LAPACK ``np.linalg.eigh``
on a stack of square arrays, such as the padded block stack ``hamiltonian``
builds: one call per run of equal sizes on views of the stack, then one
grouping pass over all spectra.  Both routes give the same
``SpectralDecomposition``, which does not record the route.  The
round-robin Jacobi eigensolver (``jacobi_eigh``) runs on no CLI path: it is
the test oracle of the numerical route, and the benchmark's per-layer
tracer binds it by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, InvalidSpec, NoConvergence
from .hamiltonian import RingSpec, _ring_sites

JACOBI_MAX_SWEEPS = 100
JACOBI_OFF_FACTOR = 1e-14
DEGENERACY_FACTOR = 1e-8


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

    Both routes build the same fields; which route built one is not recorded.

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
    """

    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    basis: np.ndarray

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


def jacobi_eigh(matrix: np.ndarray, max_sweeps: int = JACOBI_MAX_SWEEPS):
    """Eigenvalues ascending and eigenvector columns of a real symmetric matrix by round-robin Jacobi.

    The test oracle of ``numerical_spectra``; every CLI path uses LAPACK.  A
    sweep is m - 1 rounds on m = n + n % 2 seats (an odd matrix gets one
    decoupled index, dropped from the result).  Each round rotates the m / 2
    disjoint pairs (seat i, seat m - 1 - i) at once, as row and then column
    operations on the matrix over its eigenvector matrix; then seat 0 stays
    and the others move one place, the circle method of Brent & Luk (1985).
    The sweeps stop at an off-diagonal Frobenius norm within 1e-14 times the
    Frobenius norm.

    Raises
    ------
    NoConvergence
        If the off-diagonal norm misses its target after ``max_sweeps`` sweeps.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    m = n + n % 2
    av = np.vstack((np.zeros((m, m)), np.eye(m)))
    av[:n, :n] = matrix
    a, k = av[:m], m // 2
    off_target = JACOBI_OFF_FACTOR * float(np.linalg.norm(matrix))
    shift = np.concatenate(([0, m - 1], np.arange(1, m - 1)))
    for sweep in range(max_sweeps + 1):
        off = float(np.linalg.norm(a - np.diag(np.diag(a))))
        if off <= off_target:
            order = np.argsort(np.diag(a)[:n], kind="stable")
            return np.diag(a)[order], av[m : m + n, order]
        if sweep == max_sweeps:
            break
        seats = np.arange(m)
        for _ in range(m - 1):
            p, q = seats[:k], seats[: k - 1 : -1]
            app, aqq, apq = a[p, p], a[q, q], a[p, q]
            tau = aqq - app
            # tan(2 phi) = 2 a_pq / (a_qq - a_pp) with |phi| <= pi / 4.
            phi = 0.5 * np.arctan2(np.copysign(2.0, tau) * apq, np.abs(tau))
            c, s = np.cos(phi), np.sin(phi)
            rows_p, rows_q = a[p], a[q]
            a[p] = c[:, None] * rows_p - s[:, None] * rows_q
            a[q] = s[:, None] * rows_p + c[:, None] * rows_q
            cols_p, cols_q = av[:, p], av[:, q]
            av[:, p] = cols_p * c - cols_q * s
            av[:, q] = cols_p * s + cols_q * c
            a[p, q] = a[q, p] = 0.0
            seats = seats[shift]
    raise NoConvergence(
        f"off-diagonal norm {off:.3e} above {off_target:.3e} after {max_sweeps} sweeps"
    )


def numerical_spectra(stack, sizes=None):
    """Distinct eigenvalues, multiplicities and raveled eigenvector bases of symmetric matrices.

    Matrix k is the leading sizes[k] x sizes[k] corner of slab k of the
    real (matrices, B, B) ``stack``, or all of the slab without ``sizes``.
    The stack is checked once; then one LAPACK ``np.linalg.eigh`` call runs
    per run of equal sizes, on a view, so a stack listed size by size takes
    one call per size; then one ``np.add.reduceat`` over all eigenvalues: an
    eigenspace starts at each matrix's first eigenvalue and wherever a gap
    exceeds 1e-8 times that matrix's spread, and takes its group's mean.
    The arrays are flat, in stack order; each basis is raveled row by row,
    columns eigenspace after eigenspace.  A malformed stack or size raises
    ``InvalidSpec``; a non-finite entry or LAPACK failure ``NoConvergence``.
    """
    stack = np.asarray(stack)
    shape = stack.shape
    if len(shape) != 3 or not shape[1] == shape[2] > 0:
        raise InvalidSpec(f"expected a non-empty square matrix, got shape {shape[1:]}")
    if np.iscomplexobj(stack):
        raise InvalidSpec("expected a real matrix, got a complex one")
    sizes = np.full(shape[0], shape[1]) if sizes is None else np.asarray(sizes)
    if sizes.shape != shape[:1] or not np.all((sizes >= 1) & (sizes <= shape[1])):
        raise InvalidSpec(f"expected one size in 1..{shape[1]} per matrix, got {sizes}")
    if not np.isfinite(stack).all():
        n = sizes[np.argmin(np.isfinite(stack).all(axis=(1, 2)))]
        raise NoConvergence(f"non-finite entry in a {n} x {n} matrix")
    # The empty float64 heads make the joined arrays float64, and empty
    # when there are no matrices.
    values, vectors = [np.empty(0)], [np.empty(0)]
    bounds = np.flatnonzero(np.diff(sizes, prepend=0, append=0)).tolist()  # sizes are positive
    for start, stop in zip(bounds, bounds[1:]):
        n = sizes[start]
        try:
            w, v = np.linalg.eigh(stack[start:stop, :n, :n])
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"LAPACK eigh: {exc}") from exc
        values.append(w.ravel())
        vectors.append(v.ravel())
    w = np.concatenate(values)
    firsts = np.cumsum(sizes) - sizes
    tol = np.repeat(DEGENERACY_FACTOR * (w[firsts + sizes - 1] - w[firsts]), sizes)
    tol[firsts] = -np.inf
    starts = np.flatnonzero(np.diff(w, prepend=0.0) > tol)
    multiplicities = np.diff(np.append(starts, len(w)))
    return np.add.reduceat(w, starts) / multiplicities, multiplicities, np.concatenate(vectors)


def numerical_spectrum(matrix: np.ndarray) -> SpectralDecomposition:
    """Eigenspace decomposition of one square symmetric array: ``numerical_spectra`` of one."""
    eigenvalues, multiplicities, vectors = numerical_spectra(np.asarray(matrix)[None])
    return SpectralDecomposition(eigenvalues, multiplicities, vectors.reshape(len(matrix), -1))


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


def circulant_eigenspaces(n, strength, epsilon):
    """Closed-form distinct eigenvalues ascending, multiplicities and Hartley column order per ring.

    Hartley columns m and n - m carry delta + 2h cos(2 pi m / n), and the
    cosine strictly falls over m = 0..floor(n/2), so with h > 0 the modes
    m = floor(n/2)..0 give the eigenvalues ascending.  ``order`` lists the
    columns eigenspace after eigenspace, (m, n - m) for each mode; modes 0
    and n/2 are simple.  The grouping is by mode, with no tolerance, and no
    basis row is built.  The rings are given as in
    ``hamiltonian.build_single_excitation_blocks``, and the arrays hold them
    ring after ring, so a batch of one gives that ring's arrays.
    """
    sizes, strength, epsilon = np.asarray(n), np.asarray(strength), np.asarray(epsilon)
    ring, position = _ring_sites(sizes // 2 + 1)
    n = sizes[ring]
    modes = n // 2 - position
    shift, h = strength * epsilon * (sizes - 4), 2.0 * strength
    eigenvalues = shift[ring] + 2.0 * h[ring] * np.cos(2.0 * math.pi * modes / n)
    paired = (modes > 0) & (2 * modes < n)
    order = np.column_stack((modes, n - modes))[np.column_stack((np.ones_like(paired), paired))]
    return eigenvalues, 1 + paired, order


def circulant_spectrum(spec: RingSpec) -> SpectralDecomposition:
    """Closed-form eigenspace decomposition of the one-excitation block.

    The basis is the Hartley basis with its columns in the order of
    ``circulant_eigenspaces``.  Modes k = 0..floor(n/2) carry eigenvalues
    delta + 2h cos(2 pi k / n); k = 0 and (even n) k = n/2 are simple, all
    other modes are double.  Each mode is its own eigenspace, however close
    adjacent modes come at large n, since the grouping is by mode.
    """
    eigenvalues, multiplicities, order = circulant_eigenspaces([spec.n], [spec.strength],
                                                               [spec.coupling.epsilon])
    basis = hartley_rows(spec.n, np.arange(spec.n))[:, order]
    return SpectralDecomposition(eigenvalues, multiplicities, basis)


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
