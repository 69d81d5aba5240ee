"""Eigenspace decompositions of the one-excitation block, closed form and numerical.

The circulant structure of H_1 gives eigenvalues delta + 2h cos(2 pi k / n)
for k = 0..floor(n/2), simple at k = 0 and (for even n) at k = n/2, double
otherwise.  Complex circulant eigenvectors are replaced by their real and
imaginary parts, which span the same eigenspaces, so every projector is a
real symmetric matrix.  A hand-rolled cyclic Jacobi eigensolver provides the
independent numerical route; both produce the same ``SpectralDecomposition``
shape so downstream code never cares which route built it.
"""

from __future__ import annotations

import enum
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

try:
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised only without numba
    NUMBA_AVAILABLE = False


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


def _rotate(a: np.ndarray, v: np.ndarray, p: int, q: int) -> None:
    """One Jacobi rotation zeroing a[p, q], numpy-vectorized row/col update."""
    apq = a[p, q]
    theta = (a[q, q] - a[p, p]) / (2.0 * apq)
    t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
    c = 1.0 / math.sqrt(t * t + 1.0)
    s = t * c
    rp = a[p, :].copy()
    rq = a[q, :].copy()
    a[p, :] = c * rp - s * rq
    a[q, :] = s * rp + c * rq
    cp = a[:, p].copy()
    cq = a[:, q].copy()
    a[:, p] = c * cp - s * cq
    a[:, q] = s * cp + c * cq
    a[p, q] = 0.0
    a[q, p] = 0.0
    vp = v[:, p].copy()
    vq = v[:, q].copy()
    v[:, p] = c * vp - s * vq
    v[:, q] = s * vp + c * vq


def _jacobi_numpy(a: np.ndarray, v: np.ndarray, off_target: float, max_sweeps: int) -> int:
    n = a.shape[0]
    for sweep in range(max_sweeps + 1):
        off = math.sqrt(2.0 * float(np.sum(np.triu(a, 1) ** 2)))
        if off <= off_target:
            return sweep
        if sweep == max_sweeps:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] != 0.0:
                    _rotate(a, v, p, q)
    return -1


if NUMBA_AVAILABLE:

    @njit(cache=True)
    def _jacobi_numba(a, v, off_target, max_sweeps):  # pragma: no cover - compiled
        n = a.shape[0]
        for sweep in range(max_sweeps + 1):
            off = 0.0
            for i in range(n - 1):
                for j in range(i + 1, n):
                    off += a[i, j] * a[i, j]
            off = math.sqrt(2.0 * off)
            if off <= off_target:
                return sweep
            if sweep == max_sweeps:
                break
            for p in range(n - 1):
                for q in range(p + 1, n):
                    apq = a[p, q]
                    if apq == 0.0:
                        continue
                    theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                    if theta >= 0.0:
                        t = 1.0 / (theta + math.sqrt(theta * theta + 1.0))
                    else:
                        t = -1.0 / (-theta + math.sqrt(theta * theta + 1.0))
                    c = 1.0 / math.sqrt(t * t + 1.0)
                    s = t * c
                    for r in range(n):
                        arp = a[r, p]
                        arq = a[r, q]
                        a[r, p] = c * arp - s * arq
                        a[r, q] = s * arp + c * arq
                    for r in range(n):
                        apr = a[p, r]
                        aqr = a[q, r]
                        a[p, r] = c * apr - s * aqr
                        a[q, r] = s * apr + c * aqr
                    a[p, q] = 0.0
                    a[q, p] = 0.0
                    for r in range(n):
                        vrp = v[r, p]
                        vrq = v[r, q]
                        v[r, p] = c * vrp - s * vrq
                        v[r, q] = s * vrp + c * vrq
        return -1


def jacobi_eigh(matrix: np.ndarray, max_sweeps: int = JACOBI_MAX_SWEEPS):
    """Full eigendecomposition of a real symmetric matrix by cyclic Jacobi sweeps.

    Returns eigenvalues sorted ascending and the matching orthonormal
    eigenvector columns.  Convergence target is an off-diagonal Frobenius
    norm below 1e-14 times the Frobenius norm of the input.

    Raises
    ------
    NoConvergence
        If the target is not reached within ``max_sweeps`` sweeps.
    """
    a = np.array(matrix, dtype=float, copy=True)
    n = a.shape[0]
    v = np.eye(n)
    off_target = JACOBI_OFF_FACTOR * float(np.linalg.norm(a))
    if NUMBA_AVAILABLE:
        sweeps = _jacobi_numba(a, v, off_target, max_sweeps)
    else:
        sweeps = _jacobi_numpy(a, v, off_target, max_sweeps)
    if sweeps < 0:
        raise NoConvergence(
            f"off-diagonal norm above {off_target:.3e} after {max_sweeps} sweeps"
        )
    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


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


def circulant_spectrum(spec: RingSpec) -> SpectralDecomposition:
    """Closed-form eigenspace decomposition of the one-excitation block.

    Modes k = 0..floor(n/2) carry eigenvalues delta + 2h cos(2 pi k / n);
    k = 0 and (even n) k = n/2 are simple, all other modes are double.
    Distinct modes can never share an eigenvalue here because the cosine is
    strictly decreasing over the mode range, but a merge path exists and is
    logged if numerical coincidence ever triggers it.
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
    projectors = []
    for start, stop in _group_eigenvalues(lam, tol):
        group_modes = modes[start:stop]
        if len(group_modes) > 1:
            logger.info(
                "merging cosine-coincident modes %s at eigenvalue %.12g",
                group_modes,
                float(np.mean(lam[start:stop])),
            )
        proj = np.zeros((n, n))
        for k in group_modes:
            proj += _circulant_projector(n, k)
        eigenvalues.append(float(np.mean(lam[start:stop])))
        multiplicities.append(int(mult[start:stop].sum()))
        projectors.append(proj)
    return SpectralDecomposition(
        eigenvalues=np.array(eigenvalues),
        multiplicities=np.array(multiplicities, dtype=int),
        projectors=tuple(projectors),
        source=SpectralSource.CLOSED_FORM,
    )


def projector_overlaps(dec: SpectralDecomposition, i: int, j: int) -> np.ndarray:
    """Absolute projector entries |<i| Pi_k |j>| for 1-based sites i and j."""
    n = dec.n
    if not (1 <= i <= n) or not (1 <= j <= n):
        raise IndexOutOfRange(f"sites must lie in 1..{n}, got ({i}, {j})")
    return np.array([abs(float(p[i - 1, j - 1])) for p in dec.projectors])
