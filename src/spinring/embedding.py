"""Isometric embeddings of finite metric spaces into constant-curvature spaces.

Every decision is an inertia test on the spectrum of one Gram matrix:

- Euclidean: the centred Gram matrix -J (d o d) J / 2 is positive
  semidefinite (Schoenberg 1935).
- Sphere of curvature kappa > 0: sqrt(kappa) times the diameter is at most
  pi and cos(sqrt(kappa) d) is positive semidefinite.
- Hyperbolic space of curvature kappa < 0: cosh(sqrt(-kappa) d) has exactly
  one positive eigenvalue.

A ring's Gram matrices are symmetric circulants in its distance profile, so
their eigenvalues are one real DFT of the kernel applied to the profile
(Davis, Circulant Matrices, 1979).  Hand-built metrics go through LAPACK on
the dense matrix, which is also the rings' test oracle.  Each verdict
reports a scale-free margin to the boundary and is True iff the margin is at
least -1e-9.  On rings the spherical margin measures the non-constant modes
against their own size, which shrinks like kappa, so it stays valid as
kappa -> 0, where it becomes the Euclidean test.

The realizations factor the same Gram matrices.  A symmetric circulant has
the real Hartley basis cas(2 pi j k / N) / sqrt(N) as its eigenvectors
(Bracewell, JOSA 73, 1983), so a ring's coordinates are fixed Hartley
columns scaled by the square roots of the DFT eigenvalues, with no
eigensolver; hand-built metrics are factored by LAPACK.

Spherical feasibility is not an interval (0, kappa*]: the ring n = 16 and
the rings n = 4 (mod 8) with n >= 12 embed only in a window of curvatures,
and the rings n = 0 (mod 8) with n >= 24 in no sphere at all.  The
threshold search samples the margin on a grid of sqrt(kappa), bisects its
root above the largest feasible sample, and reports whether every sample
below is feasible.

For the uniform complete graph K_n with edge weight w the spherical boundary
is explicit: kappa_max(n, w) = (arccos(-1/(n-1)) / w)^2, where the Gram
matrix loses exactly one rank and the embedding drops to the (n-2)-sphere.
The principal minors of the uniform Gram and Cayley-Menger matrices obey
closed forms and recursions, kept here and cross-checked against
determinants.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import FactorizationFailure, InvalidArgs, NotEmbeddable
from .hamiltonian import RingSpec
from .metric import DistanceMatrix, RingClassification, classify_ring, distance_matrix
from .spectral import hartley_rows

logger = logging.getLogger(__name__)

PSD_TOL_FACTOR = 1e-9
DEFAULT_REALIZE_TOL = 1e-8
THRESHOLD_GRID = 256
BISECTION_ITERATIONS = 60


def kappa_max(n: int, w: float) -> float:
    """Largest spherical curvature admitting the uniform K_n with edge weight w.

    Equals (arccos(-1/(n-1)) / w)^2.
    """
    if n < 2:
        raise InvalidArgs(f"need at least 2 points, got n={n}")
    if not w > 0:
        raise InvalidArgs(f"edge weight must be positive, got {w}")
    return (math.acos(-1.0 / (n - 1)) / w) ** 2


def toeplitz_minor_closed_form(k: int, c: float) -> float:
    """Determinant of the k x k matrix with unit diagonal and constant off-diagonal c.

    Closed form (1 - c)^(k-1) * ((k - 1) c + 1).
    """
    if k < 1:
        raise InvalidArgs(f"minor order must be at least 1, got {k}")
    return (1.0 - c) ** (k - 1) * ((k - 1) * c + 1.0)


def toeplitz_minor_recursion(k_max: int, c: float) -> list:
    """Minor sequence t_1..t_{k_max} by the three-term recursion.

    t_{k+1} = (1-c) t_k + (1-c)^2 t_{k-1} - (1-c)^3 t_{k-2}, seeded with
    t_1 = 1, t_2 = 1 - c^2, t_3 = (1-c)^2 (2c + 1).
    """
    if k_max < 3:
        raise InvalidArgs(f"recursion needs k_max >= 3, got {k_max}")
    u = 1.0 - c
    t = [1.0, 1.0 - c * c, u * u * (2.0 * c + 1.0)]
    while len(t) < k_max:
        t.append(u * t[-1] + u * u * t[-2] - u * u * u * t[-3])
    return t


def toeplitz_eigenvalues(n: int, c: float):
    """Eigenvalues of the unit-diagonal constant-off-diagonal matrix.

    Returns (simple eigenvalue (n-1)c + 1, repeated eigenvalue 1 - c,
    multiplicity n - 1).  The simple eigenvector is the all-ones direction.
    """
    if n < 2:
        raise InvalidArgs(f"need n >= 2, got {n}")
    return ((n - 1) * c + 1.0, 1.0 - c, n - 1)


def cayley_menger_minors(d_uniform: float, k_max: int) -> list:
    """Minors cm_2..cm_{k_max} of the uniform-distance bordered matrix.

    cm_k is the determinant of the (k+1) x (k+1) bordered matrix on k points
    at pairwise distance d.  Computed through the Schur-complement recursion
    on the inner squared-distance blocks T_k (zero diagonal, d^2 elsewhere):

        t_k  = -((k - 1) d^2 / (k - 2)) t_{k-1}
        cm_k = -(k / (d^2 (k - 1))) t_k

    seeded with the direct 2 x 2 determinant t_2 = -d^4, where the recursion
    denominator would vanish.  The signs alternate as (-1)^k.
    """
    if not d_uniform > 0:
        raise InvalidArgs(f"uniform distance must be positive, got {d_uniform}")
    if k_max < 3:
        raise InvalidArgs(f"need k_max >= 3, got {k_max}")
    d2 = d_uniform * d_uniform
    t = -(d2 * d2)
    minors = []
    for k in range(2, k_max + 1):
        if k > 2:
            t = -((k - 1) * d2 / (k - 2)) * t
        minors.append(-(k / (d2 * (k - 1))) * t)
    return minors


# Gram kernels of the unit models: -d^2 / 2 (double centred) for Euclidean
# space and the Minkowski -cosh(d) for the hyperboloid; the sphere's is cos.
def _minus_half_square(x):
    return -0.5 * x * x


def _minus_cosh(x):
    return -np.cosh(x)


# Geodesic distances back from a unit model's Gram matrix.
def _arccos(gram):
    return np.arccos(np.clip(gram, -1.0, 1.0))


def _chord(gram):
    norms = np.diag(gram)
    return np.sqrt(np.clip(norms[:, None] + norms - 2.0 * gram, 0.0, None))


def _arccosh(gram):
    return np.arccosh(np.clip(-gram, 1.0, None))


def _dense_gram(d: DistanceMatrix, kernel, scales=1.0, center: bool = False) -> np.ndarray:
    """The dense Gram matrix kernel(s * d) for each scale s, double centred when ``center``."""
    g = kernel(np.asarray(scales, dtype=float)[..., None, None] * d.entries)
    if center:
        g = g - g.mean(axis=-1, keepdims=True)
        g = g - g.mean(axis=-2, keepdims=True)
    return g


def _spectra(d: DistanceMatrix, kernel, scales=1.0, center: bool = False) -> np.ndarray:
    """Eigenvalues of the Gram matrix kernel(s * d) for each scale s, along the last axis.

    A ring's Gram matrix is a symmetric circulant in its profile, so its
    eigenvalues are one real DFT of the kernel applied to the profile, in
    mode order with the all-ones mode j = 0 first.  Any other metric goes
    through LAPACK on the dense matrix, eigenvalues ascending; that route is
    also the ring route's test oracle.  ``center`` zeroes the all-ones mode,
    which on the dense route is double centering.
    """
    if d.profile is None:
        return np.linalg.eigvalsh(_dense_gram(d, kernel, scales, center))
    w = np.fft.fft(kernel(np.asarray(scales, dtype=float)[..., None] * d.profile)).real
    if center:
        w[..., 0] = 0.0
    return w


def _eigenpairs(d: DistanceMatrix, kernel, scale: float = 1.0, center: bool = False):
    """Eigenvalues and orthonormal eigenvector columns of the Gram matrix kernel(scale * d).

    A symmetric circulant has the real Hartley basis cas(2 pi j k / N) / sqrt(N)
    as its eigenvectors, column j with the DFT eigenvalue of mode j that
    ``_spectra`` returns (Bracewell 1983), built by ``hartley_rows``.  Any
    other metric goes through LAPACK, with each column's sign fixed so that
    its largest-magnitude entry is positive.
    """
    n = d.n_effective
    if d.profile is not None:
        return _spectra(d, kernel, scale, center), hartley_rows(n, np.arange(n))
    w, v = np.linalg.eigh(_dense_gram(d, kernel, scale, center))
    pivots = v[np.abs(v).argmax(axis=0), np.arange(n)]
    return w, v * np.where(pivots < 0.0, -1.0, 1.0)


def _share(value, scale):
    """value / scale elementwise, and 0 where the scale vanishes (an all-zero spectrum)."""
    return np.where(scale > 0, value / np.where(scale > 0, scale, 1.0), 0.0)


def _spherical_margin(w: np.ndarray):
    """Smaller of w_0 / max|w| and min(w_1..) / max|w_1..| along the last axis.

    On a ring w_0 is the all-ones mode and the other modes shrink like kappa
    as kappa -> 0, so scaling them by their own size keeps the test
    scale-free there, where it becomes the Euclidean test.  On an ascending
    dense spectrum the same formula equals min(w) / max|w|.
    """
    rest = w[..., 1:]
    return np.minimum(
        _share(w[..., 0], np.abs(w).max(axis=-1)),
        _share(rest.min(axis=-1, initial=np.inf), np.abs(rest).max(axis=-1, initial=0.0)),
    )


@dataclass(frozen=True, eq=False)
class InertiaVerdict:
    """Embeddability outcome: the ascending Gram spectrum and the scale-free margin.

    The metric embeds exactly when ``margin >= -PSD_TOL_FACTOR``.
    """

    embeddable: bool
    margin: float
    eigenvalues: np.ndarray


@dataclass(frozen=True, eq=False)
class SphericalVerdict:
    """Spherical embeddability outcome: the diameter cap, the Gram inertia and its rank."""

    embeddable: bool
    cap_ok: bool
    psd_ok: bool
    margin: float
    eigenvalues: np.ndarray
    rank: int


def embeddable_spherical(d: DistanceMatrix, kappa: float) -> SphericalVerdict:
    """Decide embeddability into the curvature-kappa sphere.

    True exactly when sqrt(kappa) times the diameter is at most pi and the
    cosine Gram matrix cos(sqrt(kappa) d) is positive semidefinite, by the
    margin of ``_spherical_margin``.  The rank counts eigenvalues above
    1e-9 times the largest, so a single lost rank (the boundary case) maps
    to an embedding one dimension down.
    """
    if not kappa > 0:
        raise InvalidArgs(f"spherical curvature must be positive, got {kappa}")
    scale = math.sqrt(kappa)
    cap_ok = scale * float(d.entries.max()) <= math.pi
    w = _spectra(d, np.cos, scale)
    margin = float(_spherical_margin(w))
    psd_ok = margin >= -PSD_TOL_FACTOR
    w = np.sort(w)
    rank = int(np.count_nonzero(w > PSD_TOL_FACTOR * w[-1]))
    return SphericalVerdict(
        embeddable=cap_ok and psd_ok,
        cap_ok=cap_ok,
        psd_ok=psd_ok,
        margin=margin,
        eigenvalues=w,
        rank=rank,
    )


def embeddable_hyperbolic(d: DistanceMatrix, kappa: float) -> InertiaVerdict:
    """Decide embeddability into hyperbolic space of curvature kappa < 0.

    The cosh Gram matrix must have exactly one positive eigenvalue.  Its
    entries are positive, so its largest eigenvalue is positive and has the
    largest magnitude (Perron-Frobenius); the margin is minus the second
    largest eigenvalue over it.
    """
    if not kappa < 0:
        raise InvalidArgs(f"hyperbolic curvature must be negative, got {kappa}")
    w = np.sort(_spectra(d, np.cosh, math.sqrt(-kappa)))
    second = w[-2] if w.size > 1 else 0.0
    margin = float(_share(-second, np.abs(w).max()))
    return InertiaVerdict(margin >= -PSD_TOL_FACTOR, margin, w)


def embeddable_euclidean(d: DistanceMatrix) -> InertiaVerdict:
    """Decide embeddability into Euclidean space (Schoenberg 1935).

    The centred Gram matrix -J (d o d) J / 2 must be positive semidefinite;
    the margin is its smallest eigenvalue over its largest magnitude.
    """
    w = np.sort(_spectra(d, _minus_half_square, center=True))
    margin = float(_share(w[0], np.abs(w).max()))
    return InertiaVerdict(margin >= -PSD_TOL_FACTOR, margin, w)

class EmbeddingSpace(enum.Enum):
    SPHERICAL = "Spherical"
    EUCLIDEAN = "Euclidean"
    HYPERBOLIC = "Hyperbolic"


@dataclass(frozen=True, eq=False)
class EmbeddingResult:
    """Realized coordinates for a successful embedding.

    Coordinates are one row per point.  Spherical rows have Euclidean norm
    1/sqrt(kappa); hyperbolic rows live on the upper hyperboloid sheet with
    Minkowski square -1/|kappa| (first coordinate timelike).  The distortion
    is the largest absolute deviation between realized geodesic distances
    and the target distances across distinct point pairs.

    ``irreducible`` means a different thing in each space: on the sphere it
    is True when the Gram rank (``ambient_dim``) is below N, on the
    hyperboloid when the rank equals N, and in Euclidean space it is always
    True (the centred Gram matrix has rank at most N - 1).
    """

    space: EmbeddingSpace
    curvature: float
    ambient_dim: int
    coordinates: np.ndarray
    max_distortion: float
    irreducible: bool


def realize(
    d: DistanceMatrix,
    space: EmbeddingSpace,
    kappa: float = 0.0,
    tol: float = DEFAULT_REALIZE_TOL,
) -> EmbeddingResult:
    """Realize an embeddable metric as explicit coordinates in the model space.

    One factorization serves all three spaces, which differ only in the
    Gram kernel, the radius r and the geodesic inverse.  The Gram matrix of
    the unit model is cos(d / r) on the sphere, the double-centred -d^2 / 2
    in Euclidean space (r = 1) and the Minkowski -cosh(d / r) on the
    hyperboloid.  Its eigenpairs come from ``_eigenpairs``: fixed Hartley
    columns for a ring, LAPACK for any other metric.  Eigenvalues above 1e-9
    of the largest magnitude are kept, ordered by magnitude, so the one
    timelike column of the hyperboloid comes first; each column is scaled
    by r sqrt|w|.  The realized Gram matrix is inverted back into geodesic
    distances (arccos, sqrt(g_ii + g_jj - 2 g_ij), arccosh) and compared
    with the input over all pairs.

    Raises
    ------
    NotEmbeddable
        When the matching embeddability test rejects the metric.
    FactorizationFailure
        When the Gram matrix has the wrong inertia beyond tolerance (a
        negative eigenvalue, or other than one on the hyperboloid) or the
        recomputed geodesic distances miss the input by more than ``tol``.
    """
    if space is EmbeddingSpace.SPHERICAL:
        verdict = embeddable_spherical(d, kappa)
        radius, kernel, geodesic = 1.0 / math.sqrt(kappa), np.cos, _arccos
    elif space is EmbeddingSpace.EUCLIDEAN:
        verdict = embeddable_euclidean(d)
        radius, kernel, geodesic = 1.0, _minus_half_square, _chord
    elif space is EmbeddingSpace.HYPERBOLIC:
        verdict = embeddable_hyperbolic(d, kappa)
        radius, kernel, geodesic = 1.0 / math.sqrt(-kappa), _minus_cosh, _arccosh
    else:
        raise InvalidArgs(f"unknown embedding space {space!r}")
    name = space.name.lower()
    if not verdict.embeddable:
        raise NotEmbeddable(
            f"not embeddable in {name} space at kappa={kappa!r} (margin {verdict.margin:.3e})"
        )
    timelike = int(space is EmbeddingSpace.HYPERBOLIC)
    w, v = _eigenpairs(d, kernel, 1.0 / radius, center=space is EmbeddingSpace.EUCLIDEAN)
    cutoff = PSD_TOL_FACTOR * float(np.abs(w).max())
    negative = int(np.count_nonzero(w < -cutoff))
    if negative != timelike:
        raise FactorizationFailure(
            f"{name} Gram matrix has {negative} negative eigenvalues, needs {timelike}"
        )
    order = np.argsort(-np.abs(w), kind="stable")
    kept = order[np.abs(w[order]) > cutoff]
    factor = v[:, kept] * np.sqrt(np.abs(w[kept]))
    gram = (factor * np.sign(w[kept])) @ factor.T
    error = np.abs(radius * geodesic(gram) - d.entries)
    np.fill_diagonal(error, 0.0)
    distortion = float(error.max())
    if distortion > tol:
        raise FactorizationFailure(
            f"{name} round-trip distortion {distortion:.3e} exceeds tol {tol:.1e}"
        )
    n = d.n_effective
    return EmbeddingResult(
        space=space,
        curvature=0.0 if space is EmbeddingSpace.EUCLIDEAN else kappa,
        ambient_dim=len(kept),
        coordinates=radius * factor,
        max_distortion=distortion,
        irreducible=len(kept) == n if timelike else len(kept) < n,
    )


@dataclass(frozen=True)
class FeasibilityThreshold:
    """Largest spherically feasible curvature and the bisection bracket above it."""

    kappa: float
    upper: float
    cap: float
    feasible_at_cap: bool
    iterations: int
    monotone_ok: bool


def spherical_feasibility_threshold(
    d: DistanceMatrix, iterations: int = BISECTION_ITERATIONS
) -> FeasibilityThreshold:
    """Largest curvature at which the metric embeds in a sphere.

    Feasibility is not monotone in kappa, so the margin is first sampled at
    ``THRESHOLD_GRID`` evenly spaced values of sqrt(kappa) in
    (0, pi / diameter], in one batch.  Above the largest feasible sample the
    root of the margin itself (no tolerance) is bisected, so the threshold
    does not sit on the tolerance edge.  ``monotone_ok`` is whether every
    sample below the threshold is feasible; a failure is logged.  With no
    feasible sample the threshold is 0 and ``upper`` the first sample.
    """
    diameter = float(d.entries.max())
    if not diameter > 0:
        raise InvalidArgs("feasibility search needs a positive diameter")
    cap = math.pi**2 / diameter**2
    grid = math.sqrt(cap) * np.arange(1, THRESHOLD_GRID + 1) / THRESHOLD_GRID
    feasible = _spherical_margin(_spectra(d, np.cos, grid)) >= -PSD_TOL_FACTOR
    feasible_at_cap = embeddable_spherical(d, cap).embeddable
    below = np.flatnonzero(feasible[:-1])
    if feasible_at_cap:
        lo = hi = grid[-1]
    elif below.size == 0:
        lo, hi = 0.0, grid[0]
    else:
        lo, hi = grid[below[-1]], grid[below[-1] + 1]
        for _ in range(iterations):
            mid = 0.5 * (lo + hi)
            if _spherical_margin(_spectra(d, np.cos, mid)) >= 0.0:
                lo = mid
            else:
                hi = mid
    kappa, upper = (cap, cap) if feasible_at_cap else (float(lo * lo), float(hi * hi))
    monotone_ok = bool(feasible[grid < lo].all())
    if not monotone_ok:
        logger.warning("feasibility not monotone: infeasible below kappa=%r", kappa)
    return FeasibilityThreshold(
        kappa=kappa,
        upper=upper,
        cap=cap,
        feasible_at_cap=feasible_at_cap,
        iterations=iterations,
        monotone_ok=monotone_ok,
    )


@dataclass(frozen=True, eq=False)
class RingEmbeddingReport:
    """Full embedding pipeline outcome for one ring.

    Even rings are quotiented first, so the embedded space is the complete
    graph on the antipodal classes.  The curvature bound uses the mean edge
    weight, bracketed by the minimum and maximum when distances are not
    uniform.  The hyperbolic section is evaluated at the reference curvature
    -1 (any negative curvature behaves identically for uniform weights).
    """

    spec: RingSpec
    quotiented: bool
    n_points: int
    classification: RingClassification
    distances: DistanceMatrix
    weight_mean: float
    weight_min: float
    weight_max: float
    kappa_max_mean_weight: float
    spherical_verdict: SphericalVerdict
    spherical_realization: EmbeddingResult | None
    threshold: FeasibilityThreshold
    euclidean_verdict: InertiaVerdict
    euclidean_realization: EmbeddingResult | None
    hyperbolic_kappa: float
    hyperbolic_verdict: InertiaVerdict
    hyperbolic_realization: EmbeddingResult | None


def ring_embedding_report(
    spec: RingSpec, tol: float = DEFAULT_REALIZE_TOL
) -> RingEmbeddingReport:
    """Classify a ring and decide/realize its constant-curvature embeddings.

    Runs the spherical test at kappa_max(points, mean weight) plus the
    search for the largest feasible curvature, and the Euclidean and
    hyperbolic tests with realizations where the verdict allows.
    """
    quotient = spec.n % 2 == 0
    d = distance_matrix(spec, quotient)
    classification = classify_ring(spec.n, d)
    values = d.offdiagonal()
    weight_mean = float(values.mean())
    weight_min = float(values.min())
    weight_max = float(values.max())
    kappa_mean = kappa_max(d.n_effective, weight_mean)

    spherical_verdict = embeddable_spherical(d, kappa_mean)
    spherical_realization = (
        realize(d, EmbeddingSpace.SPHERICAL, kappa_mean, tol)
        if spherical_verdict.embeddable
        else None
    )
    threshold = spherical_feasibility_threshold(d)

    euclidean_verdict = embeddable_euclidean(d)
    euclidean_realization = (
        realize(d, EmbeddingSpace.EUCLIDEAN, tol=tol) if euclidean_verdict.embeddable else None
    )

    hyperbolic_kappa = -1.0
    hyperbolic_verdict = embeddable_hyperbolic(d, hyperbolic_kappa)
    hyperbolic_realization = (
        realize(d, EmbeddingSpace.HYPERBOLIC, hyperbolic_kappa, tol)
        if hyperbolic_verdict.embeddable
        else None
    )

    return RingEmbeddingReport(
        spec=spec,
        quotiented=quotient,
        n_points=d.n_effective,
        classification=classification,
        distances=d,
        weight_mean=weight_mean,
        weight_min=weight_min,
        weight_max=weight_max,
        kappa_max_mean_weight=kappa_mean,
        spherical_verdict=spherical_verdict,
        spherical_realization=spherical_realization,
        threshold=threshold,
        euclidean_verdict=euclidean_verdict,
        euclidean_realization=euclidean_realization,
        hyperbolic_kappa=hyperbolic_kappa,
        hyperbolic_verdict=hyperbolic_verdict,
        hyperbolic_realization=hyperbolic_realization,
    )
