"""Isometric embeddings of finite metric spaces into constant-curvature spaces.

Every decision is an inertia test on the spectrum of one Gram matrix:

- Euclidean: the centred Gram matrix -J (d o d) J / 2 is positive
  semidefinite (Schoenberg 1935).
- Sphere of curvature kappa > 0: sqrt(kappa) times the diameter is at most
  pi and cos(sqrt(kappa) d) is positive semidefinite.
- Hyperbolic space of curvature kappa < 0: cosh(sqrt(-kappa) d) has exactly
  one positive eigenvalue.

A ring's Gram matrices are circulants constant on the classes gcd(s, N), so
their eigenvalues take one value per divisor of N, the kernel values weighed
by Ramanujan sums (``DistanceMatrix.ramanujan``).  A ring keeps its last
decision, so one spectrum evaluation per (ring, space, kappa) serves both the
verdict and the realization.  Explicit entries go through
LAPACK on the dense matrix, also the rings' test oracle; a Gram matrix that
overflows is refused with InvalidArgs.  One rule reads every spectrum: each
mode's signed share of its own scale.  A verdict's margin is the smallest
share and is True iff it is at least -1e-9; its rank counts the modes whose
share exceeds 1e-9.  On rings both curved margins measure the non-constant
modes against their own size, which shrinks like |kappa|, and the kernels
are taken in half-angle form so that those modes keep full precision; the
verdicts stay valid as kappa -> 0, where they become the Euclidean test.

The realizations decide on the spectrum they factor and factor exactly the
modes the rank counts.  A symmetric circulant has the real Hartley basis
cas(2 pi j k / N) / sqrt(N) as its eigenvectors (Bracewell, JOSA 73, 1983),
so a ring's coordinates are Hartley columns scaled by the square roots of
their class eigenvalues, with no eigensolver; explicit entries use LAPACK.

Spherical feasibility is not an interval (0, kappa*]: the ring n = 16 and
the rings n = 4 (mod 8) with n >= 12 embed only in a window of curvatures,
and the rings n = 0 (mod 8) with n >= 24 in no sphere at all.  The
threshold search samples the margin on a grid of sqrt(kappa), refines its
root above the largest feasible sample in batched sweeps of evenly spaced
points, and reports whether every sample below is feasible.

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
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import FactorizationFailure, InvalidArgs, NotEmbeddable
from .hamiltonian import RingSpec
from .metric import DistanceMatrix, RingClassification, classify_ring, distance_matrix
from .spectral import hartley_rows

logger = logging.getLogger(__name__)

PSD_TOL_FACTOR = 1e-9
DEFAULT_REALIZE_TOL = 1e-8
THRESHOLD_GRID = 256
SWEEP_POINTS = 31


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

    Closed form (1 - c)^(k-1) * ((k - 1) c + 1); array arguments broadcast.
    """
    if np.any(np.asarray(k) < 1):
        raise InvalidArgs(f"minor order must be at least 1, got {k}")
    return (1.0 - c) ** (k - 1) * ((k - 1) * c + 1.0)


def toeplitz_minor_recursion(k_max: int, c: float) -> list:
    """Minor sequence t_1..t_{k_max} by the three-term recursion.

    t_{k+1} = (1-c) t_k + (1-c)^2 t_{k-1} - (1-c)^3 t_{k-2}, seeded with
    t_1 = 1, t_2 = 1 - c^2, t_3 = (1-c)^2 (2c + 1).  An array c gives one
    array per order after t_1.
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


class EmbeddingSpace(enum.Enum):
    SPHERICAL = "Spherical"
    EUCLIDEAN = "Euclidean"
    HYPERBOLIC = "Hyperbolic"


@dataclass(frozen=True)
class _Model:
    """The unit model of one space: its Gram kernel and its geodesic as a function of chord length.

    The kernel is ``constant + varying(x)`` with varying(0) = 0, in half-angle
    form: cos x = 1 - 2 sin^2(x/2) on the sphere, the Minkowski
    -cosh x = -1 - 2 sinh^2(x/2) on the hyperboloid (``timelike``: its lead
    mode is negative) and the double-centred -x^2 / 2 in Euclidean space.
    The geodesic inverts the chord c = |x_i - x_j| of two model points:
    2 arcsin(c/2), c and 2 arcsinh(c/2).
    """

    constant: float
    varying: Callable
    center: bool
    timelike: int
    geodesic: Callable


_MODELS = {
    EmbeddingSpace.SPHERICAL: _Model(
        1.0, lambda x: -2.0 * np.sin(0.5 * x) ** 2, False, 0,
        lambda c: 2.0 * np.arcsin(np.minimum(0.5 * c, 1.0))),
    EmbeddingSpace.EUCLIDEAN: _Model(0.0, lambda x: -0.5 * x * x, True, 0, lambda c: c),
    EmbeddingSpace.HYPERBOLIC: _Model(
        -1.0, lambda x: -2.0 * np.sinh(0.5 * x) ** 2, False, 1,
        lambda c: 2.0 * np.arcsinh(0.5 * c)),
}


def _scale(space: EmbeddingSpace, kappa: float) -> float:
    """sqrt|kappa|, the unit model's scale (1 in Euclidean space).

    Off Euclidean space kappa must be finite, normal (|kappa| at least the
    smallest normal double) and have the space's sign.  A subnormal kappa
    has lost precision, and its verdict can disagree with its realization.
    """
    if space is EmbeddingSpace.EUCLIDEAN:
        return 1.0
    if space is EmbeddingSpace.SPHERICAL:
        if not kappa > 0:
            raise InvalidArgs(f"spherical curvature must be positive, got {kappa}")
    elif space is EmbeddingSpace.HYPERBOLIC:
        if not kappa < 0:
            raise InvalidArgs(f"hyperbolic curvature must be negative, got {kappa}")
    else:
        raise InvalidArgs(f"unknown embedding space {space!r}")
    if math.isinf(kappa):
        raise InvalidArgs(f"curvature must be finite, got {kappa}")
    if abs(kappa) < sys.float_info.min:
        raise InvalidArgs(f"curvature must be a normal double, got {kappa}")
    return math.sqrt(abs(kappa))


def _finite(x: np.ndarray, space: EmbeddingSpace, kappa: float) -> np.ndarray:
    """x, refused unless every entry is finite: the unit model's kernel overflowed at kappa."""
    if not np.isfinite(x).all():
        raise InvalidArgs(f"{space.name.lower()} Gram matrix is not finite at kappa={kappa!r}")
    return x


def _dense_gram(d: DistanceMatrix, space: EmbeddingSpace, kappa: float, scale: float) -> np.ndarray:
    """The unit-model Gram matrix at scale * d; one that overflows is refused."""
    model = _MODELS[space]
    with np.errstate(over="ignore", invalid="ignore"):
        g = model.constant + model.varying(scale * d.entries)
        if model.center:
            g = g - g.mean(axis=-1, keepdims=True)
            g = g - g.mean(axis=-2, keepdims=True)
    return _finite(g, space, kappa)


def _spectra(d: DistanceMatrix, space: EmbeddingSpace, kappa: float, scales) -> np.ndarray:
    """Eigenvalues of the unit-model Gram matrix at s * d for each scale s, along the last axis.

    On a ring mode j's eigenvalue is lambda_g = sum_e c_{N/e}(g) K(D_e),
    g = gcd(j, N): one value per class of ``d.divisors``, the all-ones class
    first and alone given the constant, so the others keep full relative
    precision as kappa -> 0, where they shrink like |kappa|.  Explicit entries
    go through LAPACK, ascending (the rings' oracle), one Gram matrix at a
    time; an overflow names ``kappa``.
    """
    scales = np.asarray(scales, dtype=float)
    if d.divisors is None:
        return np.reshape([np.linalg.eigvalsh(_dense_gram(d, space, kappa, s)) for s in scales.flat],
                          scales.shape + (d.n_effective,))
    model = _MODELS[space]
    with np.errstate(over="ignore", invalid="ignore"):
        varying = model.varying(scales[..., None] * d.values)
        w = varying @ d.sums.T
        w[..., 0] = 0.0 if model.center else (model.constant + varying) @ d.sums[0]
    return w


def _shares(w: np.ndarray, timelike: int = 0) -> np.ndarray:
    """Each mode's signed share of its own scale, along the last axis of a Gram spectrum w.

    The lead mode w_0 must be positive (negative when ``timelike``, so its
    sign is flipped) and is measured against max|w|; every other mode must be
    nonnegative and is measured against the largest magnitude among them; a
    vanishing scale gives a share of 0.  On a ring w_0 is the all-ones mode,
    the Perron mode on the hyperboloid, and the others shrink like |kappa|
    as kappa -> 0, so the test stays scale-free there, where it becomes the
    Euclidean one.  On an ascending dense spectrum w_0 is the smallest
    eigenvalue (the timelike Perron mode of -cosh), and the margin of the
    sphere and of Euclidean space equals min(w) / max|w|.
    """
    scales = np.empty_like(w)
    scales[...] = np.abs(w[..., 1:]).max(axis=-1, keepdims=True, initial=0.0)
    scales[..., 0] = np.abs(w).max(axis=-1)
    signed = w.copy()
    signed[..., 0] *= -1.0 if timelike else 1.0
    return np.divide(signed, scales, out=np.zeros_like(w), where=scales > 0)


@dataclass(frozen=True, eq=False)
class Verdict:
    """Embeddability outcome in one space, read off the spectrum of its unit-model Gram matrix.

    ``margin`` is the smallest mode share (``_shares``), ``psd_ok`` is
    ``margin >= -PSD_TOL_FACTOR`` and ``cap_ok`` the sphere's diameter cap
    (True elsewhere, and at a zero diameter, which has no cap); the metric
    embeds when both hold.  ``rank`` counts the kept modes, whose share
    exceeds PSD_TOL_FACTOR: the columns ``realize`` factors.  ``eigenvalues``
    ascend, of the cosh matrix on the hyperboloid.
    """

    embeddable: bool
    cap_ok: bool
    psd_ok: bool
    margin: float
    eigenvalues: np.ndarray
    rank: int


def _decide(d: DistanceMatrix, space: EmbeddingSpace, kappa: float, w: np.ndarray):
    """The verdict on ``d`` in ``space`` from the spectrum w of its unit-model Gram matrix.

    Also returns whether each value of w, on a ring each class, is kept: its
    share exceeds PSD_TOL_FACTOR.  A non-finite w raises InvalidArgs.
    """
    timelike = _MODELS[space].timelike
    shares = _shares(_finite(w, space, kappa), timelike)
    margin = float(shares.min())
    psd_ok = margin >= -PSD_TOL_FACTOR
    # A square of 0 puts the cap past every double; * overflows to inf (** raises): a cap of 0.
    cap_ok = (space is not EmbeddingSpace.SPHERICAL or d.diameter * d.diameter == 0.0
              or kappa <= math.pi**2 / (d.diameter * d.diameter))
    keep = shares > PSD_TOL_FACTOR
    sizes = 1 if d.divisors is None else d.ramanujan[0].astype(int)
    eigenvalues = np.sort(np.repeat(-w if timelike else w, sizes))
    rank = int((keep * sizes).sum())
    return Verdict(cap_ok and psd_ok, cap_ok, psd_ok, margin, eigenvalues, rank), keep


def _decision(d: DistanceMatrix, space: EmbeddingSpace, kappa: float):
    """The spectrum w of the unit-model Gram matrix at kappa, the verdict on it and its kept values.

    A ring keeps its last decision beside its other derived state; explicit entries keep none.
    """
    memo = vars(d).get("_decision")
    if memo is None or memo[0] != (space, kappa):
        w = _spectra(d, space, kappa, _scale(space, kappa))
        memo = ((space, kappa), w, *_decide(d, space, kappa, w))
        if d.divisors is not None:
            vars(d)["_decision"] = memo
    return memo[1:]


def embeddable_spherical(d: DistanceMatrix, kappa: float) -> Verdict:
    """Decide embeddability into the curvature-kappa sphere.

    True exactly when kappa is at most the cap pi^2 / diameter^2, the
    expression the threshold search reports, and the cosine Gram matrix
    cos(sqrt(kappa) d) is positive semidefinite within the margin.  A single
    lost rank (the boundary case) maps to an embedding one dimension down.
    """
    return _decision(d, EmbeddingSpace.SPHERICAL, kappa)[1]


def embeddable_hyperbolic(d: DistanceMatrix, kappa: float) -> Verdict:
    """Decide embeddability into hyperbolic space of curvature kappa < 0.

    The cosh Gram matrix must have exactly one positive eigenvalue.  Its
    entries are positive, so its largest eigenvalue is positive and has the
    largest magnitude (Perron-Frobenius); on a ring it is the all-ones mode.
    The margin measures minus each other eigenvalue against the largest
    magnitude among them, so it does not vanish as kappa -> 0.  The rank
    counts the Perron mode too; a kappa at which cosh overflows is refused.
    """
    return _decision(d, EmbeddingSpace.HYPERBOLIC, kappa)[1]


def embeddable_euclidean(d: DistanceMatrix) -> Verdict:
    """Decide embeddability into Euclidean space (Schoenberg 1935).

    The centred Gram matrix -J (d o d) J / 2 must be positive semidefinite;
    the margin is its smallest eigenvalue over its largest magnitude.
    """
    return _decision(d, EmbeddingSpace.EUCLIDEAN, 0.0)[1]


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

    curvature: float
    ambient_dim: int
    coordinates: np.ndarray
    max_distortion: float
    irreducible: bool


def realize(d: DistanceMatrix, space: EmbeddingSpace, kappa: float = 0.0) -> EmbeddingResult:
    """Realize an embeddable metric as explicit coordinates in the model space.

    One factorization serves all three spaces, which differ only in the
    unit model (``_MODELS``) and the radius r = 1 / sqrt|kappa| (1 in
    Euclidean space).  A ring's eigenvectors are the Hartley columns, column j
    gathered from row 1 at (k j) mod N; other metrics use LAPACK ``eigh``, each
    column's largest-magnitude entry made positive.  The verdict's kept modes,
    in the order of the spectrum, are the columns factored, each scaled by
    r sqrt|w|, so ``ambient_dim`` is its rank and the hyperboloid's timelike
    column comes first.  The column-centred factor's geodesic distances are
    compared with the input; a ring's with its distance once per class e, the
    squared chord 2/N times the kept class values weighed by phi(N/g) - c_{N/g}(e) >= 0.

    Raises
    ------
    NotEmbeddable
        When the matching embeddability test rejects the metric.
    FactorizationFailure
        When the recomputed geodesic distances miss the input by more than
        ``DEFAULT_REALIZE_TOL``.
    InvalidArgs
        When kappa does not fit the space or the Gram matrix is not finite.
    """
    scale = _scale(space, kappa)
    model = _MODELS[space]
    n = d.n_effective
    if d.divisors is None:
        w, v = np.linalg.eigh(_dense_gram(d, space, kappa, scale))
        v = v * np.where(v[np.abs(v).argmax(axis=0), np.arange(n)] < 0.0, -1.0, 1.0)
        verdict, keep = _decide(d, space, kappa, w)
    else:
        w, verdict, keep = _decision(d, space, kappa)
    name = space.name.lower()
    if not verdict.embeddable:
        raise NotEmbeddable(
            f"not embeddable in {name} space at kappa={kappa!r} (margin {verdict.margin:.3e})"
        )
    if d.divisors is None:
        factor = v[:, keep] * np.sqrt(np.abs(w[keep]))
        centred = factor - factor.mean(axis=0)
        gram = (centred * np.sign(w[keep])) @ centred.T
        norms = np.diag(gram)
        chords = np.sqrt(np.clip(norms[:, None] + norms - 2.0 * gram, 0.0, None))
        error = np.abs(model.geodesic(chords) / scale - d.entries)
        np.fill_diagonal(error, 0.0)
    else:
        modes = np.flatnonzero(keep[d.mode_class])
        phases = np.multiply.outer(np.arange(n), modes)
        factor = hartley_rows(n, [1 % n])[0][np.remainder(phases, n, out=phases)]
        factor *= np.sqrt(np.abs(w[d.mode_class[modes]]))
        chords = np.sqrt(2.0 / n * ((d.ramanujan[0] - d.ramanujan) @ np.where(keep, w, 0.0)))
        error = np.abs(model.geodesic(chords) / scale - d.by_class)
    distortion = float(error.max())
    if distortion > DEFAULT_REALIZE_TOL:
        raise FactorizationFailure(f"{name} round-trip distortion {distortion:.3e} "
                                   f"exceeds tol {DEFAULT_REALIZE_TOL:.1e}")
    return EmbeddingResult(
        curvature=0.0 if space is EmbeddingSpace.EUCLIDEAN else kappa,
        ambient_dim=verdict.rank,
        coordinates=factor / scale,
        max_distortion=distortion,
        irreducible=verdict.rank == n if model.timelike else verdict.rank < n,
    )


@dataclass(frozen=True)
class FeasibilityThreshold:
    """Largest spherically feasible curvature and the upper end of the refined cell above it."""

    kappa: float
    upper: float
    cap: float
    feasible_at_cap: bool
    monotone_ok: bool


def spherical_feasibility_threshold(d: DistanceMatrix) -> FeasibilityThreshold:
    """Largest curvature at which the metric embeds in a sphere.

    Feasibility is not monotone in kappa, so the margin is first sampled at
    ``THRESHOLD_GRID`` values of sqrt(kappa) evenly spaced in (0, pi / diameter],
    in one batch of d(N) class values each on a ring; the last is the cap.
    Each sweep then samples ``SWEEP_POINTS`` evenly spaced points inside the
    cell above the largest feasible sample, in one batch, and keeps the cell
    ending at the first one where the margin itself (no tolerance) is
    negative, until its ends are adjacent doubles.  ``monotone_ok`` is whether
    every sample below the threshold is feasible; a failure is logged.  With
    no feasible sample the threshold is 0 and ``upper`` the first sample.
    """
    square = d.diameter * d.diameter
    cap = math.pi**2 / square if square > 0.0 else math.inf
    if not 0.0 < cap < math.inf:
        raise InvalidArgs("feasibility search needs a positive finite diameter with a finite cap")
    grid = math.sqrt(cap) * np.arange(1, THRESHOLD_GRID + 1) / THRESHOLD_GRID
    sphere = EmbeddingSpace.SPHERICAL
    feasible = _shares(_spectra(d, sphere, cap, grid)).min(axis=-1) >= -PSD_TOL_FACTOR
    feasible_at_cap = bool(feasible[-1])
    below = np.flatnonzero(feasible[:-1])
    if feasible_at_cap:
        lo = hi = grid[-1]
    elif below.size == 0:
        lo, hi = 0.0, grid[0]
    else:
        lo, hi = grid[below[-1]], grid[below[-1] + 1]
        while lo < 0.5 * (lo + hi) < hi:
            points = lo + (hi - lo) * np.arange(SWEEP_POINTS + 2) / (SWEEP_POINTS + 1)
            negative = _shares(_spectra(d, sphere, cap, points[1:-1])).min(axis=-1) < 0.0
            cut = 1 + int(np.append(negative, True).argmax())
            lo, hi = points[cut - 1], points[cut]
    kappa, upper = (cap, cap) if feasible_at_cap else (float(lo * lo), float(hi * hi))
    monotone_ok = bool(feasible[grid < lo].all())
    if not monotone_ok:
        logger.warning("feasibility not monotone: infeasible below kappa=%r", kappa)
    return FeasibilityThreshold(
        kappa=kappa,
        upper=upper,
        cap=cap,
        feasible_at_cap=feasible_at_cap,
        monotone_ok=monotone_ok,
    )


@dataclass(frozen=True, eq=False)
class RingEmbedding:
    """One ring's embedding pipeline in one space: what ``embed`` reports.

    Even rings are quotiented first, so the embedded space is the complete
    graph on the antipodal classes.  The weights are the off-diagonal
    distances; ``kappa_max_mean_weight`` is the uniform bound at their mean.
    ``threshold`` is the spherical search (None off the sphere) and
    ``kappa`` the curvature decided at (None in Euclidean space).
    """

    quotiented: bool
    distances: DistanceMatrix
    classification: RingClassification
    weight_mean: float
    weight_min: float
    weight_max: float
    kappa_max_mean_weight: float
    threshold: FeasibilityThreshold | None
    kappa: float | None
    verdict: Verdict
    realization: EmbeddingResult | None


def ring_embedding(
    spec: RingSpec, space: EmbeddingSpace, kappa: float | None = None
) -> RingEmbedding:
    """Classify a ring, decide its embedding in ``space`` at ``kappa``, realize it if it embeds.

    ``kappa=None`` picks the curvature: -1 on the hyperboloid; on the sphere
    the searched threshold, or ``kappa_max`` at the mean weight for uniform
    rings and for rings with no feasible curvature.  Euclidean space
    ignores ``kappa``.  The sphere runs the threshold search whatever the
    curvature.
    """
    quotient = spec.n % 2 == 0
    d = distance_matrix(spec, quotient)
    classification = classify_ring(spec.n, d)
    values = d.profile[1:]
    weight_mean = float(values.mean())
    kappa_mean = kappa_max(d.n_effective, weight_mean)
    threshold = None
    if space is EmbeddingSpace.SPHERICAL:
        threshold = spherical_feasibility_threshold(d)
        if kappa is None:
            uniform_or_none = classification.uniform or not threshold.kappa > 0
            kappa = kappa_mean if uniform_or_none else threshold.kappa
        verdict = embeddable_spherical(d, kappa)
    elif space is EmbeddingSpace.HYPERBOLIC:
        kappa = -1.0 if kappa is None else kappa
        verdict = embeddable_hyperbolic(d, kappa)
    else:
        kappa = None
        verdict = embeddable_euclidean(d)
    realization = None
    if verdict.embeddable:
        realization = realize(d, space, 0.0 if kappa is None else kappa)
    return RingEmbedding(
        quotiented=quotient,
        distances=d,
        classification=classification,
        weight_mean=weight_mean,
        weight_min=float(values.min()),
        weight_max=float(values.max()),
        kappa_max_mean_weight=kappa_mean,
        threshold=threshold,
        kappa=kappa,
        verdict=verdict,
        realization=realization,
    )
