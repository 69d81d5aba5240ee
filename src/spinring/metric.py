"""Transfer-probability distances on rings and their metric-space properties.

The peak transfer probability between excitation sites i and j is

    p_max(i, j) = (sum_k |<i| Pi_k |j>|)^2

and the induced distance is d(i, j) = -log p_max(i, j).  For a ring the sum
collapses to a cosine sum over separation m = |i - j| mod n
(``sqrt_p_max_closed_form``), and that sum depends only on the order
q = n / gcd(n, m) of m in Z_n.  ``distance_profile`` evaluates the divisor
closed form in q once per distinct order, so a profile costs O(n); the
cosine sum stays as its oracle.  Even rings place antipodal sites (q = 2)
at distance zero, which makes the raw space a semi-metric; identifying
antipodal sites (the quotient) restores separation.

Ring distance matrices, raw and quotiented, are circulant: a
``DistanceMatrix`` is built from its generator alone, its entries a view of
it, and the generator is constant on the classes gcd(s, N).  So
``check_metric_axioms`` decides the triangle inequality exactly at every
size from one row of N slacks per divisor of N, and every ring statistic
is read from the generator.  The dense routines (exhaustive triples up to
200 points, seeded Monte-Carlo beyond) serve matrices without a profile
and are the oracle for the profile route.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, InvalidArgs, QuotientOnOddRing
from .hamiltonian import RingSpec
from .spectral import (
    SpectralDecomposition,
    circulant_eigenspaces,
    eigenspace_entries,
    hartley_rows,
    projector_overlaps,
)

DISTINCT_VALUE_TOL = 1e-10
TRIANGLE_TOL = 1e-10
ZERO_DISTANCE_TOL = 1e-12
EXHAUSTIVE_TRIPLE_LIMIT = 200
MONTE_CARLO_TRIPLES = 10**6
SAMPLE_CHUNK = 2**16
BLOCK = 2**14


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric nonnegative distance matrix, built from its entries or its circulant generator.

    Give exactly one of ``entries``, a square array, or ``profile``, the
    circulant generator of a ring metric: ``profile[s] = d(site 1, site 1 + s)``
    for s = 0..N - 1, so that ``entries[i, j] = profile[(j - i) mod N]``.  A
    profile is kept as a read-only copy and ``entries`` as a read-only view
    of it (O(N) memory, no N x N copy); explicit entries are kept as a
    read-only copy and ``profile`` is None.  Zero points are refused, and so
    is a NaN distance, in the profile when there is one (O(N)).
    ``n_effective`` is the point count N: n for a plain ring, n/2 after
    antipodal identification.  In a symmetric circulant each s = 1..N - 1
    stands for N/2 unordered pairs, so ring statistics and the diameter are
    read from the profile.
    """

    entries: np.ndarray | None = None
    profile: np.ndarray | None = None

    def __post_init__(self) -> None:
        circulant = self.profile is not None
        if circulant == (self.entries is not None):
            raise InvalidArgs("give exactly one of entries or profile")
        arr = np.array(self.profile if circulant else self.entries, dtype=float)
        if arr.ndim != (1 if circulant else 2) or len(set(arr.shape)) != 1 or arr.size == 0:
            raise InvalidArgs(
                f"expected a non-empty 1-D profile or square matrix, got shape {arr.shape}")
        if np.isnan(arr).any():
            raise InvalidArgs("distances must not be NaN")
        arr.flags.writeable = False
        if circulant:
            object.__setattr__(self, "profile", arr)
            # Row i holds profile[(j - i) mod N], which is window N - i.
            arr = _windows(arr)[len(arr):0:-1]
        object.__setattr__(self, "entries", arr)

    @classmethod
    def from_entries(cls, entries) -> "DistanceMatrix":
        """Wrap an explicit square array, validating shape, NaNs, symmetry and sign."""
        d = cls(entries)
        if not np.array_equal(d.entries, d.entries.T):
            raise InvalidArgs("distance matrix must be symmetric")
        if np.any(np.diag(d.entries) != 0.0):
            raise InvalidArgs("distance matrix must have a zero diagonal")
        if np.any(d.entries < 0.0):
            raise InvalidArgs("distances must be nonnegative")
        return d

    @property
    def n_effective(self) -> int:
        return len(self.entries)

    @property
    def diameter(self) -> float:
        """The largest distance, read from the profile when there is one."""
        return float((self.entries if self.profile is None else self.profile).max())

    def offdiagonal(self) -> np.ndarray:
        """Upper-triangle distances, flat: the dense oracle of the ``profile[1:]`` statistics."""
        iu = np.triu_indices(self.n_effective, 1)
        return self.entries[iu]


class MetricClassification(enum.Enum):
    METRIC = "Metric"
    SEMI_METRIC_ANTIPODAL = "SemiMetricAntipodal"
    NOT_SEMI_METRIC = "NotSemiMetric"


@dataclass(frozen=True)
class Violation:
    """One failed axiom instance; sites are 1-based."""

    kind: str
    sites: tuple
    magnitude: float


@dataclass(frozen=True)
class MetricReport:
    """Verdict on the four metric axioms with located violations."""

    identity_ok: bool
    symmetry_ok: bool
    triangle_ok: bool
    separation_ok: bool
    violations: tuple
    classification: MetricClassification
    exhaustive: bool


class RingKind(enum.Enum):
    PRIME = "Prime"
    TWICE_PRIME = "TwicePrime"
    ODD_COMPOSITE = "OddComposite"
    TWICE_COMPOSITE = "TwiceComposite"


@dataclass(frozen=True)
class RingClassification:
    """Uniformity classification of a ring's distance multiset."""

    kind: RingKind
    uniform: bool
    distinct_values: tuple


def sqrt_p_max_closed_form(n: int, m: int) -> float:
    """Closed-form square root of the peak transfer probability at separation m.

    For n = 2n' + 1 this is 1/n + (2/n) sum_{k=1}^{n'} |cos(2 pi k m / n)|;
    for n = 2n' + 2 the leading term becomes 2/n with the same sum.
    """
    if n < 3:
        raise InvalidArgs(f"ring size must be at least 3, got {n}")
    if not (0 <= m <= n // 2):
        raise InvalidArgs(f"separation must lie in 0..{n // 2}, got {m}")
    if n % 2 == 1:
        half = (n - 1) // 2
        lead = 1.0 / n
    else:
        half = (n - 2) // 2
        lead = 2.0 / n
    total = lead
    for k in range(1, half + 1):
        total += (2.0 / n) * abs(math.cos(2.0 * math.pi * k * m / n))
    return total


def p_max_closed_form(n: int, m: int) -> float:
    """Peak transfer probability at separation m, by the closed-form cosine sum."""
    s = sqrt_p_max_closed_form(n, m)
    return min(s * s, 1.0)


def p_max(dec: SpectralDecomposition, i: int, j):
    """Peak transfer probability between 1-based sites from eigenprojector overlaps.

    A 1-D array of sites ``j`` gives one value per site.
    """
    total = projector_overlaps(dec, i, j).sum(axis=0)
    return np.minimum(total * total, 1.0)


def _distance_by_order(q: int) -> float:
    """Distance -2 log sqrt(p_max) at a separation of order q in Z_n.

    Odd q gives sqrt(p_max) = 1 / (q sin(pi / 2q)), which is 1 at q = 1;
    q = 0 (mod 4) gives 2 cot(pi / q) / q; q = 2 (mod 4) gives
    2 csc(pi / q) / q, the odd value at q / 2, which is 1 at q = 2.
    """
    if q % 4 == 2:
        q //= 2
    if q % 4 == 0:
        s = 2.0 / (q * math.tan(math.pi / q))
    else:
        s = 1.0 / (q * math.sin(math.pi / (2 * q)))
    return max(0.0, -2.0 * math.log(s))


def distance_profile(n: int) -> np.ndarray:
    """Distance per separation class m = 0..floor(n/2) for an n-ring.

    The closed form is evaluated once per distinct order q = n / gcd(n, m);
    the orders are the divisors of n, found in O(sqrt(n)) steps.
    """
    if n < 3:
        raise InvalidArgs(f"ring size must be at least 3, got {n}")
    by_order = np.empty(n + 1)
    for f in range(1, math.isqrt(n) + 1):
        if n % f == 0:
            by_order[f] = _distance_by_order(f)
            by_order[n // f] = _distance_by_order(n // f)
    return by_order[n // np.gcd(n, np.arange(n // 2 + 1))]


def _windows(profile: np.ndarray) -> np.ndarray:
    """Read-only view W with W[r, b] = profile[(r + b) mod N] for r = 0..N, built without copying."""
    doubled = np.concatenate((profile, profile))
    step = doubled.strides[0]
    return np.lib.stride_tricks.as_strided(
        doubled, (len(profile) + 1, len(profile)), (step, step), writeable=False
    )


def distance_matrix(spec: RingSpec, quotient: bool = False) -> DistanceMatrix:
    """Distance matrix -log p_max of a ring, optionally after antipodal identification.

    With ``quotient`` the points are the antipodal classes of an even ring,
    represented by sites 1..n/2; class distances are well defined because the
    profile satisfies d(m) = d(n/2 - m) for even n.  Either way the matrix is
    circulant on Z_{n_effective} and carries its generator as ``profile``.

    Raises
    ------
    QuotientOnOddRing
        If the quotient is requested for odd n.
    """
    n = spec.n
    if quotient and n % 2 == 1:
        raise QuotientOnOddRing(f"antipodal identification needs even n, got n={n}")
    sep = np.arange(n // 2 if quotient else n)
    return DistanceMatrix(profile=distance_profile(n)[np.minimum(sep, n - sep)])


def _triangle_violations_exhaustive(d: np.ndarray):
    """All (i, j, k) with d(i,j) - d(i,k) - d(k,j) above tolerance, vectorized per k."""
    n = d.shape[0]
    found = []
    for k in range(n):
        slack = d - (d[:, k][:, None] + d[k, :][None, :])
        bad = np.argwhere(slack > TRIANGLE_TOL)
        for i, j in bad:
            if i != j and i != k and j != k:
                found.append(
                    Violation("triangle", (int(i) + 1, int(j) + 1, k + 1), float(slack[i, j]))
                )
    return found


def _triangle_violations_sampled(d: np.ndarray, seed: int, samples: int):
    rng = np.random.default_rng(seed)
    n = d.shape[0]
    i = rng.integers(0, n, samples)
    j = rng.integers(0, n, samples)
    k = rng.integers(0, n, samples)
    # Gather through flat indices, a chunk at a time so that the index
    # temporaries stay small beside the drawn triples.
    flat = d.ravel()
    slack = np.empty(samples)
    for start in range(0, samples, SAMPLE_CHUNK):
        ci, cj, ck = (x[start:start + SAMPLE_CHUNK] for x in (i, j, k))
        slack[start:start + SAMPLE_CHUNK] = (
            flat[ci * n + cj] - flat[ci * n + ck] - flat[ck * n + cj]
        )
    bad = np.flatnonzero(slack > TRIANGLE_TOL)
    found = []
    for b in bad:
        if i[b] != j[b] and i[b] != k[b] and j[b] != k[b]:
            found.append(
                Violation(
                    "triangle",
                    (int(i[b]) + 1, int(j[b]) + 1, int(k[b]) + 1),
                    float(slack[b]),
                )
            )
    return found


def _symmetry_violations(matrix: np.ndarray):
    asym = np.abs(matrix - matrix.T)
    return [
        Violation("symmetry", (int(i) + 1, int(j) + 1), float(asym[i, j]))
        for i, j in np.argwhere(np.triu(asym, 1) > ZERO_DISTANCE_TOL)
    ]


def zero_distance_pairs(d: DistanceMatrix) -> np.ndarray:
    """Pairs i < j with d(i, j) <= ZERO_DISTANCE_TOL, as 0-based rows (i, j) in row-major order.

    A circulant reads them off its profile; any other matrix scans its upper triangle.
    """
    if d.profile is None:
        return np.argwhere(np.triu(d.entries <= ZERO_DISTANCE_TOL, 1))
    n = d.n_effective
    zero = np.flatnonzero(d.profile[1:] <= ZERO_DISTANCE_TOL) + 1
    i = np.repeat(np.arange(n), len(zero))
    j = i + np.tile(zero, n)
    keep = j < n
    return np.stack((i[keep], j[keep]), axis=1)


def _circulant_triangle_ok(profile: np.ndarray) -> bool:
    """Whether no slack c[a + b] - (c[a] + c[b]) of a circulant exceeds TRIANGLE_TOL.

    The triple (i, i + a, i + a + b) has this slack, bit for bit the dense
    check's d(i, j) - (d(i, k) + d(k, j)), so checking every (a, b) is exact.
    The pairs with b = 0 or a + b = 0 (mod N) are no triples; their slacks
    -c[0] and c[0] - (c[a] + c[-a]) are not positive when c[0] = 0 and
    c >= 0, and a positive one only sends the caller to the dense listing.
    When c[-x] == c[x] exactly, (a, b) and (-a, -b) share a slack and rows
    a > N/2 are skipped.  When c is constant on the classes gcd(x, N), a row
    a = u e, u a unit, has row e's slacks (b -> u b), so one row per divisor
    e < N is checked.  Rows are taken about BLOCK slacks at a time.
    """
    n = len(profile)
    sep, gcd = np.arange(n), np.gcd(np.arange(n), n)
    if np.array_equal(profile, profile[gcd % n]):
        rows = sep[gcd == sep]
    else:
        rows = sep[1:n // 2 + 1 if np.array_equal(profile, profile[-sep]) else n]
    windows, step = _windows(profile), max(1, BLOCK // n)
    for block in (rows[i:i + step] for i in range(0, len(rows), step)):
        slack = np.add.outer(profile[block], profile)
        np.subtract(windows[block], slack, out=slack)
        if (slack > TRIANGLE_TOL).any():
            return False
    return True


def check_metric_axioms(
    d: DistanceMatrix,
    seed: int = 0,
    exhaustive_limit: int = EXHAUSTIVE_TRIPLE_LIMIT,
    mc_samples: int = MONTE_CARLO_TRIPLES,
) -> MetricReport:
    """Verify identity, symmetry, separation and the triangle inequality.

    A matrix that carries its circulant ``profile`` (every ring metric, the
    antipodal quotient included) is checked exactly at every size from
    profile slacks, on a ring one row per divisor of N: the check is always
    exhaustive and ``seed`` is not used.  Violations found there are listed
    by the dense routines, so they come in the same order and with the same
    magnitudes as for the dense matrix.  Without a profile, triples are
    checked exhaustively up to ``exhaustive_limit`` points and by seeded
    Monte-Carlo sampling above it.
    Zero distances between distinct points are separation violations; when
    every one of them sits on an antipodal pair (j - i = n/2) the space
    classifies as a semi-metric that becomes a metric after antipodal
    identification.
    """
    matrix = d.entries
    n = d.n_effective
    profile = d.profile
    violations = []

    diag = np.abs(np.diag(matrix))
    for i in np.flatnonzero(diag > ZERO_DISTANCE_TOL):
        violations.append(Violation("identity", (int(i) + 1,), float(diag[i])))
    identity_ok = not violations

    if profile is None or np.any(
        np.abs(profile - profile[-np.arange(n)]) > ZERO_DISTANCE_TOL
    ):
        symmetry = _symmetry_violations(matrix)
    else:
        symmetry = []
    violations.extend(symmetry)
    symmetry_ok = not symmetry

    zero_pairs = zero_distance_pairs(d)
    violations.extend(Violation("separation", (i + 1, j + 1), float(matrix[i, j]))
                      for i, j in zero_pairs.tolist())
    separation_ok = not len(zero_pairs)

    exhaustive = profile is not None or n <= exhaustive_limit
    if profile is not None and _circulant_triangle_ok(profile):
        triangle = []
    elif exhaustive:
        triangle = _triangle_violations_exhaustive(matrix)
    else:
        triangle = _triangle_violations_sampled(matrix, seed, mc_samples)
    violations.extend(triangle)
    triangle_ok = not triangle

    if identity_ok and symmetry_ok and triangle_ok and separation_ok:
        classification = MetricClassification.METRIC
    else:
        # Both pair lists are in row-major order: equal sets are equal arrays.
        antipodal = np.arange(n // 2)[:, None] + [0, n // 2]
        only_antipodal = (
            identity_ok
            and symmetry_ok
            and triangle_ok
            and n % 2 == 0
            and np.array_equal(zero_pairs, antipodal)
        )
        classification = (
            MetricClassification.SEMI_METRIC_ANTIPODAL
            if only_antipodal
            else MetricClassification.NOT_SEMI_METRIC
        )
    return MetricReport(
        identity_ok=identity_ok,
        symmetry_ok=symmetry_ok,
        triangle_ok=triangle_ok,
        separation_ok=separation_ok,
        violations=tuple(violations),
        classification=classification,
        exhaustive=exhaustive,
    )


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def merge_distinct_values(values: np.ndarray) -> tuple:
    """Sorted distinct representatives of a value multiset, merging within DISTINCT_VALUE_TOL."""
    if values.size == 0:
        return ()
    ordered = np.sort(values)
    cuts = np.flatnonzero(np.diff(ordered) > DISTINCT_VALUE_TOL) + 1
    return tuple(float(np.mean(group)) for group in np.split(ordered, cuts))


def classify_ring(n: int, d: DistanceMatrix) -> RingClassification:
    """Uniformity classification of a ring from its distance profile (quotiented when even)."""
    if d.profile is None:
        raise InvalidArgs("classify_ring needs a ring distance matrix with a circulant profile")
    if n % 2 == 0:
        kind = RingKind.TWICE_PRIME if _is_prime(n // 2) else RingKind.TWICE_COMPOSITE
    else:
        kind = RingKind.PRIME if _is_prime(n) else RingKind.ODD_COMPOSITE
    distinct = merge_distinct_values(d.profile[1:])
    return RingClassification(kind=kind, uniform=len(distinct) == 1, distinct_values=distinct)


def asymptotic_distance() -> float:
    """Large-n limit of the ring distance, 2 log(pi / 2)."""
    return 2.0 * math.log(math.pi / 2.0)


def distance_variance_sweep(
    n_min: int, n_max: int, quotient_policy: str = "auto"
) -> list:
    """Variance of the off-diagonal distance multiset for each ring size, from its profile.

    ``quotient_policy`` is "auto" (identify antipodal sites on even rings)
    or "never".  Returns a list of (n, variance) pairs ready for plotting.
    A distance depends on its separation s only through the order
    q = n / gcd(n, s), so one table of the distance by order, q <= n_max,
    serves every ring, and the rings are gathered from it in flat chunks of
    about BLOCK entries, each ring's values after one zero slot (s = 0).
    Sums by ``np.add.reduceat`` are then 0 + the pairwise sum of the values,
    as in ``np.sum``, so each variance is bit for bit ``np.var`` of the profile.
    """
    if not 3 <= n_min <= n_max:
        raise InvalidArgs(f"need 3 <= n_min <= n_max, got {n_min}..{n_max}")
    if quotient_policy not in ("auto", "never"):
        raise InvalidArgs(f"unknown quotient policy {quotient_policy!r}")
    # Entry q is the distance at order q; separation 0 has order 1 and +0.0.
    by_order = np.array([0.0, *map(_distance_by_order, range(1, n_max + 1))])
    sizes = np.arange(n_min, n_max + 1)
    points = np.where((quotient_policy == "auto") & (sizes % 2 == 0), sizes // 2, sizes)
    # A chunk holds the rings that end in one block of BLOCK entries.
    cuts = np.flatnonzero(np.diff(np.cumsum(points) // BLOCK)) + 1
    rows = []
    for n, counts in zip(np.split(sizes, cuts), np.split(points, cuts)):
        starts = np.cumsum(counts) - counts
        ring = np.repeat(n, counts)
        sep = np.arange(len(ring)) - np.repeat(starts, counts)
        values = by_order[np.floor_divide(ring, np.gcd(sep, ring, out=sep), out=sep)]
        deviations = values - np.repeat(np.add.reduceat(values, starts) / (counts - 1), counts)
        deviations[starts] = 0.0
        variances = np.add.reduceat(deviations * deviations, starts) / (counts - 1)
        rows.extend(zip(n.tolist(), variances.tolist()))
    return rows


def transfer_probability_time_series(
    spec: RingSpec, i: int, j, t_grid
) -> np.ndarray:
    """Transfer probability p(t) = |<i| exp(-iHt) |j>|^2 on a caller-supplied grid.

    Evaluated through the eigenspace expansion with real cosine and sine
    arithmetic: the eigenvalues and eigenspaces come from
    ``circulant_eigenspaces``, and the projector entries <i| Pi_k |j> from
    Hartley basis rows i and j (``eigenspace_entries``), so memory grows
    with (1 + number of sites) * n, never n^2.  ``j`` is one site, which
    gives a series of len(t_grid) samples, or a 1-D array of sites, which
    gives one column per site; the cosines and sines of the phases are
    evaluated once for all sites.  Every sample is bounded by the peak
    probability; the library never claims a grid maximum is the supremum
    over all times.
    """
    t = np.asarray(t_grid, dtype=float)
    if np.any(t < 0.0):
        raise InvalidArgs("time samples must be nonnegative")
    n = spec.n
    sites = np.asarray(j)
    if sites.ndim > 1 or sites.size == 0 or not np.issubdtype(sites.dtype, np.integer):
        raise InvalidArgs(f"j must be a site or a non-empty 1-D array of sites, got {j!r}")
    if not (1 <= i <= n) or np.any((sites < 1) | (sites > n)):
        raise IndexOutOfRange(f"sites must lie in 1..{n}, got ({i}, {j})")
    eigenvalues, multiplicities, order = circulant_eigenspaces([spec])
    rows = hartley_rows(n, np.append(i, sites.ravel()) - 1)[:, order]
    coeff = eigenspace_entries(rows[0], rows[1:], multiplicities)
    phases = np.outer(t, eigenvalues)
    cos = np.cos(phases)
    sin = np.sin(phases)
    # One matrix-vector product per site, so each column is bit-identical
    # to the single-site series.
    series = [(cos @ row) ** 2 + (sin @ row) ** 2 for row in coeff]
    return series[0] if sites.ndim == 0 else np.stack(series, axis=1)
