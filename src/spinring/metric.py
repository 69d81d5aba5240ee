"""Transfer-probability distances on rings and their metric-space properties.

The peak transfer probability between excitation sites i and j is

    p_max(i, j) = (sum_k |<i| Pi_k |j>|)^2

and the induced distance is d(i, j) = -log p_max(i, j).  For a ring the sum
collapses to a cosine sum over separation m = |i - j| mod n
(``sqrt_p_max_closed_form``), and that sum depends only on the order
q = n / gcd(n, m) of m in Z_n.  ``distance_profile`` writes the divisor
closed form at q = n / e to the multiples of each divisor e of n, so a
profile costs O(n); the cosine sum stays as its oracle.  Even rings place
antipodal sites (q = 2) at distance zero, which makes the raw space a
semi-metric; identifying antipodal sites (the quotient) restores separation.

Ring distance matrices, raw and quotiented, are circulants constant on the
classes gcd(s, N), so a ring metric is fixed by one distance per divisor of
N: a ring ``DistanceMatrix`` is that class table, built from the
factorization of N in one pass over its divisors.  Its profile and entries
are derived only when an output or a dense oracle reads them; a profile
given by a caller must be constant on the classes.  ``check_metric_axioms``
decides a ring from its classes at every size, the triangle inequality
exactly from one slack per class triple that occurs in Z_N, and
``classify_ring`` takes the ring kind from the divisor count.  The dense
routines (exhaustive triples up to 200 points, seeded Monte-Carlo beyond)
serve explicit entries and are the oracle for the class route.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import FrozenInstanceError, dataclass

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


class DistanceMatrix:
    """Symmetric nonnegative distance matrix, from its entries or, on a ring, its class table.

    Give exactly one of ``entries``, a square array, or ``profile``, the
    circulant generator of a ring metric: ``profile[s] = d(site 1, site 1 + s)``
    for s = 0..N - 1, so that ``entries[i, j] = profile[(j - i) mod N]``.  A
    profile must be constant on the classes gcd(s, N), as every ring metric is
    (other circulants go through ``from_entries``).  A ring is its class table:
    the ``divisors`` of N, largest first, and one distance ``by_class``; its
    other fields are derived from them when first read.  Explicit entries are
    kept as a read-only copy, with ``divisors`` None.  Zero points, non-numbers,
    NaN and negative distances are refused.  ``n_effective`` is the point
    count N: n for a ring, n/2 after antipodal identification.
    """

    def __init__(self, entries=None, profile=None) -> None:
        circulant = profile is not None
        if circulant == (entries is not None):
            raise InvalidArgs("give exactly one of entries or profile")
        try:
            arr = np.array(profile if circulant else entries, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidArgs(f"distances must form an array of numbers: {exc}") from None
        if arr.ndim != (1 if circulant else 2) or len(set(arr.shape)) != 1 or arr.size == 0:
            raise InvalidArgs(
                f"expected a non-empty 1-D profile or square matrix, got shape {arr.shape}")
        if np.isnan(arr).any():
            raise InvalidArgs("distances must not be NaN")
        if (arr < 0.0).any():
            raise InvalidArgs("distances must be nonnegative")
        arr.flags.writeable = False
        if not circulant:
            self.__dict__.update(n_effective=len(arr), entries=arr, profile=None, divisors=None)
            return
        self._set_table(len(arr), lambda e: arr[e % len(arr)])
        if not np.array_equal(arr, self._by_gcd(self.by_class)):
            raise InvalidArgs("profile is not constant on the classes gcd(s, N): use from_entries")
        self.__dict__["profile"] = arr

    def __setattr__(self, name, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def _set_table(self, points: int, distance) -> None:
        """Keep the class table of a ring of ``points`` points: ``distance(e)`` for each divisor e."""
        factors = _factorization(points)
        divisors = sorted(_mixed_radix(factors), reverse=True)
        self.__dict__.update(n_effective=points, _factors=factors, divisors=np.array(divisors),
                             by_class=np.array([distance(e) for e in divisors], dtype=float))

    def _by_gcd(self, values: np.ndarray) -> np.ndarray:
        """Read-only values[class of gcd(s, N)], s = 0..N - 1: one strided fill per class, smallest first."""
        out = np.empty(self.n_effective, dtype=values.dtype)
        for e, value in zip(self.divisors[::-1].tolist(), values[::-1].tolist()):
            out[::e] = value
        out.flags.writeable = False
        return out

    @classmethod
    def from_entries(cls, entries) -> "DistanceMatrix":
        """Wrap an explicit square array, validating shape, NaNs, sign, symmetry and diagonal."""
        d = cls(entries)
        if not np.array_equal(d.entries, d.entries.T):
            raise InvalidArgs("distance matrix must be symmetric")
        if np.any(np.diag(d.entries) != 0.0):
            raise InvalidArgs("distance matrix must have a zero diagonal")
        return d

    @functools.cached_property
    def profile(self) -> np.ndarray:
        """A ring's read-only distances by separation, filled from the class table."""
        return self._by_gcd(self.by_class)

    @functools.cached_property
    def entries(self) -> np.ndarray:
        """A ring's read-only dense view: row i starts at entry N - i of the doubled profile."""
        doubled = np.concatenate((self.profile, self.profile))
        step = doubled.strides[0]
        return np.lib.stride_tricks.as_strided(
            doubled[self.n_effective:], (self.n_effective,) * 2, (-step, step), writeable=False)

    @property
    def diameter(self) -> float:
        """The largest distance, read from the class table when there is one."""
        return float((self.entries if self.divisors is None else self.by_class).max())

    def offdiagonal(self) -> np.ndarray:
        """Upper-triangle distances, flat: the dense oracle of the ``profile[1:]`` statistics."""
        iu = np.triu_indices(self.n_effective, 1)
        return self.entries[iu]

    @functools.cached_property
    def _radix(self) -> np.ndarray:
        """The class index of each divisor in the mixed radix order of its exponents."""
        return np.searchsorted(-self.divisors, -np.array(_mixed_radix(self._factors)))

    @functools.cached_property
    def ramanujan(self) -> np.ndarray:
        """Entry (a, b) is c_{N/e_b}(e_a), cos(2 pi e_a s / N) summed over class e_b; row 0: class sizes."""
        # It sums i mu(N / (e_b i)) over i | gcd(N / e_b, e_a) (W. So, 2006; Rota 1964): one factor
        # c_{p^j}(p^v) per prime power at row v, column k - j, where mu keeps i = p^j and p^(j - 1).
        kron = np.ones((1, 1))
        for p, k in self._factors:  # The Kronecker product block (x) kron, bit for bit np.kron.
            block = np.array([[(p**j if j <= v else 0) - (p ** (j - 1) if 0 < j <= v + 1 else 0)
                               for j in range(k, -1, -1)] for v in range(k + 1)])
            size = len(block) * len(kron)
            kron = (block[:, None, :, None] * kron[None, :, None, :]).reshape(size, size)
        out = np.empty_like(kron)
        out[np.ix_(self._radix, self._radix)] = kron
        return out

    @functools.cached_property
    def values(self) -> np.ndarray:
        """A ring's distinct class distances, ascending."""
        return np.array(sorted(set(self.by_class.tolist())))

    @functools.cached_property
    def sums(self) -> np.ndarray:
        """``ramanujan``'s columns added per distinct distance in ``values``: cancellations are exact."""
        return self.ramanujan @ (self.by_class[:, None] == self.values)

    @functools.cached_property
    def mode_class(self) -> np.ndarray:
        """A ring's read-only class index of gcd(j, N), j = 0..N - 1, built on first read."""
        return self._by_gcd(np.arange(len(self.divisors)))


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


def _factorization(n: int) -> list:
    """The prime factorization of n >= 1 as (p, k) pairs, p ascending, by trial division."""
    factors, p = [], 2
    while p * p <= n:
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k:
            factors.append((p, k))
        p += 1 if p == 2 else 2
    return factors + [(n, 1)] * (n > 1)


def _mixed_radix(factors: list) -> list:
    """The divisors of the product of p^k over ``factors`` in the mixed radix order of their exponents."""
    grid = [1]
    for p, k in factors:
        grid = [g * p**j for j in range(k + 1) for g in grid]
    return grid


def distance_profile(n: int) -> np.ndarray:
    """Distance per separation class m = 0..floor(n/2) for an n-ring, read from its class table."""
    if n < 3:
        raise InvalidArgs(f"ring size must be at least 3, got {n}")
    return np.array(distance_matrix(RingSpec(n)).profile[:n // 2 + 1])


def distance_matrix(spec: RingSpec, quotient: bool = False) -> DistanceMatrix:
    """Distance matrix -log p_max of a ring, optionally after antipodal identification.

    With ``quotient`` the points are the antipodal classes of an even ring,
    represented by sites 1..n/2; class distances are well defined because the
    profile satisfies d(m) = d(n/2 - m) for even n.  Either way it is built as
    its class table on Z_N, N = ``n_effective``: class e | N holds the closed
    form at order n / e.

    Raises
    ------
    QuotientOnOddRing
        If the quotient is requested for odd n.
    """
    n = spec.n
    if quotient and n % 2 == 1:
        raise QuotientOnOddRing(f"antipodal identification needs even n, got n={n}")
    ring = object.__new__(DistanceMatrix)
    ring._set_table(n // 2 if quotient else n, lambda e: _distance_by_order(n // e))
    return ring


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

    A ring reads them off its profile, and only when some class s > 0 is at
    distance zero; any other matrix scans its upper triangle.
    """
    if d.divisors is None:
        return np.argwhere(np.triu(d.entries <= ZERO_DISTANCE_TOL, 1))
    n = d.n_effective
    if not (d.by_class[1:] <= ZERO_DISTANCE_TOL).any():
        return np.empty((0, 2), dtype=np.intp)
    zero = np.flatnonzero(d.profile[1:] <= ZERO_DISTANCE_TOL) + 1
    i = np.repeat(np.arange(n), len(zero))
    j = np.add.outer(np.arange(n), zero).ravel()
    keep = j < n
    return np.stack((i[keep], j[keep]), axis=1)


@functools.lru_cache(maxsize=None)  # At most 2 x 63 small tables for int64 N.
def _valuation_triples(two: bool, k: int) -> np.ndarray:
    """The capped valuations (v(a), v(b), v(a + b)) of all a, b in Z_{p^k}, v(0) = k, read-only.

    The least occurs at least twice (v is ultrametric), and every such triple
    occurs but three equal values below k when p = 2 (``two``), as two units of
    Z_{2^k} add to a non-unit.
    """
    triples = []
    for low in range(k + 1):
        if not two or low == k:
            triples.append((low, low, low))
        for high in range(low + 1, k + 1):
            triples += [(low, low, high), (low, high, low), (high, low, low)]
    table = np.array(triples)
    table.flags.writeable = False
    return table


def _class_triangle_ok(d: DistanceMatrix) -> bool:
    """Whether no slack D(gcd(a + b, N)) - (D(gcd(a, N)) + D(gcd(b, N))) exceeds TRIANGLE_TOL.

    The triple (i, i + a, i + a + b) has this slack, bit for bit the dense
    check's d(i, j) - (d(i, k) + d(k, j)).  By the Chinese remainder theorem the
    class triples that occur pass ``_valuation_triples`` at every prime power
    of N, whose mixed radix positions (``_radix``) add up, so every (a, b) is
    checked exactly, one slack per class triple, a block of BLOCK or so at a time.
    Pairs with a, b or a + b = 0 (mod N) are no triples; their slacks are not
    positive when D(N) = 0 and D >= 0, bar D(N) - 2 D(gcd(a, N)), whose
    positive value only sends the caller to the dense listing.
    """
    tail = head = np.zeros((1, 3), dtype=np.intp)
    stride = 1
    for p, k in d._factors:
        offsets = _valuation_triples(p == 2, k) * stride
        stride *= k + 1
        if len(tail) * len(offsets) <= BLOCK:
            tail = (tail[:, None] + offsets).reshape(-1, 3)
        else:
            head = (head[:, None] + offsets).reshape(-1, 3)
    values, step = d.by_class[d._radix], max(1, BLOCK // len(tail))
    for start in range(0, len(head), step):
        a, b, c = values[head[start:start + step, None] + tail].reshape(-1, 3).T
        if (c - (a + b) > TRIANGLE_TOL).any():
            return False
    return True


def check_metric_axioms(
    d: DistanceMatrix,
    seed: int = 0,
    exhaustive_limit: int = EXHAUSTIVE_TRIPLE_LIMIT,
    mc_samples: int = MONTE_CARLO_TRIPLES,
) -> MetricReport:
    """Verify identity, symmetry, separation and the triangle inequality.

    A ring metric (the antipodal quotient included) is decided from its class
    table at every size: identity from the class of 0, separation from the
    classes at distance zero, the triangle inequality exactly from one slack
    per class triple (``_class_triangle_ok``), and symmetry holds as gcd(s, N)
    = gcd(N - s, N).  The check is always exhaustive and ``seed`` is not used;
    the violations it finds are listed by the dense routines, in the dense
    matrix's order and magnitudes.  Explicit entries are checked for symmetry,
    and their triples exhaustively up to ``exhaustive_limit`` points and by
    seeded Monte-Carlo sampling above it.  Zero distances between distinct
    points are separation violations; when every one sits on an antipodal pair
    (j - i = n/2) the space is a semi-metric that antipodal identification
    makes a metric.
    """
    n = d.n_effective
    ring = d.divisors is not None
    if ring:  # Every diagonal entry is the class of 0, nonnegative.
        zero = float(d.by_class[0])
        sites = range(1, n + 1) if zero > ZERO_DISTANCE_TOL else ()
        violations = [Violation("identity", (i,), zero) for i in sites]
    else:
        diag = np.abs(np.diag(d.entries))
        violations = [Violation("identity", (int(i) + 1,), float(diag[i]))
                      for i in np.flatnonzero(diag > ZERO_DISTANCE_TOL)]
    identity_ok = not violations

    exhaustive = ring or n <= exhaustive_limit
    # An infinite distance makes inf - inf = NaN, which no check counts: a NaN
    # asymmetry compares inf with inf, and a NaN slack stands for inf <= inf + x.
    with np.errstate(invalid="ignore"):
        symmetry = [] if ring else _symmetry_violations(d.entries)
        if ring and _class_triangle_ok(d):
            triangle = []
        elif exhaustive:
            triangle = _triangle_violations_exhaustive(d.entries)
        else:
            triangle = _triangle_violations_sampled(d.entries, seed, mc_samples)
    violations.extend(symmetry)
    symmetry_ok = not symmetry

    zero_pairs = zero_distance_pairs(d)
    separation_ok = not len(zero_pairs)
    if not separation_ok:
        first, second = zero_pairs.T
        gaps = d.profile[second - first] if ring else d.entries[first, second]
        violations.extend(Violation("separation", (i + 1, j + 1), gap)
                          for (i, j), gap in zip(zero_pairs.tolist(), gaps.tolist()))

    violations.extend(triangle)
    triangle_ok = not triangle

    # Both pair lists are in row-major order: equal sets are equal arrays.
    others_ok = identity_ok and symmetry_ok and triangle_ok
    if others_ok and separation_ok:
        classification = MetricClassification.METRIC
    elif others_ok and n % 2 == 0 and np.array_equal(zero_pairs, np.arange(n // 2)[:, None] + [0, n // 2]):
        classification = MetricClassification.SEMI_METRIC_ANTIPODAL
    else:
        classification = MetricClassification.NOT_SEMI_METRIC
    return MetricReport(identity_ok=identity_ok, symmetry_ok=symmetry_ok, triangle_ok=triangle_ok,
                        separation_ok=separation_ok, violations=tuple(violations),
                        classification=classification, exhaustive=exhaustive)


def merge_distinct_values(values: np.ndarray) -> tuple:
    """Sorted distinct representatives of a value multiset, merging within DISTINCT_VALUE_TOL.

    Each is the mean of its group, bit for bit ``np.mean``: one ``np.add.reduceat``
    sums the groups, each after one zero slot, to 0 + the pairwise sum, as ``np.sum``.
    """
    if values.size == 0:
        return ()
    ordered = np.sort(values)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which cuts no group.
        first = np.concatenate(([True], ordered[1:] - ordered[:-1] > DISTINCT_VALUE_TOL))
    starts = np.flatnonzero(first)
    slotted = np.zeros(len(ordered) + len(starts))
    slotted[np.arange(len(ordered)) + np.cumsum(first)] = ordered
    sums = np.add.reduceat(slotted, starts + np.arange(len(starts)))
    return tuple((sums / (np.append(starts[1:], len(ordered)) - starts)).tolist())


def classify_ring(n: int, d: DistanceMatrix) -> RingClassification:
    """Uniformity classification of an n-ring from its class table (quotiented when even).

    The kind is read from the divisor count of the N = n or n/2 points of ``d``,
    and the distinct values from its profile.
    """
    if n < 3:
        raise InvalidArgs(f"ring size must be at least 3, got {n}")
    if d.divisors is None:
        raise InvalidArgs("classify_ring needs a ring distance matrix with a circulant profile")
    points = n // 2 if n % 2 == 0 else n
    if d.n_effective != points:
        raise InvalidArgs(f"classify_ring needs the {points} points of ring {n}, got {d.n_effective}")
    prime = len(d.divisors) == 2
    kind = ((RingKind.TWICE_PRIME if prime else RingKind.TWICE_COMPOSITE) if n % 2 == 0
            else RingKind.PRIME if prime else RingKind.ODD_COMPOSITE)
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
