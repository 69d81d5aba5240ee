"""Request lists of the three benchmark workloads.

Each workload is a fixed list of CLI requests, about a hundred per pass, so
that at least ten of them lie beyond the 90th percentile of their latencies.
Most requests are cheap and a few are large: a pass takes 6 to 10 s of
program time on a 2-vCPU host, and as much again for the frozen copy that
each request is timed against.

The seed changes only the ``--seed`` option of the ``metric-check``
requests of ``scan``, which seeds their Monte-Carlo triple sample above 200
points.  Every size is fixed, so runs with different seeds do the same work
and their spread is the host's noise, not a change of workload.
"""

from __future__ import annotations

import random

WORKLOADS = ("scan", "embed", "oracle")

# scan: sizes within the ranges n in [100, 600] (distance), [100, 3000]
# (metric-check, classify) and --n-max in [100, 400] (variance-sweep),
# mostly small, with a few large ones at the top of each range.  Odd and
# even rings are mixed: an odd ring costs classify and metric-check more,
# since an even one is quotiented.  metric-check switches from exhaustive to
# sampled triples above 200 points (n_effective, which is n/2 with
# --quotient).
SCAN = (
    (["distance"], "--n",
     (100, 111, 124, 137, 150, 175, 200, 400)),
    (["distance", "--quotient"], "--n",
     (100, 110, 120, 130, 140, 160, 200, 300, 600)),
    (["distance", "--format", "csv"], "--n",
     (101, 112, 125, 138, 151, 176, 201, 400)),
    (["distance", "--quotient", "--format", "csv"], "--n",
     (100, 110, 120, 130, 140, 160, 200, 250, 400)),
    (["metric-check"], "--n",
     (100, 103, 107, 113, 117, 120, 127, 134, 141, 150, 160, 171, 180, 191, 200,
      240, 301, 400, 1001)),
    (["metric-check", "--quotient"], "--n",
     (100, 102, 106, 110, 114, 122, 130, 140, 150, 170, 190, 200, 300, 600)),
    (["classify"], "--n",
     (100, 101, 102, 103, 104, 105, 106, 107, 108, 109, 110, 111, 112, 113, 116,
      121, 127, 133, 140, 150, 161, 175, 190, 210, 243, 353, 500, 800, 2000)),
    (["variance-sweep"], "--n-max",
     (100, 110, 125, 150, 200)),
)

# embed: spherical at n in [5, 25], each ring kind (prime, twice a prime,
# odd composite, twice a composite) including the non-monotone ring 12 and
# the failing ring 16; the odd composites 15 to 25 (3 to 6 s each) are left
# out.  Euclidean and hyperbolic at n in [5, 160]: every n up to 30, then
# odd rings, rings n = 2 (mod 4) and rings n = 0 (mod 4), which are not
# embeddable, across the range.  Euclidean includes n = 120, where a True
# verdict is followed by a factorization failure.
EMBED_SPHERICAL = (5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 16, 22)
EMBED_FLAT = tuple(range(5, 31)) + (
    33, 37, 41, 53, 61, 73,
    34, 38, 42, 46, 50, 54, 58, 62, 74, 82, 94, 106, 118, 122, 134,
    36, 48, 64, 100,
)
EMBED_EUCLIDEAN = EMBED_FLAT + (120,)
EMBED_HYPERBOLIC = EMBED_FLAT + (140, 160)

# oracle: (--n-max-full, --n-max-subspace) in [9, 13] x [8, 24].  The
# cheapest verify takes about 60 ms, so a hundred distinct requests over
# these 85 pairs do not fit a pass: the cheapest pairs repeat.  One request
# builds the dense 2^13 x 2^13 Hamiltonian (about 1 GB).
ORACLE = (
    [(9, s) for s in range(8, 16)] + [(9, 24)]
    + [(10, 8), (10, 12), (11, 8), (11, 14), (12, 10), (13, 8)]
    + [(9, 8), (9, 9), (9, 10), (9, 11), (10, 8)] * 17
)


def make_requests(workload: str, seed: int) -> list:
    """The workload's requests for ``seed``: a list of argv lists."""
    if workload == "embed":
        return [["embed", "--space", space, "--kappa", "auto", "--n", str(n)]
                for space, sizes in (("spherical", EMBED_SPHERICAL),
                                     ("euclidean", EMBED_EUCLIDEAN),
                                     ("hyperbolic", EMBED_HYPERBOLIC))
                for n in sizes]
    if workload == "oracle":
        return [["verify", "--n-max-full", str(full), "--n-max-subspace", str(sub)]
                for full, sub in ORACLE]
    rng = random.Random(seed)
    requests = []
    for argv, option, sizes in SCAN:
        for n in sizes:
            request = argv + [option, str(n)]
            if argv[0] == "metric-check":
                request += ["--seed", str(rng.randrange(2**31))]
            requests.append(request)
    return requests
