"""Transfer-probability distances on uniform spin rings and their embeddings.

The pipeline: build ring Hamiltonians restricted to the single-excitation
subspace, decompose them spectrally (closed form or LAPACK), turn
eigenprojector overlaps into the distance d(i,j) = -log p_max, verify the
metric axioms with the antipodal quotient for even rings, and decide or
realize isometric embeddings into spheres, Euclidean space, and hyperbolic
space of constant curvature.
"""

import types

from .errors import (
    DimensionTooLarge,
    FactorizationFailure,
    IndexOutOfRange,
    InvalidArgs,
    InvalidSpec,
    NoConvergence,
    NotEmbeddable,
    QuotientOnOddRing,
    RestrictionMismatch,
    SpinRingError,
    UsageError,
)
from .hamiltonian import (
    FULL_SPACE_CAP,
    Coupling,
    RingSpec,
    build_full_hamiltonian,
    build_single_excitation_hamiltonian,
    single_excitation_index,
    verify_subspace_restriction,
)
from .spectral import (
    SpectralDecomposition,
    circulant_spectrum,
    jacobi_eigh,
    numerical_spectra,
    numerical_spectrum,
    projector_overlaps,
)
from .metric import (
    DistanceMatrix,
    MetricClassification,
    MetricReport,
    RingClassification,
    RingKind,
    Violation,
    asymptotic_distance,
    check_metric_axioms,
    classify_ring,
    distance_matrix,
    distance_profile,
    distance_variance_sweep,
    merge_distinct_values,
    p_max,
    p_max_closed_form,
    sqrt_p_max_closed_form,
    transfer_probability_time_series,
    zero_distance_pairs,
)
from .embedding import (
    EmbeddingResult,
    EmbeddingSpace,
    FeasibilityThreshold,
    RingEmbedding,
    Verdict,
    cayley_menger_minors,
    embeddable_euclidean,
    embeddable_hyperbolic,
    embeddable_spherical,
    kappa_max,
    realize,
    ring_embedding,
    spherical_feasibility_threshold,
    toeplitz_eigenvalues,
    toeplitz_minor_closed_form,
    toeplitz_minor_recursion,
)

__version__ = "0.1.0"

# Every public name imported above, so that the export list cannot drift from the imports.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)]
