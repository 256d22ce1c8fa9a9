"""mereokit: numerical experiments with tensor product structures at desk scale."""

from .errors import (
    DimensionMismatch,
    HypothesisViolation,
    IncomparableFingerprints,
    InvariantViolation,
    MereokitError,
    NoWitnessError,
    ObjectiveUndefined,
)
from .hilbert import (
    DensityOp,
    Dims,
    HermitianOp,
    StateVec,
    UnitaryOp,
    eig_hermitian,
    expm_i,
    haar_state,
    haar_unitary,
    hs_inner,
    hs_norm_sq,
    kron_all,
    partial_trace,
    purity,
    site_entropies,
    vn_entropy,
)
from .rng import stream
from .tps import (
    ProductOpCertificate,
    Tps,
    act,
    canonical,
    equivalent,
    is_product_operator,
    perm_matrix,
    product_state_in,
    random_product_probe,
    random_tps,
    tps_from_json,
    tps_to_json,
)
from .basis import (
    Decomposition,
    SiteBasis,
    WeightProfile,
    decompose,
    decomposition_to_json,
    reconstruct,
    site_basis,
    weight_profile,
)
from .locality import (
    EvolutionVerdict,
    EvolutionWitness,
    LocalityReport,
    conjugation_covariance_check,
    is_k_local,
    locality_report,
    one_local_evolution_check,
)
from .dynamics import (
    OrbitCurve,
    SymmetryDims,
    default_time_grid,
    distinct_value_count,
    entropy_orbit,
    find_nonlocal_symmetry,
    inequality_sweep,
    symmetry_dims,
)
from .kinds import (
    Fingerprint,
    GramSpec,
    PairKindSpec,
    ProbeSet,
    ProjectionSpec,
    SpectrumSpec,
    TpsVerdict,
    build_probe_set,
    cross_validate_tps,
    fingerprint,
    fingerprint_distance,
    fingerprint_to_json,
    fingerprints_equal,
    gram_matrix,
    gram_orbit_witness,
    pair_kind_of,
    pair_membership,
    pair_orbit_witness,
)
from .models import (
    IsingParams,
    ising_chain,
    jw_dual_tps,
    pauli_string,
    random_klocal,
    scrambled_klocal,
    x_string,
)
from .search import SearchConfig, SearchResult, certify, objective, search

__version__ = "0.1.0"
