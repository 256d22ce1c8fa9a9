"""mereokit: numerical experiments with tensor product structures at desk scale."""

from .errors import (
    DimensionMismatch,
    HypothesisViolation,
    IncomparableFingerprints,
    InvariantViolation,
    MereokitError,
    NoWitnessError,
    ObjectiveUndefined,
    ScaleOutOfRange,
)
from .hilbert import (
    Dims,
    HermitianOp,
    StateVec,
    UnitaryOp,
    expm_i,
    haar_state,
    haar_unitaries,
    haar_unitary,
    kron_all,
    site_entropies,
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
    reconstruct,
    site_basis,
    weight_profile,
)
from .locality import (
    EvolutionVerdict,
    EvolutionWitness,
    LocalityReport,
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
    symmetry_dims,
)
from .kinds import (
    PairKindSpec,
    ProbeSet,
    TpsVerdict,
    build_probe_set,
    cross_validate_tps,
    fingerprint,
    fingerprint_distance,
    fingerprints_equal,
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
