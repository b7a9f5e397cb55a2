"""Nested Steiner quadruple systems: constructions, analysis, search."""

from .analysis import (
    BoundsProfile,
    Candidate,
    Classification,
    CosetSet,
    Exclusion,
    FeasibilityRow,
    admissible,
    bounds_profile,
    census_violations,
    classify,
    cyclotomic_cosets,
    feasibility_row,
    feasibility_table,
    half_partition,
    min_nd_pairs,
    min_nd_pairs_raised,
)
from .catalog import CatalogEntry, catalog_get, catalog_names
from .constructions import (
    OneFactorization,
    RotationalSpec,
    boolean_blocks,
    boolean_rotational_design,
    boolean_sqs,
    boolean_to_rotational,
    doubling_a,
    doubling_b,
    one_factorization,
    orbit_spec,
    rotational_expand,
    rotational_spec,
)
from .core import (
    NestedBlock,
    NestedDesign,
    Pair,
    PairCensus,
    VerificationReport,
    alternative_splits,
    block_points,
    canonical_block,
    canonical_pair,
    expected_block_count,
    nested_design,
    pair_census,
    relabel,
    repartition,
    total_pair_slots,
    verify_steiner,
)
from .errors import (
    InconsistentSpecError,
    InvalidBlockError,
    InvalidFieldError,
    InvalidModulusError,
    InvalidOrderError,
    InvalidPairError,
    InvalidSplitError,
    NsqsError,
    ParseError,
    PreconditionError,
)
from .fileio import (
    parse_base_spec,
    parse_design,
    serialize_base_spec,
    serialize_design,
)
from .gf2n import DEFAULT_PRIMITIVE_POLYS, Gf2nField
from .search import (
    SearchOutcome,
    SearchSpec,
    SearchStats,
    SearchTarget,
    band,
    complete_uniform,
    local_balance,
    minimum_uniform,
    quasi_uniform,
    search_nesting,
    search_rotational,
    uniform,
)

__version__ = "0.1.0"
