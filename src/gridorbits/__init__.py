"""Exact engine for Borel orbits of grid-quiver representation tuples and
linear degenerations of type-A Schubert varieties."""

from .decomposition import (
    RankVector,
    SolveFailure,
    decompose,
    independence_check,
    inter_order,
    rank_vector,
    same_rank_vector,
)
from .degeneration_lab import (
    DEFAULT_BUDGET,
    DEFAULT_QS,
    DimEstimate,
    FitFailure,
    FlatScanResult,
    FlatScanRow,
    HomReport,
    NoPointFound,
    euler_form,
    fit_dimension,
    flat_scan,
    hom_report,
    rep_variety_count,
    subrep_count,
)
from .exact_linalg import (
    Matrix,
    b_reduce,
    inverse,
    is_upper_triangular,
    rank,
)
from .fields import GF, QQ, GaloisField, RationalField, is_prime_power
from .grid_quiver import (
    Decomposition,
    GridQuiverError,
    GridShape,
    InfeasibleSize,
    InvalidDecomposition,
    MapTuple,
    SizeMismatch,
    TriangularityViolation,
    assemble_canonical,
    borel_act,
    dims_of_heights,
    enumerate_indecomposables,
    full_dim_grid,
    identity_tuple,
    make_point,
    matchings_to_decomposition,
    windows,
    zero_tuple,
)
from .orbit_poset import (
    CountReport,
    OrbitNode,
    OrbitPoset,
    array_order,
    bell,
    build_poset,
    count_report,
    enumerate_orbits,
    export_dot,
    f2_census,
    f2_distinct_count,
    orbit_by_id,
    orbit_count,
    orbit_nodes,
    order_matchings,
)
from .parametrizations import (
    InvalidTable,
    ReconstructInvalid,
    SWArray,
    array_leq,
    degenerates,
    matchings_sw_array,
    pivots,
    reconstruct,
    rook_table,
    same_orbit,
    sw_array,
    sw_table,
    validate_array_inequalities,
)
from .schubert import (
    contains_pattern,
    e_grid,
    is_smooth,
    length,
    r_grid,
    target_dims,
)

__all__ = [name for name in dir() if not name.startswith("_")]
