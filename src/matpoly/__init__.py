"""Exact polynomial invariants of matroids and graphs.

Characteristic, chromatic, flow, Tutte and Whitney rank polynomials
over exact integer/rational arithmetic, the duality identities
connecting them, fast closed forms for complete graphs and projective
geometries, and brute-force oracles to check it all against.
"""

from .algebra import (
    BiPoly,
    IntPoly,
    exact_div_monomial,
    falling_factorial,
    poly_pow,
    series_exp,
    series_log,
)
from .duality import (
    IdentityKind,
    VerifyReport,
    chi_dual_via_finaltwo,
    flow_via_connected_partitions,
    verify_identity,
)
from .errors import (
    BadConstantTerm,
    BadParams,
    BudgetExceeded,
    MatpolyError,
    NotDivisible,
    TooLarge,
)
from .flowkn import (
    flow_kn_egf,
    flow_kn_partitions,
    flow_kn_tutte,
    leading_binomial_check,
    partition_classes,
    partition_count,
    partitions,
    set_partition_count,
)
from .graphs import (
    MultiGraph,
    complete_graph,
    component_count,
    connected_partitions,
    graph_from_json,
    graph_to_json,
    quotient,
    subgraph,
)
from .invariants import (
    chi_delcon,
    chi_subset,
    chromatic_poly,
    flow_poly,
    tutte,
    tutte_uniform_closed,
    whitney_R,
)
from .matroids import (
    Matroid,
    TableMatroid,
    make_graphic,
    make_pg,
    make_uniform,
)
from .oracles import (
    chi_via_broken_circuits,
    circuits,
    count_colorings,
    count_nz_flows,
    flats_of_rank,
    min_cocircuit_size,
)
from .projective import chi_pg, chi_pg_dual, gaussian_binomial, points_count, tutte_pg

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
