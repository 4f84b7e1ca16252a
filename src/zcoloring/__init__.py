"""Graph coloring toolkit: Grundy, color-dominating and z-coloring heuristics,
exact small-graph oracles, z-atom catalogs and an embedding-based bound prover."""

from .atoms import (
    Atom,
    AtomCatalog,
    Embedding,
    catalog_from_text,
    catalog_to_text,
    embed,
    generate_atoms,
    grundify,
    phase1_generate,
    prove_upper_bound,
)
from .canon import canonical_certificate, colored_canonical_form, is_colored_isomorphic
from .families import (
    FamilySpec,
    a_sequence,
    attach_leaves,
    gen_Ft,
    gen_Gt,
    gen_Ht,
    gen_Ktt_minus_matching,
    gen_Rk,
    gen_Tk,
)
from .graphs import (
    ColoredGraph,
    Coloring,
    DimacsError,
    Graph,
    RecordError,
    parse_coloring_record,
    parse_dimacs,
    read_dimacs,
    serialize_coloring,
    serialize_colored_graph,
    to_dimacs,
)
from .oracle import (
    OracleResult,
    SizeLimitError,
    exact_b,
    exact_chi,
    exact_gamma,
    exact_z,
    find_z_coloring,
    m_degree_bound,
    star_degree_bound,
    z_reaches,
)
from .reduce import (
    ReductionTrace,
    cd_gcd_transform,
    complementary,
    greedy_coloring,
    grundy_reduce,
    iterated_z,
    z_heuristic,
    z_transform,
)
from .verify import (
    Verdict,
    Violation,
    check_cd,
    check_grundy,
    check_proper,
    check_z,
    dominating_vertices,
    find_dominating_star,
    is_nice_vertex,
    verify_star,
)

__all__ = [name for name in dir() if not name.startswith("_")]
