"""rigidpack: rigidity-matroid packings and k-connected orientations.

The library computes packings of edge-disjoint d-rigid spanning subgraphs
(and tree + rigid splits) via matroid partition over randomized rigidity
rank oracles, turns such packings into k-vertex-connected orientations
through degree-specified (Hakimi) orientations, and ships exact verifiers
for every object it emits.
"""

from .connectivity import (
    CutCertificate,
    brute_force_connectivity,
    certificate_is_valid,
    is_k_connected,
    vertex_connectivity_pair,
)
from .generators import (
    PackingWitness,
    TightExample,
    complete_graph,
    complete_rigid_packing,
    cycle_graph,
    gnp_graph,
    harary_graph,
    lovasz_yemini,
    path_graph,
    smallest_clique_order,
    tree_rigid_decomposition,
)
from .graph import (
    Digraph,
    Graph,
    GraphFormatError,
    in_neighbors_of_set,
    induced_edge_count,
    read_digraph,
    read_graph,
    write_digraph,
    write_graph,
)
from .linalg import PRIME, RowBasis
from .matroid import (
    GraphicOracle,
    MatroidPartition,
    OracleInconsistencyError,
    PackingResult,
    pack_rigid,
    pack_tree_rigid,
    partition,
    rank_union,
)
from .orientation import (
    DegreeSpec,
    OrientationCertificate,
    OrientationInfeasibleError,
    OrientationReport,
    PackingError,
    balanced_orientation,
    deficits_from_vertices,
    hakimi_orientation,
    k_connected_orientation,
    rigid_base_orientation,
    rigid_base_spec,
    spread_deficits,
    strongly_connected_orientation,
)
from .rigidity import (
    Realization,
    RigidityOracle,
    complete_rank,
    independent_d1,
    independent_d2,
    rigidity_matrix_row,
)
from .stochastic import (
    IndependentSubgraphSample,
    SubgraphSizeStats,
    TailCheck,
    binomial_tail_bound,
    binomial_tail_check,
    expected_min_preceding,
    independent_subgraph_stats,
    mean_stderr,
    sample_independent_subgraph,
)
from .stream import SeededStream, stream_rng

__version__ = "0.1.0"
