"""Genus bounds, rotation-system embeddings, and structure of sparse random graphs."""

from .graphs import (
    CycleBudgetError,
    Graph,
    GraphError,
    InducedSubgraph,
    Kernel,
    bfs_tree,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    enumerate_cycles,
    format_edge_list,
    giant_component,
    giant_vertices,
    grid_graph,
    hypercube_graph,
    induced_subgraph,
    kernel,
    load_edge_list,
    parse_edge_list,
    path_graph,
    two_core,
)
from .random_models import (
    add_uniform_edges,
    gnm,
    gnp,
    trial_rng,
    uniform_pairs,
)
from .embeddings import (
    FaceTrace,
    GenusResult,
    SearchBudgetError,
    exact_genus,
    genus_lower_bound,
    genus_lower_bound_density,
    genus_lower_bound_short_cycles,
    genus_upper_bound,
    perturbation_upper_bound,
    trace_faces,
    validate_rotation,
)
from .asymptotics import (
    component_fraction,
    component_fraction_derivative,
    cycle_count_limit,
    genus_per_edge,
)
from .census import (
    CycleNeighborhood,
    SupercriticalReport,
    classify_cycle_neighborhood,
    count_census_cycles,
    predicted_core_excess,
    predicted_genus,
    supercritical_report,
)
from .regimes import (
    ContiguityVerdict,
    RegimePrediction,
    contiguity_verdict,
    predict_genus,
)
from .fragile import (
    DecompositionError,
    FragileReport,
    PieceDecomposition,
    build_quotient,
    count_good_edges,
    decompose_into_pieces,
    fragile_experiment,
    select_cores,
)

__version__ = "0.1.0"
