"""Statistically thresholded summary networks and density-aware topology metrics.

Builds mean and differential statistical parametric networks (SPNs) from
populations of correlation matrices, computes density-integrated graph
metrics with rank-invariance guarantees, and reproduces the
modularity-versus-density confound simulations.
"""

from .density import (
    DensityProfile,
    METRICS,
    density_integrated_metric,
    density_threshold,
    metric_by_name,
    verify_monotone_invariance,
)
from .errors import (
    DataError,
    DegenerateStatisticsWarning,
    IncompleteDesignError,
    SchemaError,
    SpnkitError,
    ValidationError,
)
from .graphs import (
    BinaryGraph,
    UNREACHABLE,
    WeightedGraph,
    global_efficiency,
    local_efficiency,
    max_edge_count,
    shortest_paths_unweighted,
    shortest_paths_weighted,
    spread_condition_holds,
    threshold,
    weighted_density,
    weighted_efficiency,
)
from .io import (
    Manifest,
    ReportBundle,
    association_graph,
    export_graph,
    graph_from_json,
    load_dataset,
    load_node_signals,
    parse_manifest,
    report_pipeline,
)
from .modularity import (
    Partition,
    SweepRow,
    edges_sweep,
    greedy_modularity,
    modularity_q,
    random_graph,
    randomness_sweep,
    rewire,
    ring_lattice,
)
from .spn import (
    NodeSignalDataset,
    SpnResult,
    StudyDataset,
    differential_spn,
    mean_spn,
    node_differential_spn,
)
from .stats import (
    FdrDecision,
    bh_fdr,
    fisher_z,
    fisher_z_inverse,
    grand_mean_z_test,
    repeated_measures_fit,
    uncorrected,
)

__version__ = "0.1.0"
