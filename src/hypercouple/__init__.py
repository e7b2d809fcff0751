"""Random regular k-uniform hypergraphs: samplers, exact oracles, switching
counts, the edge-exposure coupling with the uniform model, and overlapping
Hamilton cycle search."""

__version__ = "0.1.0"

from .core import (
    DomainError,
    Edge,
    Hypergraph,
    InadmissiblePrefixError,
    MultiEdge,
    OrderedHypergraph,
    Params,
    codegree_rel,
    complement_edges,
    format_edge_list,
    is_simple,
    make_edge,
    parse_edge_list,
    residual_degrees,
)
from .oracle import (
    ExtensionFamily,
    OracleBudgetError,
    PrefixTree,
    RatioIdentityReport,
    StateLaw,
    SwitchingClassSizes,
    completion_count,
    count_extensions,
    exact_next_edge_distribution,
    exact_simplicity_probability,
    extension_family,
    switching_class_sizes,
    verify_ratio_identity,
)
from .samplers import (
    MultiExtension,
    Pcg64Stream,
    RejectionBudgetError,
    RngStream,
    sample_gnm,
    sample_gnp,
    sample_multi_extension,
    sample_regular,
)
from .switchings import (
    IllegalSwitchError,
    SwitchingMove,
    backward_count,
    forward_count,
    iter_backward_moves,
    iter_forward_moves,
)
from .coupling import (
    AcceptedSizeDiagnostics,
    CouplingConfig,
    CouplingStep,
    CouplingTrace,
    GnpCouplingTrace,
    accepted_size_diagnostics,
    choose_epsilon,
    default_gnp_probability,
    run_coupling,
    run_coupling_gnp,
)
from .process import (
    MutualSample,
    NicenessReport,
    ProcessTrace,
    ResidualReport,
    expose_process,
    mutual_simplicity_probe,
    residual_report,
    sample_mutual_pair,
)
from .hamilton import (
    FOUND,
    NONE,
    UNKNOWN,
    CycleCertificate,
    SearchResult,
    SweepPoint,
    cycle_edges,
    find_hamilton_cycle,
    hamiltonicity_sweep,
    naive_hamiltonian,
    verify_cycle,
)
from .experiments import (
    ExperimentConfig,
    RunManifest,
    run_experiment,
    validate_gamma_epsilon,
)
