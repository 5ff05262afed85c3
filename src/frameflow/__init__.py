"""frameflow: graph framelet transforms, energies, and dominance analysis.

A numerical laboratory for tight Haar framelet transforms on graphs, the
family of energy functionals they induce, the discretized gradient flows of
those energies, and empirical verification that the flows are dominated by
the low or high end of the graph spectrum depending on how the bands are
weighted.
"""

from .errors import (
    BandMismatchError,
    ConfigError,
    DegenerateGraphError,
    DimensionMismatchError,
    FileParseError,
    FrameflowError,
    IllegalRenormalizeError,
    InvalidSpecError,
    NoConvergenceError,
    NotSymmetricError,
    NumericOverflowError,
    OutOfRangeError,
    TraceNotNormalizedError,
    VariantNotTightError,
    ZeroStateError,
)
from .graphs import (
    Graph,
    GraphSpec,
    format_edge_list,
    generate_graph,
    normalized_adjacency,
    normalized_laplacian,
    parse_edge_list,
)
from .spectral import Spectrum, eigh, graph_fourier, inverse_graph_fourier
from .framelets import (
    FrameletCoeffs,
    FrameletSystem,
    band_index_set,
    build_framelet_system,
    decompose,
    haar_response,
    reconstruct,
)
from .energies import (
    EnergyBreakdown,
    WeightConfig,
    dirichlet_energy,
    energy_gap,
    framelet_dirichlet_energies,
    generalized_energy,
    generalized_energy_gradient,
    particle_decomposition,
    perturbed_energy,
    perturbed_energy_gradient,
    source_energy_gradient,
    source_energy_term,
    spectral_energy,
    spectral_energy_gradient,
    total_framelet_energy,
    total_framelet_energy_gradient,
    weight_split,
)
from .dynamics import (
    FlowTrace,
    Scheme,
    StopRule,
    energy_enhanced_omega,
    perturbed_closed_form,
    run_flow,
    scheme_gains,
    step_activated,
    step_ee_ufg,
    step_gradf_ufg,
    step_spatial_framelet,
    step_spectral_framelet,
)
from .analysis import (
    HFD,
    LFD,
    MIXED,
    UNDECIDED,
    DominancePrediction,
    DominanceVerdict,
    classify_dominance,
    dominant_frequency,
    hfd_projection,
    kernel_projection,
    normalized_dirichlet,
)

__version__ = "0.1.0"
