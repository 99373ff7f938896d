"""Topological optimization: differentiating losses on persistence diagrams.

The pipeline is parameter -> filtration -> persistence pairing -> diagram ->
loss, with gradients flowing back through the deterministic simplex
witnesses of each filtration family.
"""

from .complexes import (
    Filtration,
    OrderingSignature,
    SimplicialComplex,
    as_simplex,
    boundary,
    build_complex,
    complete_complex,
    read_complex,
    total_order,
    triangulated_torus,
    write_complex,
)
from .filtrations import (
    ConstantWeights,
    DTMWeights,
    FunctionWeights,
    HeightFiltration,
    LowerStar,
    RawValues,
    VietorisRips,
    WeightedRips,
    move_values,
    read_cloud,
    strata_signature,
    write_cloud,
)
from .losses import (
    DiagramLoss,
    DistanceToTargetLoss,
    EmptyDiagramDistanceLoss,
    LinearVectorizationLoss,
    SimplificationLoss,
    SingletonLoss,
    TotalPersistenceLoss,
    compose_gradient,
    distance_to_target,
    linear_vectorization,
    simplification_loss,
    singleton_loss,
    total_persistence,
)
from .metrics import (
    PartialMatching,
    bottleneck_distance,
    diagonal_distance,
    fg_distance,
    read_matching,
    write_matching,
)
from .optim import (
    BoxRegularizer,
    DescentAborted,
    DescentConfig,
    Trace,
    descend,
    geometric_schedule,
    goldstein_check,
    harmonic_schedule,
    read_trace,
    write_trace,
)
from .reduction import (
    PersistenceDiagram,
    PersistencePairing,
    ReducedDecomposition,
    betti_numbers,
    build_diagram,
    persistence_pairs,
    read_diagram,
    reduce,
    write_diagram,
)
from .schemes import (
    StratifiedConfig,
    big_step_gradient,
    continuation_step,
    diffeo_interpolate,
    distributed_gradient,
    min_norm_point,
    moving_set,
    moving_set_fast,
    moving_set_naive,
    sample_strata,
    stratified_gradient,
    stratified_gradient_const,
    vanilla_gradient,
)

__version__ = "0.1.0"
