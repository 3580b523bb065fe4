"""Entropy, speed, and cutoff analysis for random walks on random lifts.

The library takes a small weighted multigraph, analyzes the lazy random
walk on its universal cover (escape probabilities, ray law, entropy rate,
speed), and verifies on explicit random n-lifts that the walk's mixing
time grows like ``log n`` divided by the entropy rate, with a square-root
window.  Everything is deterministic given a master seed.
"""

from types import ModuleType as _ModuleType

from .errors import AnalysisError, GraphError, NonConvergenceError
from .base_graph import (
    AssumptionReport,
    CoreDecomposition,
    Edge,
    StationaryDistribution,
    TransienceVerdict,
    WeightedMultigraph,
    build_graph,
    check_assumptions,
    core,
    holding_probability,
    is_cover_transient,
    parse_graph,
    stationary_distribution,
    transition_matrix,
    validate_graph,
)
from .analyzer import (
    EntropyReport,
    FirstPassageSolution,
    MixingPrediction,
    RayLaw,
    WeightEntropy,
    entropy,
    predict_mixing_time,
    ray_law,
    solve_first_passage,
    speed,
    weight_entropy,
)
from .cover import (
    CoverTrajectory,
    CoverVertex,
    ExcursionStats,
    LevelWeightCheck,
    LocalizationProfile,
    confirmed_ray,
    cover_moves,
    estimate_clt_params,
    estimate_speed,
    excursion_decomposition,
    level_weight_check,
    log_entropic_weight,
    log_weight_trace,
    ray_localization_profile,
    renewal_edge,
    simulate_walk,
)
from .lift import (
    Lift,
    apply_kernel,
    draw_lift,
    generate_uniform_lift,
    lift_from_json,
    lift_stationary,
    lift_to_json,
    lift_transition_matrix,
    project_distribution,
    spectrum_inheritance_check,
)
from .mixing import (
    SweepResult,
    TVCurve,
    cutoff_sweep,
    mixing_curves,
    projection_identity_check,
)
from .rng import substream

__version__ = "0.1.0"

# the public API: every name imported above but the submodules, in order
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__all__.append("__version__")
