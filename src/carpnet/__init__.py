"""carpnet: cascading risk-network simulation, fitting, and analysis.

Risks form a network and flip between passive and active month by month;
activation pressure comes from a risk's own likelihood and from its
active neighbors, recovery from a third process.  The package fits the
three global exponents from historical state matrices, simulates
cascades with reproducible parallel RNG streams, solves the mean-field
steady state, quantifies risk-on-risk influence via knockouts, and runs
a validation battery (parameter recovery, forward error, network effect,
sensitivity).
"""

from .dynamics import (
    ActivityStatistics,
    CascadeBatch,
    ModelParams,
    ProcessProbabilities,
    default_checkpoints,
    process_probabilities,
    run_cascades,
    run_cascades_parallel,
    statistics_from_batch,
)
from .errors import (
    CarpError,
    ConvergenceError,
    DataError,
    NumericalError,
    UsageError,
)
from .graph_stats import NetworkProperties, compute_properties
from .influence import (
    CategoryInfluence,
    InfluenceMatrix,
    category_influence,
    risk_influence,
)
from .likelihood import FitResult, TransitionSummary, fit, fit_many
from .risks import (
    CATEGORIES,
    ExpertPairCount,
    HistoryMatrix,
    Risk,
    RiskNetwork,
    build_history,
    build_network,
    load_history,
    load_network,
    load_pairs,
    load_risks,
    month_sequence,
    normalize_likelihood,
)
from .rng import derive_rng
from .steady_state import SteadyState, fixed_point_map, solve_steady_state, solve_steady_states
from .validation import (
    ForwardReport,
    NetworkEffectReport,
    SensitivityReport,
    ValidationReport,
    forward_error_bounds,
    network_effect_comparison,
    recovery_experiment,
    sensitivity_suite,
    step_activation_counts,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
