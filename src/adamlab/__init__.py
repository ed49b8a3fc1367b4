"""adamlab: a numerical laboratory for reshuffled Adam on finite sums whose
components satisfy a gradient-proportional smoothness condition.

Layers: landscapes (test objectives), optimizers (reshuffled Adam, plain and
clipped gradient descent), theory (closed-form constants, admissibility
thresholds, bound checks, the divergence construction), probes (empirical
smoothness / noise-envelope / lemma audits), harness + cli (experiments).
"""

__version__ = "0.1.0"

from .landscapes import (
    FiniteSumObjective,
    custom_objective,
    from_spec,
    lowerbound_objective,
    make_lowerbound,
    quadratic_sum,
    to_spec,
    zhang_counterexample,
)
from .optimizers import (
    AdamParams,
    AdamState,
    EpochTable,
    StepTable,
    Trajectory,
    adam_epoch,
    adam_init,
    adam_run,
    aux_sequence,
    export_trajectory_csv,
    gd_run,
    tail_mean_grad_norm,
    trajectory_summary,
)
from .probes import (
    AffineNoiseFit,
    L0L1Fit,
    LemmaReport,
    SmoothnessEstimate,
    affine_envelope,
    affine_noise_fit,
    check_bounded_update,
    check_u_gap,
    l0l1_fit,
    local_smoothness,
    noise_pairs,
    progress_metric,
    progress_metric_min,
    smoothness_pairs,
)
from .rng import ALGORITHM_ID, SplitMix64, stream_for_run
from .theory import (
    BoundReport,
    ConstraintViolation,
    FeasibilityReport,
    NoRootError,
    NonMonotoneError,
    ProblemConstants,
    TheoryConstants,
    Thm2Construction,
    check_theorem1,
    compute_constants,
    eta1_feasible,
    g_of_beta2,
    gamma_threshold,
    theorem1_rhs,
    theorem2_construction,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    default_config_for,
    emit,
    run_experiment,
)
