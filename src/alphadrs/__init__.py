"""Two-stage approximate inference: divergence-fit proposals refined by rejection sampling."""

from .distributions import (
    GAUSSIAN,
    STUDENT_T,
    GmmSpec,
    TargetDensity,
    ValidationError,
    VariationalDist,
    four_mode_gmm_spec,
    gmm_spec_from_file,
    log_q,
    make_gmm_target,
    sample_reparam,
)
from .divergence import (
    DegenerateBatchError,
    DivergenceEstimate,
    RefinementConfig,
    WeightedBatch,
    batch_from_points,
    draw_batch,
    estimate_log_M,
    estimate_renyi,
    estimate_renyi_refined,
    quadrature_renyi_1d,
)
from .drs import (
    RefinedSampleSet,
    RefinementError,
    pilot_threshold,
    refine,
    select_T_low_dim,
    select_T_quantile,
)
from .rdvi import (
    FitDivergenceError,
    FitTrace,
    OptimizerConfig,
    fit,
    gradient_from_noise,
    replay_objective,
)

__version__ = "0.1.0"
