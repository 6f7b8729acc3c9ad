"""Memory-efficient adaptive optimization: subset-norm step sizes and
subspace momentum as composable pieces of a first-order optimizer, plus
analysis tools for convergence bounds, rate exponents, noise estimation,
and optimizer-state accounting."""

from .linalg import Frame, FrameKind, make_frame, project, lift
from .partition import Partition, subset_sqnorms
from .subsetnorm import (
    SubsetNormState,
    sn_accumulate,
    sn_denominators,
    sn_init,
)
from .subspace import (
    GaloreState,
    SubspaceMomentumState,
    galore_direction,
    galore_init,
    galore_maybe_refresh,
    sm_direction,
    sm_init,
    sm_maybe_refresh,
)
from .optim import (
    Optimizer,
    OptimizerSpec,
    PRESET_NAMES,
    NonFiniteGradientError,
    make_preset,
)
from .analysis import (
    estimate_noise,
    momentum_bound,
    rate_exponents,
    subset_sigmas,
    subsetnorm_bound,
)
from .noise_models import (
    MLP2,
    NoiseModel,
    Quadratic,
    ShapeManifest,
    parse_manifest,
    stoch_grad,
)
from .harness import (
    ExperimentConfig,
    RunRecord,
    load_manifest,
    mem_report,
    run,
    sweep_beta,
    verify_thm2,
)

__version__ = "0.1.0"
