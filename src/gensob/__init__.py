"""gensob: weighted spectral Sobolev norms, boundary white noise, and a
spectral Dirichlet solver on the unit disk."""

from .weights import (
    ComposeRatio,
    ConstraintError,
    DomainError,
    DyadicIntegralResult,
    ExprPower,
    IndexEstimate,
    IterLogPower,
    NikolskiiEmbedding,
    OrCheckResult,
    OscPower,
    PiecewiseGlue,
    Power,
    PowerCompose,
    Product,
    Scale,
    WeightExpr,
    check_or_window,
    compose_param,
    dyadic_integral_test,
    embed_hormander,
    embed_nikolskii,
    eta_construct,
    indices,
    interp_param,
    weight_from_json,
    weight_to_json,
)
from .spectra import (
    DyadicBlocks,
    SpectralField,
    embedding_ratio_sweep,
    extremal_nikolskii_field,
    field_from_modes,
    field_from_samples,
    halpha_norm,
    interp_norm,
    nikolskii_norm,
    random_field,
)
from .noise import (
    CovarianceResult,
    NoiseSample,
    covariance_check,
    inner,
    pairing,
    regularity_sweep,
    sample_white_noise,
)
from .disk import (
    HarmonicSolution,
    PreconditionError,
    SolutionNorms,
    apriori_sweep,
    evaluate_points,
    evaluate_polar_grid,
    snorm,
    solve_dirichlet,
    trace_field,
    uniform_convergence_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
