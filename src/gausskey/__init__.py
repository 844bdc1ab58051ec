"""Secret-key / public-communication rate trade-offs for vector Gaussian sources.

The library computes the optimal trade-off R_k(R_p) between the rate of a
distilled secret key and the rate of one-way public communication when two
parties observe correlated Gaussian vectors and an eavesdropper observes a
third.  It evaluates the defining log-det rate functionals, sweeps region
boundaries, certifies boundary optima through their KKT system and noise
enhancement, and cross-validates everything by Monte Carlo.

All rates are in nats per source symbol unless stated otherwise.
"""

from .errors import GausskeyError
from .kkt import (
    ChangeOfVariable,
    KktCertificate,
    MultiplierRecovery,
    certify,
    change_of_variable,
    enhance,
    recover_multipliers,
    verify_certificate,
)
from .mc import (
    JointLayout,
    MiEstimate,
    SampleBatch,
    build_joint,
    cross_validate,
    estimate_rates,
    sample,
)
from .modelio import load_model, model_digest, model_from_dict, model_to_dict, save_model
from .models import (
    AlignedModel,
    ConditionalCov,
    GenEigResult,
    GeneralModel,
    PerturbedPair,
    gen_eigs,
    perturb_svd,
    to_aligned,
    to_general,
    validate_model,
)
from .oracle import brute_force_grid
from .rates import (
    PointMeta,
    RatePair,
    RegionBoundary,
    asymptotic_limit,
    rates_aligned,
    rates_enhanced,
    rates_general,
)
from .solver import (
    SolveReport,
    SweepParams,
    ascent_boundary,
    contains,
    inner_convex,
    solve_at_rate,
    sweep_boundary,
)

__version__ = "0.1.0"

__all__ = [
    "AlignedModel",
    "ChangeOfVariable",
    "ConditionalCov",
    "GausskeyError",
    "GenEigResult",
    "GeneralModel",
    "JointLayout",
    "KktCertificate",
    "MiEstimate",
    "MultiplierRecovery",
    "PerturbedPair",
    "PointMeta",
    "RatePair",
    "RegionBoundary",
    "SampleBatch",
    "SolveReport",
    "SweepParams",
    "ascent_boundary",
    "asymptotic_limit",
    "brute_force_grid",
    "build_joint",
    "certify",
    "change_of_variable",
    "contains",
    "cross_validate",
    "enhance",
    "estimate_rates",
    "gen_eigs",
    "inner_convex",
    "load_model",
    "model_digest",
    "model_from_dict",
    "model_to_dict",
    "perturb_svd",
    "rates_aligned",
    "rates_enhanced",
    "rates_general",
    "recover_multipliers",
    "sample",
    "save_model",
    "solve_at_rate",
    "sweep_boundary",
    "to_aligned",
    "to_general",
    "validate_model",
    "verify_certificate",
]
