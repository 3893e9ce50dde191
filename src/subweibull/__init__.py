"""Numerics for random variables with stretched-exponential tails.

Orlicz-type norms of sub-Weibull laws computed analytically, by quadrature
and from samples; a cumulant-domination norm built on the conjugate pair
phi_inf / phi1; Bernstein-type and dimension-free concentration bounds; and
a reproducible Monte Carlo harness that checks the bounds against empirical
tail frequencies.
"""

from .concentration import (
    VectorModel,
    lemma_concavity,
    lemma_phi1_power,
    lemma_xalfa,
    lp_norm,
    phi1_min_inequality,
    prop13_bound,
    psi_tail_bound,
    thm14_bound,
    thm14_tail_bound,
)
from .dist import (
    CanonicalLaw,
    DistributionSpec,
    canonical,
    density,
    exact_upper_tail,
    mean,
    mgf,
    mgf_quadrature,
    moment_abs,
    moment_abs_quadrature,
    sample,
    spec_from_json,
)
from .errors import (
    DivergenceError,
    InfeasibleError,
    InsufficientSamplesError,
    NoClosedFormError,
    NoFeasibleConstantError,
    NumericalError,
    ParameterError,
    SubweibullError,
    UnboundedSupremumError,
    VerificationError,
)
from .montecarlo import (
    ConcentrationReport,
    ExperimentPlan,
    TailRow,
    calibrate_constant,
    center_value,
    growth_suite,
    loglog_slope,
    run_report,
    tail_exceedance,
)
from .orlicz import (
    OrliczNormResult,
    centering_bound_check,
    check_equivalence,
    exp_moment,
    power_norm_identity,
    psi_norm_analytic,
    psi_norm_empirical,
    psi_norm_quadrature,
)
from .streams import RandomStream
from .tau import (
    BernsteinBound,
    Cumulant,
    TauNormResult,
    bernstein_bound,
    centered_cumulant,
    convex_conjugate,
    exp_centered,
    gaussian,
    iid_sum,
    phi1,
    phi_inf,
    rotation_invariance_check,
    scaled,
    sum_of,
    tau_feasible,
    tau_norm,
)

__version__ = "0.1.0"
