"""Production functions with variable elasticity of factor substitution.

Evaluation of six production-function families in intensive and extensive
form, closed-form substitution analysis (marginal rate of substitution,
elasticity, regimes, validity ranges), ordinary least squares estimation
of the underlying log-linear relations, and independent numerical
verification oracles.  A command line front end lives in
:mod:`vesprod.cli`.
"""

from .errors import (
    DomainError,
    MissingColumnError,
    ParamError,
    ParseError,
    RankError,
    ShareError,
    SingularError,
    ValidationError,
    VesprodError,
)
from .families import (
    CESParams,
    CobbDouglasParams,
    FamilySpec,
    LiuHildebrandParams,
    LogLinearParams,
    LuFletcherParams,
    SatoHoffmanParams,
    VESParams,
    bracket_base,
    eval_extensive,
    eval_intensive,
    intensive_derivative,
    intensive_second_derivative,
    lf_from_lh,
    lh_from_loglinear,
    loglinear_from_ves,
    mrs_closed,
    mrs_derivative_closed,
    reduce_special_case,
    sigma_closed,
    sigma_derivative_closed,
    symmetric_form,
    ves_from_loglinear,
)
from .substitution import (
    Monotonicity,
    RegimeCase,
    RegimeReport,
    RegressionClosedForm,
    ValidityInterval,
    classify_regime,
    regression_closed_form,
    sigma_from_mrs,
    sigma_from_shares,
    trajectory,
    validity_range,
    violated_constraints,
)
from .estimation import (
    Dataset,
    DegeneracyDiagnostics,
    Estimate,
    FitReport,
    Observation,
    Relation,
    calibrate_xi,
    diagnose_fit,
    fit_loglinear,
    load_dataset,
)
from .oracles import (
    VerificationReport,
    ode_integrate_theorem,
    verify_equivalence_lh_lf,
    verify_family,
    verify_ode,
    verify_reduction,
    verify_sato_hoffman,
)

__version__ = "0.1.0"
