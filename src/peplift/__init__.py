"""Optimized first-order methods, their convergence certificates, and the
algebraic lift of those certificates to composite (proximal) optimization,
all machine-verified at desk scale by exact coefficient matching."""

from .certificates import (
    FuncCertificate,
    GradCertificate,
    IdentityReport,
    aggregates,
    gsw_grad_certificate,
    ogm_func_certificate,
    ogmg_grad_certificate,
    silver_func_certificate,
    verify_func_identity,
    verify_grad_identity,
)
from .ledger import STAR, GramLedger
from .lift import (
    CompositeLift,
    certified_rate,
    check_func_feasibility,
    check_grad_feasibility,
    lift_func,
    lift_grad,
    verify_composite_func_identity,
    verify_composite_grad_identity,
)
from .methods import (
    ProxProblem,
    RunTrace,
    run_composite,
    run_fista,
    run_pogm,
    run_pogmg,
    run_unconstrained,
)
from .problems import ProblemSpec, initial_point, make_problem
from .schedules import (
    SILVER_RATIO,
    ScheduleSpec,
    StepsizeMatrix,
    gsw_schedule,
    ogm_stepsize_matrix,
    ogmg_stepsize_matrix,
    silver_schedule,
    theta_sequence,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
