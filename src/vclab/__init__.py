"""vclab: a finite-scale workbench for statistical learning theory.

Exact computation of VC dimensions, growth functions and restriction
oracles for standard classifier families; closed-form sample-complexity
bounds; sample-error-minimizing learners; uniform-convergence and PAC
verification by exact enumeration or seeded Monte Carlo; the adversarial
no-free-lunch enumeration; and a quantifier-free formula DSL inducing
definable hypothesis spaces.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundsReport,
    UcpSampleBound,
    bounds_report,
    epsilon0,
    hoeffding_tail,
    m0_pac,
    m0_singleton,
    m0_ucp,
    tail_to_expectation_bound,
)
from .combinatorics import (
    ShatterResult,
    VcVerdict,
    growth_function,
    sauer_bound,
    sauer_poly_bound,
    shatters,
    vc_dimension,
)
from .formula import (
    DefinableSpace,
    ExplicitParams,
    FormulaAst,
    SampledParams,
    format_formula,
    parse_formula,
    relu_graph_formula,
    sigmoid_network_formula,
)
from .harness import (
    TrialReport,
    estimate_pac_probability,
    estimate_ucp_probability,
    signed_deviation,
    symmetrized_deviation,
    u_statistic,
    v_statistic,
    wilson_interval,
)
from .learners import (
    LearningFunction,
    builtin_learners,
    constant_learner,
    memorizing_learner,
    random_table_learner,
    sem_learner,
    table_learner,
)
from .model import (
    BudgetError,
    DiscreteDistribution,
    ExplicitSpace,
    Hypothesis,
    HypothesisSpace,
    InexactOracleError,
    Instance,
    MultiSample,
    Sample,
    approximation_error,
    empirical_distribution,
    empirical_opt,
    loss,
    restriction_errors,
    sample_error,
    true_error,
)
from .nfl import (
    NflInstance,
    NflReport,
    build_nfl_instance,
    nfl_report,
)
from .spaces import (
    CoSingletonSpace,
    HalfspaceSpace,
    IntervalSpace,
    ThresholdSpace,
)

__all__ = [name for name in dir() if not name.startswith("_")]
