"""Pandemic decision games: mask and distancing analyses with a policy layer.

Everything is a pure function over immutable values, so all operations are
deterministic and safe to call concurrently.
"""

from .distancing import (
    CostBenefitFunction,
    Decision,
    DistancingParams,
    GoDecision,
    MeetingDomain,
    MeetingOptimum,
    StayHomeDecision,
    curve_series,
    distancing_utility,
    extended_go_decision,
    group_infection_probability,
    objective_values,
    optimal_meeting,
    stay_home_decision,
    z_objective,
)
from .errors import DomainError, ScenarioError, VerificationError
from .games import (
    ActionSet,
    CostTable,
    SolutionReport,
    StrategyProfile,
    best_responses,
    dominant_actions,
    pure_nash_equilibria,
    social_optima,
    solve,
)
from .masks import (
    ACTION_IN,
    ACTION_NO,
    ACTION_OUT,
    ACTION_USE,
    BayesianSetting,
    EfficiencyAnalysis,
    EfficiencyParams,
    HealthStatus,
    MaskCondition,
    MaskCosts,
    SocialOptimumCondition,
    bayesian_expected_cost,
    bayesian_mask_condition,
    efficiency_analysis,
    efficiency_expected_cost,
    multiplayer_so_condition,
    pair_game,
)
from .policy import (
    CitizenOutcome,
    DesignerCostModel,
    MechanismReport,
    Policy,
    Scenario,
    apply_policies,
    compare_policies,
    designer_cost,
    evaluate_mechanism,
    rank,
)
from .scenario import ScenarioConfig, parse_scenario

__version__ = "0.1.0"
