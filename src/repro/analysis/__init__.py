"""Analysis: theorem formulas, tradeoff frontiers, independence checks,
statistics, and report rendering."""

from .bounds import (
    FLOAT_TOLERANCE,
    UsualCaseAssumption,
    first_lower_bound,
    lemma_6_1_holds,
    lemma_6_2_holds,
    max_level_on_good_run,
    protocol_a_unsafety,
    required_rounds,
    s_liveness,
    s_unsafety_bound,
    satisfies_first_lower_bound,
    second_lower_bound_ceiling,
    tradeoff_ratio,
    usual_case_assumption,
)
from .knowledge import (
    EquivalenceResult,
    KnowledgeModel,
    check_level_knowledge_equivalence,
)
from .independence import (
    JointDecision,
    joint_decision_distribution,
    lemma_a3_constraint,
)
from .placement import PlacementScore, best_coordinator, rank_coordinators
from .report import ExperimentReport, Series, Table
from .stats import (
    ConfidenceInterval,
    rule_of_three_upper,
    sample_mean_interval,
    wilson_interval,
)
from .tradeoff import (
    TradeoffPoint,
    measure_tradeoff_point,
    protocol_s_frontier,
    section_8_requirements_table,
)

__all__ = [
    "ConfidenceInterval",
    "EquivalenceResult",
    "ExperimentReport",
    "FLOAT_TOLERANCE",
    "JointDecision",
    "KnowledgeModel",
    "PlacementScore",
    "Series",
    "Table",
    "TradeoffPoint",
    "UsualCaseAssumption",
    "best_coordinator",
    "check_level_knowledge_equivalence",
    "first_lower_bound",
    "joint_decision_distribution",
    "lemma_6_1_holds",
    "lemma_6_2_holds",
    "lemma_a3_constraint",
    "max_level_on_good_run",
    "measure_tradeoff_point",
    "protocol_a_unsafety",
    "protocol_s_frontier",
    "rank_coordinators",
    "required_rounds",
    "rule_of_three_upper",
    "s_liveness",
    "s_unsafety_bound",
    "sample_mean_interval",
    "satisfies_first_lower_bound",
    "second_lower_bound_ceiling",
    "section_8_requirements_table",
    "tradeoff_ratio",
    "usual_case_assumption",
    "wilson_interval",
]
