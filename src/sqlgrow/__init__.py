"""sqlgrow: evolve seed Text-to-SQL pairs into execution-verified training data.

The package turns a handful of (question, SQL, database) seeds into a
structurally richer dataset by applying six atomic AST rewrites under an
adaptive, diversity-balancing scheduler, grounding every candidate against
the live database, attaching execution-verified reasoning traces, and
removing near-duplicate questions per schema.
"""

from .errors import (
    AmbiguousColumnError,
    ConfigError,
    DomainError,
    InfeasibleOperatorError,
    InstanceFileError,
    ResponseFormatError,
    RunFileError,
    SchemaValidationError,
    SqlgrowError,
    SqlSyntaxError,
    StructuralError,
    TransportError,
    UnsupportedSqlError,
)
from .features import FeatureVector, aggregate_features, extract_features, tokenize_sql
from .gateway import CotCandidate, ExpansionResult, LlmGateway
from .harness import (
    ExecutionFeedback,
    ResultMultiset,
    execute_sql,
    open_readonly,
    refine_until_valid,
    results_equivalent,
)
from .instances import QueryInstance
from .operators import (
    MutationPlan,
    OperatorId,
    ParentAnalysis,
    analyze,
    apply_mutation,
    check_applicability,
    operator_instruction,
    plan_mutation,
)
from .parser import parse_sql
from .pipeline import RunConfig, SchemaRepo, ingest_seeds, run_eqe, run_full, run_oge, stats_report
from .render import render_sql
from .resolve import BindingReport, resolve_references
from .scheduler import (
    EvolutionState,
    fresh_state,
    record_acceptance,
    scarcity_weight,
    select_top_k,
    utility,
)
from .schema import DatabaseSchema, TableDef, fk_join_graph, load_schema, render_schema_prompt

__version__ = "0.1.0"
