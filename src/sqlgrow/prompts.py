"""Prompt templates for the model roles.

Placeholders use the {UPPER_SNAKE} convention; rendering fills every
placeholder in one pass, inserting each binding verbatim, so JSON braces
inside the templates and placeholders inside a binding are safe.
"""

from __future__ import annotations

import re

from .errors import ResponseFormatError

EXPAND_TEMPLATE = """Below, you are provided with a database schema and a NL2SQL question. Your task is to draw inspiration from the given NL2SQL question to create a brand new question.

Database Engine:
SQLite

Database Schema
{DATABASE_SCHEMA}

This schema describes the database's structure, including tables, columns, primary keys, foreign keys, and any relevant relationships or constraints. The new question must strictly follow this database schema.

Evidence
{EVIDENCE}

Question
{QUESTION}

Gold SQL
{GOLD_SQL}

Instructions
- The LENGTH and difficulty level of the new NL2SQL question should be similar to the original one.
- You need to ensure that the modified gold SQL still complies with SQLite syntax rules.
- You also need to modify the evidence to fit with the new question, keeping it as minimal as possible. Include only the information that is strictly necessary to answer the new question.
- You must ensure that the new NL2SQL question can be answered using the given database schema, and you are not allowed to update the schema or introduce new tables or columns.

Output Format
{
  "question": "The new question.",
  "evidence": "The new evidence. If no evidence needed, it is ok to be an empty string.",
  "gold_sql": "The corresponding gold sql."
}

Take a deep breath and think step by step to increase the difficulty of the question.
"""

EVOLVE_TEMPLATE = """Below, you are provided with a database schema and a NL2SQL question. Your task is to increase the difficulty of the given NL2SQL question a bit based on the given database schema.

Database Engine:
SQLite

Database Schema
{DATABASE_SCHEMA}

This schema describes the database's structure, including tables, columns, primary keys, foreign keys, and any relevant relationships or constraints. The new question after increasing the difficulty must strictly follow this database schema.

Evidence
{EVIDENCE}

Question
{QUESTION}

Gold SQL
{GOLD_SQL}

Instructions
- You need to ensure that the modified gold SQL still complies with SQLite syntax rules.
- You also need to update the evidence to fit with the new question, but keeping it as minimal as possible. Include only the information that is strictly necessary to answer the new question.
- You must ensure that the new NL2SQL question can be answered using the given database schema, and you are not allowed to update the schema or introduce new tables or columns.
- To increase the difficulty, you may use the following method, but you are not restricted to it: {OPERATION}

Output Format
{
  "question": "The new question after increasing the difficulty.",
  "evidence": "The new evidence. If no evidence needed, it is ok to be an empty string.",
  "gold_sql": "The correspond gold sql after increasing the difficulty."
}

Take a deep breath and think step by step to increase the difficulty of the question.
"""

STRATEGY_TEMPLATE = """Below, you are provided with a database schema and a Text-to-SQL pair. Your task is to act as an expert data scientist, systematically evaluate the feasibility of applying specific evolution operators to increase the query's complexity, and provide a scored assessment for each.

Database Engine: SQLite
Database Schema: {DATABASE_SCHEMA}
Question: {QUESTION}
Gold SQL: {GOLD_SQL}

Instructions
- Your primary goal is to analyze the provided SQL query and assess the structural feasibility of applying each of the six evolution operators defined below.
- Crucially, you are only evaluating the feasibility. Do NOT generate the new question or new SQL in this step.

Available Evolution Operators

1. Functional Wrapping:
Integrate SQL functions to process data (e.g., aggregate functions, date functions, mathematical functions, or window functions).

2. Operator Mutation:
Use a wider variety of SQL operators (e.g., BETWEEN, IN/NOT IN, LIKE, or CASE WHEN).

3. Logical Clause Expansion:
Increase logical complexity within clauses (e.g., AND/OR/NOT in WHERE, adding HAVING to filter aggregations, or complex ORDER BY).

4. Relational Expansion:
Increase the number of tables being joined or change the join type (e.g., INNER vs LEFT JOIN) to introduce new data relationships.

5. Nesting Evolution:
Introduce nested queries, correlated subqueries, or Common Table Expressions (CTEs).

6. Set Composition:
Use set operators (UNION, INTERSECT, EXCEPT) or existence checks (EXISTS/NOT EXISTS).

Output Format

In your answer, please respond with a JSON object structured as follows:
[
  {
    "operator": "Functional Wrapping",
    "score": <float between 0.0 and 1.0>,
    "justification": "Concise reason regarding schema availability."
  },
  ...
]

Take a deep breath and think step by step to evaluate the feasibility of all six operators based on the schema and current SQL.
"""

REFINE_TEMPLATE = """Below, you are provided with a database schema, a NL2SQL question, a draft SQL query, and the feedback obtained by executing that draft against the live database. Your task is to repair the SQL so it answers the question, complies with SQLite syntax rules, strictly follows the given database schema, and returns a non-empty result.

Database Engine:
SQLite

Database Schema
{DATABASE_SCHEMA}

Question
{QUESTION}

Draft SQL
{DRAFT_SQL}

Execution Feedback
{FEEDBACK}

Output Format

Reply with the corrected SQL statement inside a single fenced code block and nothing else.
"""

COT_TEMPLATE = """You are an expert SQLite analyst. Given the database schema, the optional evidence, and the question below, think through the problem step by step and then produce the final SQL query.

Database Engine:
SQLite

Database Schema
{DATABASE_SCHEMA}

Evidence
{EVIDENCE}

Question
{QUESTION}

Explain your reasoning as numbered steps, then give the final SQL inside a single fenced code block.
"""

TEMPLATES = {
    "expand": EXPAND_TEMPLATE,
    "evolve": EVOLVE_TEMPLATE,
    "strategize": STRATEGY_TEMPLATE,
    "refine": REFINE_TEMPLATE,
    "teach": COT_TEMPLATE,
}

_PLACEHOLDER = re.compile(r"\{([A-Z][A-Z_]*)\}")


def placeholders(template_id: str) -> set[str]:
    return set(_PLACEHOLDER.findall(TEMPLATES[template_id]))


def render_template(template_id: str, bindings: dict[str, str]) -> str:
    """Substitute bindings in one pass, so each value goes in verbatim.

    An unbound placeholder is an error.
    """
    missing = placeholders(template_id) - set(bindings)
    if missing:
        raise ResponseFormatError(
            f"template {template_id!r} is missing bindings: {sorted(missing)}"
        )
    return _PLACEHOLDER.sub(lambda m: str(bindings[m[1]]), TEMPLATES[template_id])
