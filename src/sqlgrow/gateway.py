"""Uniform interface to the model roles, with a deterministic mock path.

Five roles share one chat-completion wire protocol: expand, evolve,
refine, strategize, teach. A role without a configured HTTP backend falls
back to the mock implementation, which produces schema-grounded output by
running the mutation planner directly, so the full pipeline is
reproducible without any model. No other module builds prompts or parses
model output.

Every live call, the embedder's included, makes at most ``MAX_TRIES``
posts through one ``_post_json``, so only this module knows the wire
protocol and the retry policy.
"""

from __future__ import annotations

import json
import re
import sqlite3
import time
from dataclasses import dataclass

from . import tree as t
from .errors import (
    InfeasibleOperatorError,
    ResponseFormatError,
    SqlgrowError,
    TransportError,
)
from .harness import ExecutionFeedback, render_feedback
from .operators import (
    OperatorId,
    ParentAnalysis,
    analyze,
    apply_mutation,
    literal_comparisons,
    operator_instruction,
    plan_mutation,
)
from .parser import parse_sql
from .prompts import render_template
from .render import render_sql
from .resolve import resolve_references
from .schema import DatabaseSchema, render_schema_prompt

_STRATEGY_NAMES = {
    "functional wrapping": OperatorId.FUNC,
    "operator mutation": OperatorId.OP,
    "logical clause expansion": OperatorId.LOGIC,
    "relational expansion": OperatorId.JOIN,
    "nesting evolution": OperatorId.NEST,
    "set composition": OperatorId.SET,
}


@dataclass(frozen=True)
class DecodingParams:
    temperature: float = 0.8
    max_tokens: int = 1024
    n: int = 1


@dataclass(frozen=True)
class ExpansionResult:
    question: str
    evidence: str
    sql: str

    def __post_init__(self):
        if not self.sql.strip():
            raise ResponseFormatError("expansion produced an empty SQL string")


@dataclass(frozen=True)
class CotCandidate:
    reasoning: str
    predicted_sql: str


MAX_TRIES = 3  # posts per model call, transport and format failures together
_TIMEOUT_S = 60.0


def _with_retries(call):
    """``call()``, made at most MAX_TRIES times; the last failure propagates.

    A TransportError waits ``0.5 * 2**attempt`` seconds before the next try;
    a ResponseFormatError resamples at once. Every live model call, and only
    a live one, goes through here.
    """
    for attempt in range(MAX_TRIES):
        try:
            return call()
        except (TransportError, ResponseFormatError) as exc:
            if attempt == MAX_TRIES - 1:
                raise
            if isinstance(exc, TransportError):
                time.sleep(0.5 * 2**attempt)


def _post_json(endpoint: str, api_key: str, payload: dict, read):
    """``read`` of the JSON reply to one POST; any failure is a TransportError."""
    import requests  # only HTTP backends need it; keeps `import sqlgrow` light

    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    try:
        response = requests.post(endpoint, json=payload, headers=headers,
                                 timeout=_TIMEOUT_S)
        response.raise_for_status()
        return read(response.json())
    except (requests.RequestException, KeyError, TypeError, ValueError) as exc:
        raise TransportError(f"model endpoint {endpoint} failed: {exc}")


def _chat_texts(reply: dict) -> list[str]:
    texts = [c["message"]["content"] for c in reply["choices"]]
    if not texts:
        raise ValueError("reply has no choices")
    return texts


@dataclass
class HttpChatBackend:
    """Chat-completion endpoint client; one POST per call."""

    endpoint: str
    model: str
    api_key: str = ""

    def complete(self, messages: list[dict], decoding: DecodingParams) -> list[str]:
        payload = {
            "model": self.model,
            "messages": messages,
            "temperature": decoding.temperature,
            "max_tokens": decoding.max_tokens,
            "n": decoding.n,
        }
        return _post_json(self.endpoint, self.api_key, payload, _chat_texts)


@dataclass
class HttpEmbeddingBackend:
    """Embedding endpoint client; one request per call, within the retry bound."""

    endpoint: str
    model: str
    api_key: str = ""

    def embed(self, texts: list[str]) -> list[list[float]]:
        payload = {"model": self.model, "input": texts}
        return _with_retries(lambda: _post_json(
            self.endpoint, self.api_key, payload,
            lambda reply: [item["embedding"] for item in reply["data"]]))


class LlmGateway:
    """Routes each role either to its HTTP backend or to the mock."""

    def __init__(self, backends: dict | None = None):
        self.backends = backends or {}

    def _backend(self, role: str) -> HttpChatBackend | None:
        return self.backends.get(role)

    # -- expansion ---------------------------------------------------------

    def generate_expansion(
        self,
        seed_question: str,
        seed_evidence: str,
        seed_sql: str,
        schema: DatabaseSchema,
        db: sqlite3.Connection | None = None,
        seed: int = 0,
        analysis: ParentAnalysis | None = None,
    ) -> ExpansionResult:
        """A rephrased, grounded variant of the seed.

        ``analysis``, the ``operators.analyze`` result of the parsed seed SQL,
        spares the mock from analysing that tree again.
        """
        backend = self._backend("expand")
        if backend is None:
            return self._mock_expansion(seed_question, seed_evidence, seed_sql,
                                        schema, db, seed, analysis)
        prompt = render_template("expand", {
            "DATABASE_SCHEMA": render_schema_prompt(schema),
            "EVIDENCE": seed_evidence or "None.",
            "QUESTION": seed_question,
            "GOLD_SQL": seed_sql,
        })
        return _ask(backend, prompt, DecodingParams(temperature=0.8),
                    lambda texts: _parse_expansion(texts[0]))

    def _mock_expansion(self, question, evidence, sql, schema, db, seed, analysis):
        ast = analysis.ast if analysis is not None else parse_sql(sql)
        try:
            new_sql, summary = _mock_mutation(sql, schema, OperatorId.LOGIC, seed,
                                              db, analysis)
            suffix = f" ({summary})"
        except (InfeasibleOperatorError, SqlgrowError):
            new_sql = render_sql(ast)
            suffix = ""
        return ExpansionResult(
            question=f"Rephrased: {question}{suffix}",
            evidence=evidence,
            sql=new_sql,
        )

    # -- evolution ---------------------------------------------------------

    def generate_evolution(
        self,
        question: str,
        evidence: str,
        sql: str,
        schema: DatabaseSchema,
        op: OperatorId,
        db: sqlite3.Connection | None = None,
        seed: int = 0,
        analysis: ParentAnalysis | None = None,
    ) -> ExpansionResult:
        """The query evolved by one operator, with its question.

        ``analysis``, the ``operators.analyze`` result of the parsed ``sql``,
        spares the mock from analysing that tree again.
        """
        backend = self._backend("evolve")
        if backend is None:
            new_sql, summary = _mock_mutation(sql, schema, op, seed, db, analysis)
            return ExpansionResult(
                question=f"{question} ({summary})",
                evidence=evidence,
                sql=new_sql,
            )
        prompt = render_template("evolve", {
            "DATABASE_SCHEMA": render_schema_prompt(schema),
            "EVIDENCE": evidence or "None.",
            "QUESTION": question,
            "GOLD_SQL": sql,
            "OPERATION": operator_instruction(op),
        })
        return _ask(backend, prompt, DecodingParams(temperature=0.8),
                    lambda texts: _parse_expansion(texts[0]))

    # -- refinement ----------------------------------------------------------

    def refine_sql(
        self,
        question: str,
        draft: str,
        schema: DatabaseSchema,
        feedback: ExecutionFeedback,
        db: sqlite3.Connection | None = None,
    ) -> str:
        backend = self._backend("refine")
        if backend is None:
            return _mock_refine(question, draft, schema, feedback, db)
        prompt = render_template("refine", {
            "DATABASE_SCHEMA": render_schema_prompt(schema),
            "QUESTION": question,
            "DRAFT_SQL": draft,
            "FEEDBACK": render_feedback(feedback),
        })
        return _ask(backend, prompt, DecodingParams(temperature=0.0),
                    lambda texts: _parse_refined(texts[0]))

    # -- strategy scoring -----------------------------------------------------

    def score_feasibility_llm(
        self, question: str, sql: str, schema: DatabaseSchema
    ) -> dict[OperatorId, float]:
        """Model-scored feasibility; only available with a live backend."""
        backend = self._backend("strategize")
        if backend is None:
            raise TransportError("no strategy backend configured")
        prompt = render_template("strategize", {
            "DATABASE_SCHEMA": render_schema_prompt(schema),
            "QUESTION": question,
            "GOLD_SQL": sql,
        })
        return _ask(backend, prompt, DecodingParams(temperature=0.0),
                    lambda texts: _parse_scores(texts[0]))

    # -- chain of thought -------------------------------------------------------

    def generate_cot_candidates(
        self,
        question: str,
        evidence: str,
        schema: DatabaseSchema,
        n: int,
        gold_sql: str = "",
        seed: int = 0,
    ) -> list[CotCandidate]:
        if n < 1:
            raise ValueError("n must be at least 1")
        backend = self._backend("teach")
        if backend is None:
            return _mock_cot(question, schema, n, gold_sql)
        prompt = render_template("cot", {
            "DATABASE_SCHEMA": render_schema_prompt(schema),
            "EVIDENCE": evidence or "None.",
            "QUESTION": question,
        })
        return _ask(backend, prompt, DecodingParams(temperature=0.8, n=n),
                    _parse_cot)


def _ask(backend, prompt: str, decoding: DecodingParams, parse):
    """``parse`` of the backend's replies to ``prompt``, within the retry bound.

    Parsing happens inside the retried call, so a malformed reply is
    resampled under the same MAX_TRIES as a transport failure.
    """
    messages = [{"role": "user", "content": prompt}]
    return _with_retries(lambda: parse(backend.complete(messages, decoding)))


# ---------------------------------------------------------------------------
# Mock backends
# ---------------------------------------------------------------------------

def _mock_mutation(sql, schema, op, seed, db, analysis):
    """Plan, apply and render one operator on ``sql``: (new SQL, summary).

    ``analysis`` is the ``operators.analyze`` result of the parsed ``sql``,
    or None to analyse it here.
    """
    if analysis is None:
        analysis = analyze(parse_sql(sql), schema)
    plan = plan_mutation(analysis, op, seed, db)
    return render_sql(apply_mutation(analysis.ast, plan)), plan.payload["summary"]


def _mock_refine(question, draft, schema, feedback, db):
    """Rule repairs: identifier fix, predicate drop, equality-to-LIKE."""
    message = feedback.error if not feedback.ok else ""

    fixed = _fix_identifier(draft, schema, message)
    if fixed is not None:
        return fixed

    if not (feedback.ok and feedback.row_count == 0):
        return draft

    try:
        ast = parse_sql(draft)
    except SqlgrowError:
        return draft

    dropped = _drop_dead_predicate(ast, schema, db)
    if dropped is not None:
        return dropped

    relaxed = _relax_text_equality(ast)
    if relaxed is not None:
        return relaxed
    return draft


def _fix_identifier(draft, schema, message):
    match = re.search(r"no such (?:column|table): ([\w.]+)", message)
    if not match:
        return None
    broken = match.group(1).split(".")[-1]
    pool = set()
    for tab in schema.tables:
        pool.add(tab.name)
        pool.update(tab.column_names())
    best = min(pool, key=lambda name: (_edit_distance(broken, name), name), default=None)
    if best is None or best == broken:
        return None
    return re.sub(rf"\b{re.escape(broken)}\b", best, draft)


def _edit_distance(a: str, b: str) -> int:
    a, b = a.lower(), b.lower()
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + (ca != cb),
            ))
        previous = current
    return previous[-1]


def _drop_dead_predicate(ast, schema, db):
    """Remove one literal predicate whose value no longer exists in its column."""
    if db is None:
        return None
    try:
        report = resolve_references(ast, schema)
    except SqlgrowError:
        return None
    relation_at = {b.path: b.relation for b in report.resolved}
    for path, node in literal_comparisons(ast):
        if node.value[0] != "=":
            continue
        col, lit = node.children
        relation = relation_at.get((*path, 0))
        if not relation or relation == "<select-alias>" or schema.table(relation) is None:
            continue
        try:
            row = db.execute(
                f'SELECT 1 FROM "{relation}" WHERE "{col.value[1]}" = ? LIMIT 1',
                (_python_value(lit),),
            ).fetchone()
        except sqlite3.Error:
            continue
        if row is None:
            pruned = _remove_predicate(ast, path)
            if pruned is not None:
                return render_sql(pruned)
    return None


def _python_value(lit: t.Node):
    lex = lit.value[0]
    if lex.startswith("'"):
        return lex[1:-1].replace("''", "'")
    try:
        return int(lex)
    except ValueError:
        try:
            return float(lex)
        except ValueError:
            return lex


def _remove_predicate(ast, pred_path):
    """Drop a predicate from its AND chain, or the whole WHERE/HAVING."""
    if not pred_path:
        return None
    parent_path = pred_path[:-1]
    parent = t.node_at(ast, parent_path)
    if parent.kind == t.LOGICAL and parent.value[0] == "and":
        kept = [c for i, c in enumerate(parent.children) if i != pred_path[-1]]
        new_node = kept[0] if len(kept) == 1 else t.logical("and", kept)
        return t.replace_at(ast, parent_path, new_node)
    if parent.kind == t.CLAUSE and parent.value[0] in ("where", "having"):
        select_path = parent_path[:-1]
        select_node = t.node_at(ast, select_path)
        kept_clauses = [c for c in select_node.children if c is not parent]
        return t.replace_at(ast, select_path, t.select_core(kept_clauses))
    return None


def _relax_text_equality(ast):
    """Turn the first text equality into a LIKE substring match."""
    for path, node in literal_comparisons(ast):
        col, lit = node.children
        if node.value[0] != "=" or not lit.value[0].startswith("'"):
            continue
        inner = lit.value[0][1:-1]
        relaxed = t.operator("like", [col, t.literal(f"'%{inner}%'")])
        return render_sql(t.replace_at(ast, path, relaxed))
    return None


def _mock_cot(question, schema, n, gold_sql):
    """Candidate 1 is the gold SQL with a templated trace; the rest fail."""
    if not gold_sql:
        raise ResponseFormatError("mock teacher requires the gold SQL")
    tables = ", ".join(schema.table_names())
    trace = "\n".join([
        f"1. Inspect the schema; the relevant tables are: {tables}.",
        f"2. Restate the goal: {question}",
        "3. Choose the columns, joins, and filters that satisfy the goal.",
        f"4. Final query:\n```sql\n{gold_sql}\n```",
    ])
    candidates = [CotCandidate(reasoning=trace, predicted_sql=gold_sql)]
    for k in range(2, n + 1):
        wrong = f"{gold_sql} LIMIT 0" if " limit " not in gold_sql.lower() \
            else f"SELECT * FROM ({gold_sql}) WHERE 1 = 0"
        candidates.append(CotCandidate(
            reasoning=f"Alternative attempt {k} (intentionally unverified).",
            predicted_sql=wrong,
        ))
    return candidates


# ---------------------------------------------------------------------------
# Response parsing
# ---------------------------------------------------------------------------

_CODE_BLOCK = re.compile(r"```(?:sql)?\s*(.*?)```", re.DOTALL | re.IGNORECASE)


def _last_code_block(text: str) -> str:
    blocks = _CODE_BLOCK.findall(text or "")
    return blocks[-1].strip() if blocks else ""


_JSON_OPENERS = {dict: ("{", "object"), list: ("[", "array")}


def _first_json(text: str, kind: type):
    """The first JSON value of ``kind`` (dict or list) embedded in text."""
    opener, name = _JSON_OPENERS[kind]
    decoder = json.JSONDecoder()
    start = text.find(opener)
    while start != -1:
        try:
            value, _ = decoder.raw_decode(text, start)
        except ValueError:
            value = None
        if isinstance(value, kind):
            return value
        start = text.find(opener, start + 1)
    raise ResponseFormatError(f"no JSON {name} found in model response")


def _parse_refined(text: str) -> str:
    sql = _last_code_block(text) or text.strip()
    if not sql:
        raise ResponseFormatError("refiner returned no SQL")
    return sql


def _parse_scores(text: str) -> dict[OperatorId, float]:
    scores: dict[OperatorId, float] = {}
    for entry in _first_json(text, list):
        if not isinstance(entry, dict):
            continue
        op = _STRATEGY_NAMES.get(str(entry.get("operator", "")).strip().lower())
        score = entry.get("score")
        if op is None or not isinstance(score, (int, float)):
            continue
        if not 0.0 <= float(score) <= 1.0:
            continue  # out-of-range entries fall back to rule-based
        scores[op] = float(score)
    return scores


def _parse_cot(texts: list[str]) -> list[CotCandidate]:
    candidates = []
    for text in texts:
        sql = _last_code_block(text)
        if sql:  # responses with no extractable SQL are dropped
            candidates.append(CotCandidate(reasoning=text, predicted_sql=sql))
    return candidates


def _parse_expansion(text: str) -> ExpansionResult:
    data = _first_json(text, dict)
    if "gold_sql" not in data or "question" not in data:
        raise ResponseFormatError(
            "expansion response must carry question and gold_sql keys"
        )
    return ExpansionResult(
        question=str(data["question"]),
        evidence=str(data.get("evidence", "")),
        sql=str(data["gold_sql"]),
    )
