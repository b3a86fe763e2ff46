"""Uniform interface to the model roles, with a deterministic mock path.

Five roles share one chat-completion wire protocol: expand, evolve,
refine, strategize, teach. A role without a configured HTTP backend is
answered by the mock, which produces schema-grounded replies by running
the mutation planner directly, so the full pipeline is reproducible
without any model. No other module builds prompts or parses model output.

Every role call, the mock's included, parses its reply texts with the
role's parser inside ``_with_retries``; a mock reply never fails, so a mock
call makes one attempt and never sleeps. Every live call, the embedder's
included, makes at most ``MAX_TRIES`` posts through one ``_post_json``, so
only this module knows the wire protocol and the retry policy.
"""

from __future__ import annotations

import json
import re
import sys
import time
from typing import NamedTuple

from . import tree as t
from .errors import (
    ResponseFormatError,
    SqlgrowError,
    TransportError,
)
from .harness import ExecutionFeedback, _run_query, render_feedback
from .lexer import _TOKEN, tokenize
from .operators import (
    OperatorId,
    ParentAnalysis,
    apply_mutation,
    literal_comparisons,
    operator_instruction,
    plan_mutation,
)
from .parser import parse_sql
from .prompts import render_template
from .render import render_expr, render_sql
from .resolve import resolve_references
from .schema import DatabaseSchema, render_schema_prompt
from .sqlite import quote_ident, sqlite3

ROLES = ("expand", "evolve", "refine", "strategize", "teach")  # template ids too

_STRATEGY_NAMES = {
    "functional wrapping": OperatorId.FUNC,
    "operator mutation": OperatorId.OP,
    "logical clause expansion": OperatorId.LOGIC,
    "relational expansion": OperatorId.JOIN,
    "nesting evolution": OperatorId.NEST,
    "set composition": OperatorId.SET,
}


class DecodingParams(NamedTuple):
    temperature: float = 0.8
    max_tokens: int = 1024
    n: int = 1


class ExpansionResult(NamedTuple):
    question: str
    evidence: str
    sql: str


class CotCandidate(NamedTuple):
    reasoning: str
    predicted_sql: str


MAX_TRIES = 3  # posts per model call, transport and format failures together
_TIMEOUT_S = 60.0


def _with_retries(call):
    """``call()``, made at most MAX_TRIES times; the last failure propagates.

    A TransportError waits ``0.5 * 2**attempt`` seconds before the next try;
    a ResponseFormatError resamples at once. Every role call, live or mock,
    and every embedding request goes through here.
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


def _embedding_rows(reply: dict) -> list[list[float]]:
    rows = [item["embedding"] for item in reply["data"]]
    for row in rows:
        for value in row:
            # a bool is an int; NaN, infinities and ints past any float fail the bound
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not abs(value) <= sys.float_info.max):
                raise ValueError(f"embedding entry {value!r} is not a finite number")
    return rows


def _chat_texts(reply: dict) -> list[str]:
    texts = [c["message"]["content"] for c in reply["choices"]]
    if not texts:
        raise ValueError("reply has no choices")
    return texts


class HttpChatBackend(NamedTuple):
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


class HttpEmbeddingBackend(NamedTuple):
    """Embedding endpoint client; one request per call, within the retry bound."""

    endpoint: str
    model: str
    api_key: str = ""

    def embed(self, texts: list[str]) -> list[list[float]]:
        payload = {"model": self.model, "input": texts}
        return _with_retries(lambda: _post_json(
            self.endpoint, self.api_key, payload, _embedding_rows))


class LlmGateway:
    """Routes each role either to its HTTP backend or to the mock."""

    def __init__(self, backends: dict | None = None):
        self.backends = backends or {}

    def _call(self, role: str, decoding, mock, parse, schema, bindings):
        """``parse`` of the role's reply texts, within the retry bound.

        An HTTP backend is sent the role's template filled with the schema and
        ``bindings()``; without one, ``mock()`` answers and no prompt is rendered.
        """
        backend = self.backends.get(role)
        if backend is None:
            complete = mock
        else:
            prompt = render_template(role, {
                "DATABASE_SCHEMA": render_schema_prompt(schema), **bindings()})
            messages = [{"role": "user", "content": prompt}]
            complete = lambda: backend.complete(messages, decoding)
        return _with_retries(lambda: parse(complete()))

    # -- expansion ---------------------------------------------------------

    def generate_expansion(
        self,
        seed_question: str,
        seed_evidence: str,
        seed_sql: str,
        schema: DatabaseSchema,
        db: sqlite3.Connection | None = None,
        seed: int = 0,
        *,
        analysis: ParentAnalysis,
    ) -> ExpansionResult:
        """A rephrased, grounded variant of the seed.

        ``analysis`` is the ``operators.analyze`` result of the parsed seed
        SQL; the mock rewrites its tree.
        """
        return self._call(
            "expand", DecodingParams(temperature=0.8),
            lambda: [_mock_expansion(seed_question, seed_evidence, db, seed,
                                     analysis)],
            lambda texts: _parse_expansion(texts[0]),
            schema, lambda: {
                "EVIDENCE": seed_evidence or "None.",
                "QUESTION": seed_question,
                "GOLD_SQL": seed_sql,
            })

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
        *,
        analysis: ParentAnalysis,
    ) -> ExpansionResult:
        """The query evolved by one operator, with its question.

        ``analysis`` is the ``operators.analyze`` result of the parsed
        ``sql``; the mock mutates its tree.
        """
        return self._call(
            "evolve", DecodingParams(temperature=0.8),
            lambda: [_mock_evolution(question, evidence, op, seed, db, analysis)],
            lambda texts: _parse_expansion(texts[0]),
            schema, lambda: {
                "EVIDENCE": evidence or "None.",
                "QUESTION": question,
                "GOLD_SQL": sql,
                "OPERATION": operator_instruction(op),
            })

    # -- refinement ----------------------------------------------------------

    def refine_sql(
        self,
        question: str,
        draft: str,
        schema: DatabaseSchema,
        feedback: ExecutionFeedback,
        db: sqlite3.Connection | None = None,
    ) -> str:
        return self._call(
            "refine", DecodingParams(temperature=0.0),
            lambda: [_mock_refine(question, draft, schema, feedback, db)],
            lambda texts: _parse_refined(texts[0]),
            schema, lambda: {
                "QUESTION": question,
                "DRAFT_SQL": draft,
                "FEEDBACK": render_feedback(feedback),
            })

    # -- strategy scoring -----------------------------------------------------

    def score_feasibility_llm(
        self, question: str, sql: str, schema: DatabaseSchema
    ) -> dict[OperatorId, float]:
        """Model-scored feasibility per operator, in [0, 1]; the mock scores none."""
        return self._call(
            "strategize", DecodingParams(temperature=0.0),
            lambda: ["[]"],
            lambda texts: _parse_scores(texts[0]),
            schema, lambda: {
                "QUESTION": question,
                "GOLD_SQL": sql,
            })

    # -- chain of thought -------------------------------------------------------

    def generate_cot_candidates(
        self,
        question: str,
        evidence: str,
        schema: DatabaseSchema,
        n: int,
        gold_sql: str = "",
    ) -> list[CotCandidate]:
        """Up to ``n`` samples; the mock's first traces ``gold_sql``, which it needs."""
        if n < 1:
            raise ValueError("n must be at least 1")
        return self._call(
            "teach", DecodingParams(temperature=0.8, n=n),
            lambda: _mock_cot(question, schema, n, gold_sql),
            _parse_cot,
            schema, lambda: {
                "EVIDENCE": evidence or "None.",
                "QUESTION": question,
            })


# ---------------------------------------------------------------------------
# Mock replies
# ---------------------------------------------------------------------------

def _expansion_reply(question: str, evidence: str, sql: str) -> str:
    """The JSON object an expansion or evolution reply carries."""
    return json.dumps({"question": question, "evidence": evidence, "gold_sql": sql})


def _mock_evolution(question, evidence, op, seed, db, analysis):
    """The reply to an evolution by ``op`` of the parent ``analysis`` describes."""
    plan = plan_mutation(analysis, op, seed, db)
    return _expansion_reply(f"{question} ({plan.summary})", evidence,
                            render_sql(apply_mutation(analysis.ast, plan)))


def _mock_expansion(question, evidence, db, seed, analysis):
    """One logic rewrite of the seed, or the seed re-rendered when none applies."""
    try:
        return _mock_evolution(f"Rephrased: {question}", evidence,
                               OperatorId.LOGIC, seed, db, analysis)
    except SqlgrowError:
        return _expansion_reply(f"Rephrased: {question}", evidence,
                                render_sql(analysis.ast))


def _mock_refine(question, draft, schema, feedback, db):
    """Rule repairs that leave the rest of the query as written: the name
    SQLite could not find is fixed, else one literal equality that no row
    meets is dropped, else the draft comes back."""
    if not feedback.ok:
        return _fix_identifier(draft, schema, feedback.error) or draft
    if feedback.row_count:
        return draft
    try:
        ast = parse_sql(draft)
    except SqlgrowError:
        return draft
    return _drop_dead_predicate(ast, schema, db) or draft


def _fix_identifier(draft, schema, message):
    """The draft with each identifier token that names what SQLite reported
    replaced by the nearest name of that kind; a string literal or a longer
    name that holds the text is left alone."""
    match = re.search(r"no such (column|table): ([\w.]+)", message)
    if not match:
        return None
    broken = match.group(2).split(".")[-1].lower()
    if match.group(1) == "column":
        pool = {name for tab in schema.tables for name in tab.column_names()}
    else:
        pool = set(schema.table_names())
    best = min(pool, key=lambda name: (_edit_distance(broken, name), name), default=None)
    if best is None or best.lower() == broken:
        return None
    fixed, done = [], 0
    for tok in tokenize(draft):
        if tok.type == "ident" and tok.text.lower() == broken:
            fixed += [draft[done:tok.pos], render_expr(t.column("", best))]
            done = _TOKEN.match(draft, tok.pos).end()  # a quoted name ends at its quote
    return "".join(fixed) + draft[done:] if fixed else None


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
    """Remove one literal equality whose value is in no row of its column.

    The lookup holds the literal's own lexeme, a number, string, NULL, TRUE
    or FALSE token as the parser read it, so SQLite reads the value as it
    reads the draft's.
    """
    if db is None:
        return None
    try:
        report = resolve_references(ast, schema)
    except SqlgrowError:
        return None
    for path, node in literal_comparisons(ast):
        if node.value[0] != "=":
            continue
        col, lit = node.children
        relation = report.relation_at.get((*path, 0))
        if not relation or relation == "<select-alias>" or schema.table(relation) is None:
            continue
        try:
            _, rows = _run_query(
                db, f'SELECT 1 FROM {quote_ident(relation)} '
                    f'WHERE {quote_ident(col.value[1])} = {lit.value[0]} LIMIT 1', 1)
        except sqlite3.Error:
            continue
        if not rows:
            pruned = _remove_predicate(ast, path)
            if pruned is not None:
                return render_sql(pruned)
    return None


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


def _mock_cot(question, schema, n, gold_sql):
    """n teacher samples: the first traces the gold SQL, the rest end in SQL that fails."""
    if not gold_sql:
        raise ValueError("the mock teacher requires the gold SQL")
    tables = ", ".join(schema.table_names())
    goal = re.sub("`{3,}", "`", question)  # a fence here would pair with the SQL's
    texts = ["\n".join([
        f"1. Inspect the schema; the relevant tables are: {tables}.",
        f"2. Restate the goal: {goal}",
        "3. Choose the columns, joins, and filters that satisfy the goal.",
        f"4. Final query:\n```sql\n{gold_sql}\n```",
    ])]
    wrong = f"{gold_sql} LIMIT 0" if " limit " not in gold_sql.lower() \
        else f"SELECT * FROM ({gold_sql}) WHERE 1 = 0"
    for k in range(2, n + 1):
        texts.append(f"Alternative attempt {k} (intentionally unverified).\n"
                     f"```sql\n{wrong}\n```")
    return texts


# ---------------------------------------------------------------------------
# Response parsing
# ---------------------------------------------------------------------------

# A body runs to the first closing fence. The loop is unrolled: the lazy
# ``(.*?)`` form took about 2.5 times as long on the mock teacher's samples.
_CODE_BLOCK = re.compile(r"```([^`]*(?:`(?!``)[^`]*)*)```")


def _last_code_block(text: str) -> str:
    """The last fenced block of ``text``, stripped and without a ``sql`` tag."""
    blocks = _CODE_BLOCK.findall(text or "")
    block = blocks[-1] if blocks else ""
    if block[:3].casefold() == "sql":
        block = block[3:]
    return block.strip()


_JSON_OPENERS = {dict: ("{", "object"), list: ("[", "array")}
_DECODER = json.JSONDecoder()


def _first_json(text: str, kind: type):
    """The first JSON value of ``kind`` (dict or list) embedded in text."""
    opener, name = _JSON_OPENERS[kind]
    start = text.find(opener)
    while start != -1:
        try:
            value, _ = _DECODER.raw_decode(text, start)
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
        if op is None or type(score) not in (int, float):  # a bool is an int too
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
    question, sql = data.get("question"), data.get("gold_sql")
    evidence = data.get("evidence", "")
    if not (isinstance(question, str) and question and isinstance(sql, str)
            and sql.strip() and isinstance(evidence, str)):
        raise ResponseFormatError(
            "expansion response must carry a non-empty question and gold_sql, "
            "and string evidence if any"
        )
    return ExpansionResult(question=question, evidence=evidence, sql=sql)
