"""Per-layer spans recorded from outside sqlgrow.

``Tracer.install`` wraps the public functions of each layer and rebinds
every name that refers to them in every loaded ``sqlgrow`` module (for
example ``parse_sql`` in ``pipeline``, ``harness`` and ``gateway``), so no
sqlgrow code changes. Each call records a span (name, start, end, parent)
in flat arrays kept in memory; ``write`` saves them when the pass ends.
A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# layer -> timed public functions, as (owner, attribute) where owner is a
# module name or "module:Class" for methods.
LAYERS = {
    "lexer": [("sqlgrow.lexer", "tokenize")],
    "parser": [("sqlgrow.parser", "parse_sql")],
    "resolve": [("sqlgrow.resolve", "resolve_references")],
    "render": [("sqlgrow.render", "render_sql")],
    "features": [("sqlgrow.features", "extract_features"),
                 ("sqlgrow.features", "tokenize_sql")],
    "operators": [("sqlgrow.operators", "check_applicability"),
                  ("sqlgrow.operators", "plan_mutation"),
                  ("sqlgrow.operators", "apply_mutation")],
    "scheduler": [("sqlgrow.scheduler", "utility"),
                  ("sqlgrow.scheduler", "scarcity_weight"),
                  ("sqlgrow.scheduler", "select_top_k"),
                  ("sqlgrow.scheduler", "record_acceptance")],
    "schema": [("sqlgrow.schema", "load_schema")],
    "gateway": [("sqlgrow.gateway:LlmGateway", "generate_expansion"),
                ("sqlgrow.gateway:LlmGateway", "generate_evolution"),
                ("sqlgrow.gateway:LlmGateway", "refine_sql"),
                ("sqlgrow.gateway:LlmGateway", "generate_cot_candidates")],
    "harness": [("sqlgrow.harness", "execute_sql"),
                ("sqlgrow.harness", "collect_result"),
                ("sqlgrow.harness", "refine_until_valid"),
                ("sqlgrow.harness", "results_equivalent")],
    "cot": [("sqlgrow.cot", "synthesize_cot")],
    "dedup": [("sqlgrow.dedup", "embed_questions"),
              ("sqlgrow.dedup", "dedup_schema_group"),
              ("sqlgrow.dedup", "cosine")],
    "instances": [("sqlgrow.instances", "read_jsonl"),
                  ("sqlgrow.instances", "write_jsonl")],
    "pipeline": [("sqlgrow.pipeline", "ingest_seeds"),
                 ("sqlgrow.pipeline", "run_eqe"),
                 ("sqlgrow.pipeline", "run_oge"),
                 ("sqlgrow.pipeline", "stats_report"),
                 ("sqlgrow.pipeline", "run_full")],
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ix = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.sql_texts: set[str] = set()

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn):
        """A wrapper that records one span per call, then counts its result."""
        name_id = len(self.names)
        self.names.append(name)
        on_result = _ON_RESULT.get(name)
        on_error = _ON_ERROR.get(name)
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_ix.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def install(self, package) -> None:
        """Rebind every public layer function in every loaded sqlgrow module."""
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for functions in LAYERS.values():
            for owner, attr in functions:
                module_name, _, class_name = owner.partition(":")
                if class_name:
                    cls = getattr(sys.modules[module_name], class_name)
                    setattr(cls, attr, self.wrap(attr, getattr(cls, attr)))
                    continue
                original = getattr(sys.modules[module_name], attr)
                wrapper = self.wrap(attr, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

    # -- reporting ---------------------------------------------------------

    def _durations(self):
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_ix = np.frombuffer(self.name_ix, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return name_ix, dur, dur - child

    def layer_metrics(self) -> dict:
        name_ix, dur, self_time = self._durations()
        total = {n: 0.0 for n in self.names}
        own = {n: 0.0 for n in self.names}
        longest = {n: 0.0 for n in self.names}
        calls = {n: 0 for n in self.names}
        for i, name in enumerate(self.names):
            mask = name_ix == i
            if mask.any():
                total[name] = float(dur[mask].sum())
                own[name] = float(self_time[mask].sum())
                longest[name] = float(dur[mask].max())
                calls[name] = int(mask.sum())
        c = self.counts.get
        metrics = {
            "lexer.calls": calls["tokenize"],
            "lexer.tokens": c("lexer.tokens", 0),
            "lexer.self_s": own["tokenize"],
            "parser.calls": calls["parse_sql"],
            "parser.distinct_sql": len(self.sql_texts),
            "parser.self_s": own["parse_sql"],
            "resolve.calls": calls["resolve_references"],
            "resolve.self_s": own["resolve_references"],
            "render.calls": calls["render_sql"],
            "render.self_s": own["render_sql"],
            "features.calls": calls["extract_features"] + calls["tokenize_sql"],
            "features.self_s": own["extract_features"] + own["tokenize_sql"],
            "operators.applicability_calls": calls["check_applicability"],
            "operators.applicability_self_s": own["check_applicability"],
            "operators.plan_calls": calls["plan_mutation"],
            "operators.plan_self_s": own["plan_mutation"],
            "operators.apply_self_s": own["apply_mutation"],
            "operators.infeasible": c("operators.infeasible", 0),
            "scheduler.calls": sum(calls[n] for n in (
                "utility", "scarcity_weight", "select_top_k", "record_acceptance")),
            "scheduler.self_s": sum(own[n] for n in (
                "utility", "scarcity_weight", "select_top_k", "record_acceptance")),
            "schema.calls": calls["load_schema"],
            "schema.self_s": own["load_schema"],
            "gateway.expand_calls": calls["generate_expansion"],
            "gateway.expand_self_s": own["generate_expansion"],
            "gateway.evolve_calls": calls["generate_evolution"],
            "gateway.evolve_self_s": own["generate_evolution"],
            "gateway.refine_calls": calls["refine_sql"],
            "gateway.refine_self_s": own["refine_sql"],
            "gateway.teach_calls": calls["generate_cot_candidates"],
            "gateway.teach_self_s": own["generate_cot_candidates"],
            "harness.execute_calls": calls["execute_sql"],
            "harness.execute_rows": c("harness.execute_rows", 0),
            "harness.execute_self_s": own["execute_sql"],
            "harness.execute_max_s": longest["execute_sql"],
            "harness.collect_calls": calls["collect_result"],
            "harness.collect_rows": c("harness.collect_rows", 0),
            "harness.collect_self_s": own["collect_result"],
            "harness.refine_calls": calls["refine_until_valid"],
            "harness.refine_attempts": c("harness.refine_attempts", 0),
            "harness.refine_accepted": c("harness.refine_accepted", 0),
            "harness.compare_calls": calls["results_equivalent"],
            "cot.calls": calls["synthesize_cot"],
            "cot.kept": c("cot.kept", 0),
            "cot.candidates_run": c("cot.candidates_run", 0),
            "cot.self_s": own["synthesize_cot"],
            "dedup.vectors": c("dedup.vectors", 0),
            "dedup.embed_self_s": own["embed_questions"],
            "dedup.items": c("dedup.items", 0),
            "dedup.kept": c("dedup.kept", 0),
            "dedup.pairs": calls["cosine"],
            "dedup.scan_self_s": own["dedup_schema_group"] + own["cosine"],
            "instances.read_rows": c("instances.read_rows", 0),
            "instances.read_self_s": own["read_jsonl"],
            "instances.write_rows": c("instances.write_rows", 0),
            "instances.write_self_s": own["write_jsonl"],
            "pipeline.ingest_s": total["ingest_seeds"],
            "pipeline.eqe_s": total["run_eqe"],
            "pipeline.oge_s": total["run_oge"],
            "pipeline.report_s": total["stats_report"],
            "pipeline.run_full_s": total["run_full"],
        }
        return metrics

    def write(self, path) -> None:
        """Save every span: name, start, end and parent index (-1 at the root)."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_ix, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


# -- counts taken from arguments and results ----------------------------------

def _tokens(tr, args, result):
    tr.add("lexer.tokens", len(result))


def _parsed(tr, args, result):
    tr.sql_texts.add(args[0])


def _executed(tr, args, result):
    tr.add("harness.execute_rows", result.row_count)


def _collected(tr, args, result):
    if result is not None:
        tr.add("harness.collect_rows", len(result.rows))


def _refined(tr, args, result):
    tr.add("harness.refine_attempts", result.attempts)
    tr.add("harness.refine_accepted", int(result.accepted))


def _cot(tr, args, result):
    # a kept record ran candidates up to the winner; a discard ran them all
    kind = type(result).__name__
    if kind == "CotRecord":
        tr.add("cot.kept")
        tr.add("cot.candidates_run", result.attempts_used)
    elif kind == "CotDiscard":
        tr.add("cot.candidates_run", sum(
            reason.startswith("candidate ") for reason in result.failure_reasons))


def _embedded(tr, args, result):
    tr.add("dedup.vectors", len(result))


def _deduped(tr, args, result):
    tr.add("dedup.items", len(args[0]))
    tr.add("dedup.kept", len(result[0]))


def _read(tr, args, result):
    tr.add("instances.read_rows", len(result))


def _written(tr, args, result):
    tr.add("instances.write_rows", len(args[0]))


def _infeasible(tr, exc):
    if type(exc).__name__ == "InfeasibleOperatorError":
        tr.add("operators.infeasible")


_ON_RESULT = {
    "tokenize": _tokens,
    "parse_sql": _parsed,
    "execute_sql": _executed,
    "collect_result": _collected,
    "refine_until_valid": _refined,
    "synthesize_cot": _cot,
    "embed_questions": _embedded,
    "dedup_schema_group": _deduped,
    "read_jsonl": _read,
    "write_jsonl": _written,
}
_ON_ERROR = {"plan_mutation": _infeasible}
