"""Adaptive operator scheduling: scarcity weights, utility, top-K.

The accumulated share of each operator is P_accum = C(op) / (N_total + eps)
and its scarcity weight is P_target(op) / (P_accum + eps), so directions
that have produced few accepted instances get boosted until acceptance
shares converge to the target distribution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .errors import DomainError
from .operators import OperatorId

DEFAULT_EPSILON = 0.01


@dataclass(frozen=True)
class EvolutionState:
    counts: dict
    n_total: int
    p_target: dict
    epsilon: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise DomainError("epsilon must be positive")
        if any(c < 0 for c in self.counts.values()):
            raise DomainError("acceptance counts cannot be negative")
        if self.n_total != sum(self.counts.values()):
            raise DomainError("n_total must equal the sum of counts")
        if abs(sum(self.p_target.values()) - 1.0) > 1e-9:
            raise DomainError("target distribution must sum to 1")


def fresh_state(
    epsilon: float = DEFAULT_EPSILON,
    p_target: dict | None = None,
) -> EvolutionState:
    if p_target is None:
        p_target = {op: 1.0 / len(OperatorId) for op in OperatorId}
    return EvolutionState(
        counts={op: 0 for op in OperatorId},
        n_total=0,
        p_target=dict(p_target),
        epsilon=epsilon,
    )


def scarcity_weight(state: EvolutionState, op: OperatorId) -> float:
    p_accum = state.counts[op] / (state.n_total + state.epsilon)
    return state.p_target[op] / (p_accum + state.epsilon)


def utility(s_feas: float, w_div: float) -> float:
    if not 0.0 <= s_feas <= 1.0:
        raise DomainError(f"feasibility score {s_feas} outside [0, 1]")
    return s_feas * w_div


def select_top_k(utilities: dict, k: int) -> list[OperatorId]:
    """Highest-utility operators, zero-utility excluded, ties by enum order."""
    if k < 1:
        raise DomainError("k must be at least 1")
    ranked = sorted(
        (op for op, u in utilities.items() if u > 0),
        key=lambda op: (-utilities[op], op.value),
    )
    return ranked[:k]


def record_acceptance(state: EvolutionState, op: OperatorId) -> EvolutionState:
    counts = dict(state.counts)
    counts[op] += 1
    return replace(state, counts=counts, n_total=state.n_total + 1)


def state_to_json(state: EvolutionState) -> str:
    return json.dumps(
        {
            "counts": {op.name: c for op, c in state.counts.items()},
            "n_total": state.n_total,
            "p_target": {op.name: p for op, p in state.p_target.items()},
            "epsilon": state.epsilon,
        },
        sort_keys=True,
        indent=2,
    )


def state_from_json(text: str) -> EvolutionState:
    """The state ``state_to_json`` wrote; keys it does not write are ignored."""
    data = json.loads(text)
    return EvolutionState(
        counts={OperatorId[name]: c for name, c in data["counts"].items()},
        n_total=data["n_total"],
        p_target={OperatorId[name]: p for name, p in data["p_target"].items()},
        epsilon=data["epsilon"],
    )
