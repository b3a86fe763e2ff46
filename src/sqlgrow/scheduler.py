"""Adaptive operator scheduling: scarcity weights, utility, top-K.

The accumulated share of each operator is P_accum = C(op) / (N_total + eps),
with N_total the sum of the counts C, and its scarcity weight is
P_target(op) / (P_accum + eps), so directions that have produced few
accepted instances get boosted until acceptance shares converge to the
target distribution.

The counts are those of the children accepted so far, so a state is never
stored: a run recounts it from the evolved children it has checkpointed.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DomainError
from .operators import OperatorId

DEFAULT_EPSILON = 0.01


class _SchedulerFields(NamedTuple):
    counts: dict
    p_target: dict
    epsilon: float


class EvolutionState(_SchedulerFields):
    """Acceptance counts and target shares; values out of range raise DomainError."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.epsilon <= 0:
            raise DomainError("epsilon must be positive")
        if any(c < 0 for c in self.counts.values()):
            raise DomainError("acceptance counts cannot be negative")
        if abs(sum(self.p_target.values()) - 1.0) > 1e-9:
            raise DomainError("target distribution must sum to 1")
        return self


def fresh_state(
    epsilon: float = DEFAULT_EPSILON,
    p_target: dict | None = None,
) -> EvolutionState:
    if p_target is None:
        p_target = {op: 1.0 / len(OperatorId) for op in OperatorId}
    return EvolutionState(
        counts={op: 0 for op in OperatorId},
        p_target=dict(p_target),
        epsilon=epsilon,
    )


def scarcity_weight(state: EvolutionState, op: OperatorId) -> float:
    p_accum = state.counts[op] / (sum(state.counts.values()) + state.epsilon)
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
    # a count only grows, so the copy skips the checks of construction
    counts = dict(state.counts)
    counts[op] += 1
    return state._replace(counts=counts)
