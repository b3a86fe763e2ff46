import pytest
from hypothesis import given, strategies as st

from sqlgrow.errors import DomainError
from sqlgrow.operators import OperatorId
from sqlgrow.scheduler import (
    EvolutionState,
    fresh_state,
    record_acceptance,
    scarcity_weight,
    select_top_k,
    utility,
)


def test_fresh_state_weights_symmetric():
    state = fresh_state(epsilon=0.01)
    weights = [scarcity_weight(state, op) for op in OperatorId]
    # direct substitution: (1/6) / (0/(0+0.01) + 0.01) = 16.6667
    assert all(abs(w - weights[0]) < 1e-12 for w in weights)
    assert weights[0] == pytest.approx((1 / 6) / 0.01, abs=1e-4)


def test_skewed_counts_weights():
    state = fresh_state(epsilon=0.01)
    for _ in range(10):
        state = record_acceptance(state, OperatorId.FUNC)
    # P_accum(FUNC) = 10 / 10.01; W = (1/6) / (P_accum + 0.01)
    expected_func = (1 / 6) / (10 / 10.01 + 0.01)
    assert scarcity_weight(state, OperatorId.FUNC) == pytest.approx(expected_func, abs=1e-4)
    assert scarcity_weight(state, OperatorId.FUNC) == pytest.approx(0.16518, abs=1e-4)
    for op in list(OperatorId)[1:]:
        assert scarcity_weight(state, op) == pytest.approx(16.6667, abs=1e-4)


def test_counts_proportional_to_target_equalize_weights():
    state = fresh_state(epsilon=0.01)
    for op in OperatorId:
        for _ in range(5):
            state = record_acceptance(state, op)
    weights = {op: scarcity_weight(state, op) for op in OperatorId}
    values = list(weights.values())
    assert all(abs(v - values[0]) < 1e-12 for v in values)


def test_utility_product_and_domain():
    assert utility(0.8, 16.667) == pytest.approx(13.333, abs=1e-3)
    assert utility(0.0, 123.0) == 0.0
    assert utility(1.0, 1.0) == 1.0
    with pytest.raises(DomainError):
        utility(1.2, 1.0)
    with pytest.raises(DomainError):
        utility(-0.1, 1.0)


def test_select_top_k_tiebreak_by_enum_order():
    utilities = {OperatorId.FUNC: 2.0, OperatorId.JOIN: 5.0, OperatorId.SET: 5.0,
                 OperatorId.OP: 1.0, OperatorId.LOGIC: 1.0, OperatorId.NEST: 1.0}
    assert select_top_k(utilities, 2) == [OperatorId.JOIN, OperatorId.SET]


def test_select_top_k_all_positive_sorted():
    utilities = {op: float(len(OperatorId) - op.value) for op in OperatorId}
    assert select_top_k(utilities, 6) == list(OperatorId)


def test_select_top_k_excludes_zero_even_if_short():
    utilities = {op: 0.0 for op in OperatorId}
    assert select_top_k(utilities, 3) == []
    utilities[OperatorId.NEST] = 0.5
    assert select_top_k(utilities, 3) == [OperatorId.NEST]


def test_record_acceptance_counters():
    state = fresh_state()
    state = record_acceptance(state, OperatorId.FUNC)
    assert state.counts[OperatorId.FUNC] == 1
    assert sum(state.counts.values()) == 1
    for _ in range(99):
        state = record_acceptance(state, OperatorId.SET)
    assert state.counts[OperatorId.SET] == 99
    assert sum(state.counts.values()) == 100


def test_state_validation():
    with pytest.raises(DomainError):
        EvolutionState(counts={op: -1 for op in OperatorId},
                       p_target={op: 1 / 6 for op in OperatorId}, epsilon=0.01)
    with pytest.raises(DomainError):
        EvolutionState(counts={op: 0 for op in OperatorId},
                       p_target={op: 0.5 for op in OperatorId}, epsilon=0.01)
    with pytest.raises(DomainError):
        EvolutionState(counts={op: 0 for op in OperatorId},
                       p_target={op: 1 / 6 for op in OperatorId}, epsilon=0)


@given(st.integers(min_value=0, max_value=200))
def test_weight_strictly_decreases_in_count(extra):
    state = fresh_state()
    for _ in range(extra):
        state = record_acceptance(state, OperatorId.LOGIC)
    before = scarcity_weight(state, OperatorId.LOGIC)
    after = scarcity_weight(record_acceptance(state, OperatorId.LOGIC),
                            OperatorId.LOGIC)
    assert after < before


def simulate(steps, feasibility, epsilon=0.01):
    state = fresh_state(epsilon=epsilon)
    for _ in range(steps):
        utilities = {
            op: utility(feasibility[op], scarcity_weight(state, op))
            for op in OperatorId
        }
        chosen = select_top_k(utilities, 1)
        state = record_acceptance(state, chosen[0])
    return state


def test_balance_simulation_converges_to_uniform():
    state = simulate(600, {op: 1.0 for op in OperatorId})
    for op in OperatorId:
        share = state.counts[op] / 600
        assert 0.1497 <= share <= 0.1836


def test_greedy_bias_without_weighting_collapses():
    # biased feasibility and no scarcity weighting: one operator dominates
    feasibility = {op: 0.5 for op in OperatorId}
    feasibility[OperatorId.LOGIC] = 1.0
    counts = {op: 0 for op in OperatorId}
    for _ in range(600):
        utilities = {op: utility(feasibility[op], 1.0) for op in OperatorId}
        chosen = select_top_k(utilities, 1)
        counts[chosen[0]] += 1
    assert counts[OperatorId.LOGIC] == 600
