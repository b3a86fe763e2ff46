import pytest

from fixtures import GOLDEN_CORPUS, STAGE_SQL_0, STAGE_SQL_2
from sqlgrow.errors import DomainError
from sqlgrow.features import (
    FEATURE_NAMES,
    FeatureMeans,
    FeatureVector,
    aggregate_features,
    extract_features,
    tokenize_sql,
)
from sqlgrow.parser import parse_sql


def fv(**kwargs):
    base = dict(tables=0, joins=0, functions=0, tokens=2, aggregates=0,
                subqueries=0, windows=0, ctes=0, nesting=1)
    base.update(kwargs)
    return FeatureVector(**base)


def test_stage0_features():
    # hand count: one table, ten tokens, flat query
    assert extract_features(parse_sql(STAGE_SQL_0)) == fv(tables=1, tokens=10)


def test_stage2_features():
    got = extract_features(parse_sql(STAGE_SQL_2))
    assert (got.tables, got.joins, got.aggregates, got.nesting) == (6, 5, 1, 1)
    assert got.functions == 1


def test_cte_counts_as_cte_and_subquery():
    got = extract_features(parse_sql("WITH w AS (SELECT 1) SELECT * FROM w"))
    assert got.ctes == 1
    assert got.subqueries == 1
    assert got.nesting == 2


def test_window_counted_separately_from_aggregates():
    got = extract_features(parse_sql(
        "SELECT SUM(x) OVER (PARTITION BY g) FROM t"))
    assert got.windows == 1
    assert got.functions == 1  # the windowed SUM is still a function node


def test_aggregates_never_exceed_functions():
    for _, sql in GOLDEN_CORPUS:
        got = extract_features(parse_sql(sql))
        assert got.aggregates <= got.functions


def test_nesting_depth_of_scalar_subquery():
    got = extract_features(parse_sql(
        "SELECT x FROM t WHERE x > (SELECT AVG(x) FROM t)"))
    assert got.nesting == 2
    assert got.subqueries == 1


def test_feature_vector_rejects_invalid_values():
    with pytest.raises(DomainError):
        fv(nesting=0)
    with pytest.raises(DomainError):
        fv(aggregates=1, functions=0)


def test_feature_names_are_the_record_fields():
    for cls in (FeatureVector, FeatureMeans):
        assert cls._fields == FEATURE_NAMES


@pytest.mark.parametrize("name", FEATURE_NAMES)
def test_negative_feature_is_named_in_the_error(name):
    with pytest.raises(DomainError, match=f"^feature {name} must be >= 0$"):
        fv(**{name: -1})


def test_aggregate_features_mean():
    means = aggregate_features([fv(tables=1), fv(tables=3)])
    assert means.tables == 2.0
    assert means.tokens == 2.0


def test_aggregate_features_single_vector_identity():
    v = fv(tables=4, joins=3, tokens=17)
    means = aggregate_features([v])
    assert means.as_dict() == {k: float(x) for k, x in v.as_dict().items()}


def test_aggregate_features_empty_is_domain_error():
    with pytest.raises(DomainError):
        aggregate_features([])


def test_aggregate_features_two_decimals():
    means = aggregate_features([fv(tokens=10), fv(tokens=10), fv(tokens=11)])
    assert means.tokens == 10.33


def test_tokenizer_deterministic():
    sql = GOLDEN_CORPUS[3][1]
    assert tokenize_sql(sql) == tokenize_sql(sql)
