"""Vector answers cross the process pipe as columns, with equal bags.

A process-isolated vector service ships each answer as a
``ColumnarResult`` (its pickle carries column lists, not rows), so the
parent holds the same answer the thread path returns, with rows built
only when the caller reads them.  Checked on TPC-H-lite at 1000
customers, with and without shared-memory pages.
"""

import random
from collections import Counter

import pytest

from repro.optimizer import Statistics
from repro.relalg.columnar import ColumnarResult
from repro.relalg.pages import pages_supported
from repro.runtime.service import QueryService
from repro.sql import parse_statements, translate
from repro.workloads.tpch_lite import (
    ALL_QUERIES,
    tpch_lite_catalog,
    tpch_lite_database,
)


@pytest.fixture(scope="module")
def tpch():
    db = tpch_lite_database(random.Random(4), customers=1000, suppliers=100)
    catalog = tpch_lite_catalog()
    queries = {}
    for name, script in sorted(ALL_QUERIES.items()):
        statements = parse_statements(script)
        for statement in statements[:-1]:
            catalog.add_view(statement)
        translation = translate(statements[-1], catalog)
        queries[name] = (translation.expr, translation.order_by)
    return db, catalog, Statistics.from_database(db), queries


def answers(tpch, **service_kwargs) -> dict:
    db, catalog, stats, queries = tpch
    service = QueryService(
        db, catalog=catalog, stats=stats, workers=2, engine="vector",
        **service_kwargs,
    )
    try:
        tickets = {
            name: service.submit(expr, order)
            for name, (expr, order) in queries.items()
        }
        return {name: t.result(timeout=120) for name, t in tickets.items()}
    finally:
        service.close()


def bag(relation) -> Counter:
    attrs = relation.real.attrs
    return Counter(row.values_tuple(attrs) for row in relation.rows)


@pytest.fixture(scope="module")
def thread_answers(tpch):
    return answers(tpch, isolation="thread")


@pytest.mark.parametrize(
    "shm",
    [
        pytest.param(
            True,
            marks=pytest.mark.skipif(
                not pages_supported(), reason="shared memory unavailable"
            ),
        ),
        False,
    ],
    ids=["shm", "pickle"],
)
def test_process_answers_equal_thread_answers(tpch, thread_answers, shm):
    got = answers(tpch, isolation="process", shm=shm)
    assert sorted(got) == sorted(ALL_QUERIES)
    assert any(len(r.relation) > 1000 for r in got.values())
    for name, result in got.items():
        want = thread_answers[name]
        assert result.engine == want.engine == "vector", name
        relation = result.relation
        # arrived as columns: rows are built only by the reads below
        assert type(relation) is ColumnarResult, name
        assert relation._rows is None, name
        assert len(relation) == len(want.relation), name
        assert list(relation.real) == list(want.relation.real), name
        assert bag(relation) == bag(want.relation), name
