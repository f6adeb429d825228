"""Translation is a pure function of the statement and the catalog.

Generated names (GroupBy labels, unnamed aggregate outputs) are
numbered per ``translate`` call, so a repeated statement translates to
an equal expression and a session's plan cache recognizes it.
"""

import random

import pytest

from repro.errors import UserInputError
from repro.runtime import QuerySession
from repro.sql import SqlCatalog, parse_statements, translate
from repro.workloads.tpch_lite import (
    ALL_QUERIES,
    tpch_lite_catalog,
    tpch_lite_database,
)

#: Section 1.1 Query 1 and Example 1.1, as in tests/sql/test_paper_queries.py
PAPER_CATALOG = {
    "r1": ("r1_b", "r1_c"),
    "r2": ("r2_b", "r2_d"),
    "r3": ("r3_a", "r3_b"),
    "r4": ("r4_b",),
    "agg94": ("agg94_supkey", "agg94_partkey", "agg94_qty"),
    "detail95": ("d95_supkey", "d95_partkey", "d95_date", "d95_qty"),
    "supdetail": ("sup_supkey", "sup_rating", "sup_info"),
}

PAPER_QUERIES = {
    "query1": """
        create view v1 as
          select r1.r1_c as a, r2.r2_d as b, c = count(*)
          from r1, r2
          where r1.r1_b = r2.r2_b
          group by r1.r1_c, r2.r2_d;
        select r3.r3_a, r4.r4_b, v1.b
        from (v1 left outer join r3 on r3.r3_b > v1.c), r4
        where r4.r4_b = v1.b;
        """,
    "example11": """
        create view v2 as
          select a.agg94_supkey as supkey, a.agg94_qty as qty,
                 a.agg94_partkey as partkey
          from agg94 a, supdetail b
          where a.agg94_supkey = b.sup_supkey and b.sup_rating = 'BANKRUPT';
        create view v3 as
          select d95_supkey as supkey, d95_partkey as partkey,
                 qty95 = count(*)
          from detail95
          group by d95_supkey, d95_partkey;
        select v2.supkey, v2.partkey, v2.qty, v3.qty95
        from v2 left outer join v3
          on v2.supkey = v3.supkey and v2.partkey = v3.partkey
             and v2.qty < 2 * v3.qty95;
        """,
    "unnamed_aggregate": """
        select r1.r1_c, count(*) from r1 group by r1.r1_c;
        """,
}


def _load(script, catalog):
    """Register the script's views; return its final statement."""
    *views, final = parse_statements(script)
    for view in views:
        catalog.add_view(view)
    return final


@pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
def test_paper_queries_translate_identically(name):
    catalog = SqlCatalog(PAPER_CATALOG)
    statement = _load(PAPER_QUERIES[name], catalog)
    first = translate(statement, catalog)
    # an unrelated aggregate translation in between must not shift names
    other = SqlCatalog(PAPER_CATALOG)
    translate(_load(PAPER_QUERIES["unnamed_aggregate"], other), other)
    second = translate(statement, catalog)
    assert first.expr == second.expr
    assert first.columns == second.columns


@pytest.mark.parametrize("name", sorted(ALL_QUERIES))
def test_tpch_lite_repeats_hit_the_plan_cache(name):
    catalog = tpch_lite_catalog()
    statement = _load(ALL_QUERIES[name], catalog)
    db = tpch_lite_database(random.Random(3), customers=40, suppliers=8)
    session = QuerySession(db, catalog=catalog)
    first = translate(statement, catalog)
    second = translate(statement, catalog)
    assert first.expr == second.expr
    cold = session.run(first.expr)
    warm = session.run(second.expr)
    assert not cold.plan_cache["hit"]
    assert warm.plan_cache["hit"]
    assert warm.relation.same_content(cold.relation)


class TestViewRedefinition:
    VIEW = "create view busy as select r1_c, count(*) as n from r1 group by r1_c;"

    def test_identical_redefinition_is_a_no_op(self):
        catalog = SqlCatalog(PAPER_CATALOG)
        (view,) = parse_statements(self.VIEW)
        catalog.add_view(view)
        (again,) = parse_statements(self.VIEW)
        catalog.add_view(again)
        assert catalog.view_query("busy") == view.query

    def test_conflicting_redefinition_is_a_user_error(self):
        catalog = SqlCatalog(PAPER_CATALOG)
        (view,) = parse_statements(self.VIEW)
        catalog.add_view(view)
        (other,) = parse_statements("create view busy as select r1_b from r1;")
        with pytest.raises(UserInputError, match="different definition"):
            catalog.add_view(other)
        assert catalog.view_query("busy") == view.query

    def test_view_named_like_a_table_is_a_user_error(self):
        catalog = SqlCatalog(PAPER_CATALOG)
        (view,) = parse_statements("create view r1 as select r2_b from r2;")
        with pytest.raises(UserInputError, match="a table of that name"):
            catalog.add_view(view)
