"""Seeded inputs for the three workloads: tables and SQL texts.

Everything here is a pure function of the seed.  The program under
test only ever sees the generated tables and the SQL texts; the
sqlite-dialect twin of each text feeds the independent oracle
(:mod:`perfbench.oracle`).

Two known defects of the program shape what ``tpch_warm`` and
``service_proc`` measure, and are kept visible on purpose:

* ``repro.sql.translate`` names GroupBy outputs from a process-global
  counter, so translating the same text twice gives unequal
  expressions.  The client translates on every request and never
  caches an expression, so ``q13_distribution`` and
  ``supplier_volume`` (both aggregate) never hit the plan cache and
  each adds one dead entry per request.  Measured in 20 s traced runs
  at seed 3: on ``tpch_warm`` those two scored 0 hits in 143 requests
  each and the other three 143 in 143, so ``plan_cache.hit_ratio`` is
  0.6, ``plan_cache.entries`` reached the 256-entry cap and the LRU
  evicted 36 entries; on ``service_proc`` they scored 0 in 281 and
  0 in 280 while the others hit 279 times in 281.
* Redefining a view in a session raises a bare ``ValueError`` from
  ``SqlCatalog.add_view``, so the two TPC-H-lite views are registered
  once, at setup, and each request sends only the final SELECT.
"""

from __future__ import annotations

import hashlib
import random

from repro.expr.evaluate import Database
from repro.relalg import Relation
from repro.relalg.nulls import NULL
from repro.sql import SqlCatalog, parse_statements
from repro.workloads.tpch_lite import (
    ALL_QUERIES,
    CATALOG_TABLES,
    tpch_lite_catalog,
    tpch_lite_database,
)

# -- TPC-H-lite -----------------------------------------------------------

#: sqlite dialect of the five TPC-H-lite queries, in ``ALL_QUERIES``
#: order: ``n = count(x)`` becomes ``count(x) AS n``; the correlated
#: COUNT is already a scalar subquery both dialects accept.
TPCH_SQLITE = {
    "q13_distribution": """
        select n, count(*) as custdist
        from (select c.c_key as ckey, count(o.o_key) as n
              from customer c left outer join orders o
                on c.c_key = o.o_custkey
              group by c.c_key) as cust_orders
        group by n""",
    "supplier_volume": """
        select s.s_name, supp_volume.vol
        from supplier s left outer join
             (select l_suppkey as skey, count(*) as vol
              from lineitem group by l_suppkey) as supp_volume
          on s.s_key = supp_volume.skey and s.s_nation < 2 * supp_volume.vol""",
    "big_customers_nested": """
        select c_name from customer
        where c_nation < (select count(*) from orders
                          where orders.o_custkey = customer.c_key)""",
    "nation_flow": """
        select s.s_name, c.c_name
        from ((customer c join orders o on c.c_key = o.o_custkey)
              join lineitem l on o.o_key = l.l_orderkey)
             join supplier s on l.l_suppkey = s.s_key
        where c.c_segment = 'BUILDING' and s.s_nation = 0""",
    "segment_lines_complex": """
        select c.c_name, o.o_total, l.l_qty
        from (customer c left outer join orders o on c.c_key = o.o_custkey)
             left outer join lineitem l
               on o.o_key = l.l_orderkey and c.c_nation < l.l_qty""",
}


class Requests:
    """A workload's inputs: the request texts and how to build the data.

    ``build`` regenerates the database and SQL catalog from the seed
    (the part of set-up the program sees).  ``texts`` are the SQL the
    client sends (one SELECT each), keyed by a request name; ``sqlite``
    holds the oracle's text for each name; ``schema`` maps each table
    to its columns for loading sqlite.
    """

    def __init__(self, build, texts, sqlite, schema) -> None:
        self.build = build
        self.texts: dict[str, str] = texts
        self.sqlite: dict[str, str] = sqlite
        self.schema: dict[str, tuple[str, ...]] = schema

    def tables_digest(self, db) -> str:
        digest = hashlib.sha256()
        for table in sorted(self.schema):
            for row in table_rows(db, table, self.schema[table]):
                digest.update(repr(row).encode())
        return digest.hexdigest()[:16]

    def stamp(self, db) -> dict:
        """Row counts and digests that identify exactly these inputs."""
        text_digest = hashlib.sha256()
        for name, text in self.texts.items():
            text_digest.update(f"{name}\0{text}\0".encode())
        return {
            "rows": {t: len(db[t]) for t in sorted(self.schema)},
            "distinct_texts": len(set(self.texts.values())),
            "texts_sha256": text_digest.hexdigest()[:16],
            "tables_sha256": self.tables_digest(db),
        }


def table_rows(db, table: str, columns) -> list[tuple]:
    """A table's rows as value tuples, NULL mapped to ``None``."""
    return [
        tuple(None if row[c] is NULL else row[c] for c in columns)
        for row in db[table].rows
    ]


def tpch_requests(seed: int, customers: int) -> Requests:
    """TPC-H-lite at ``customers`` (100 suppliers), views pre-registered."""
    texts = {}
    for name, script in ALL_QUERIES.items():
        *_, query = [s for s in script.split(";") if s.strip()]
        texts[name] = query.strip()

    def build():
        db = tpch_lite_database(
            random.Random(seed), customers=customers, suppliers=100
        )
        catalog = tpch_lite_catalog()
        for script in ALL_QUERIES.values():
            for statement in parse_statements(script)[:-1]:
                catalog.add_view(statement)
        return db, catalog

    return Requests(build, texts, dict(TPCH_SQLITE), dict(CATALOG_TABLES))


# -- the paper's hard class: outer joins with complex predicates ----------

#: Base tables of the reorder workload: key, two attributes.
REORDER_TABLES = {f"t{i}": ("k", "a", "b") for i in range(8)}

_JOINS = ("join", "left outer join", "right outer join", "full outer join")
_OPS = ("=", "<", "<=", ">", ">=")


def reorder_database(rng: random.Random) -> Database:
    """Eight small tables (8-30 rows); about one value in ten is NULL."""
    db = Database()
    for name, columns in REORDER_TABLES.items():
        rows = [
            (
                k,
                NULL if rng.random() < 0.1 else rng.randrange(6),
                NULL if rng.random() < 0.1 else rng.randrange(10),
            )
            for k in range(rng.randint(8, 30))
        ]
        db.add(name, Relation.base(name, list(columns), rows))
    return db


#: Seed of the structure stream: tree shapes, join kinds and which
#: relations each atom references.  It is the same on every run, so
#: every seed plans the same population of shapes and a run's planning
#: effort does not swing with ``--seed``; the seed picks the tables,
#: columns, operators, select lists and data.
SHAPE_SEED = 1996

#: Relations per statement.  Five-relation statements took 358 ms at
#: p50 and 3 s at p90 (878 ms mean) on a 2-CPU Xeon, so a handful per
#: run would set the run's p90 and throughput by how many it drew.
RELATIONS = 4

#: Share of statements with an aggregated derived table.
AGG_SHARE = 0.4


class ReorderGenerator:
    """Distinct statements from the paper's hard class.

    Each statement joins :data:`RELATIONS` relations in a random bushy
    tree whose joins mix inner, left, right and full outer.  Every ON
    predicate links the two sides with an equality; most also carry a
    complex atom over three relations (see :meth:`_on`).  With
    probability :data:`AGG_SHARE` one leaf is an aggregated derived
    table whose ON predicate compares against its ``count(*)`` column.

    Structural choices draw from ``shape`` and surface choices from
    ``rng``, so planning effort follows the shape stream alone.  Both
    dialects accept the text as generated (``count(*) as cnt``,
    ``(select ...) as v``), so ``statement`` returns one string.
    """

    def __init__(self, rng: random.Random, shape: random.Random) -> None:
        self.rng = rng
        self.shape = shape

    def statement(self) -> str:
        rng, shape, n = self.rng, self.shape, RELATIONS
        tables = rng.sample(sorted(REORDER_TABLES), n)
        leaves: list[tuple[str, list[str], list[str]]] = []
        agg_at = shape.randrange(n) if shape.random() < AGG_SHARE else None
        for i, table in enumerate(tables):
            if i == agg_at:
                key = rng.choice(("a", "b"))
                sql = (
                    f"(select {table}.{key} as g, count(*) as cnt "
                    f"from {table} group by {table}.{key}) as v"
                )
                leaves.append((sql, ["v.g"], ["v.g", "v.cnt"]))
            else:
                cols = [f"{table}.{c}" for c in REORDER_TABLES[table]]
                leaves.append((table, cols, cols))
        self._cnt_pending = agg_at is not None
        return self._select(self._tree(leaves))

    def _tree(self, leaves):
        """Join random neighbours until one tree is left (bushy shapes)."""
        shape = self.shape
        items = [(sql, [cols], [refs]) for sql, cols, refs in leaves]
        while len(items) > 1:
            i = shape.randrange(len(items) - 1)
            (lsql, lcols, lrefs), (rsql, rcols, rrefs) = items[i], items[i + 1]
            on = self._on(lcols, lrefs, rcols, rrefs)
            joined = f"({lsql} {shape.choice(_JOINS)} {rsql} on {on})"
            items[i : i + 2] = [(joined, lcols + rcols, lrefs + rrefs)]
        return items[0]

    def _on(self, lcols, lrefs, rcols, rrefs) -> str:
        """Equality across the join plus, mostly, one complex atom.

        The complex atom ``x + y op z`` takes ``x`` and ``y`` from two
        relations of one side and ``z`` from the other side: it
        references three relations and cannot be split into conjuncts.
        """
        rng, shape = self.rng, self.shape
        li, ri = shape.randrange(len(lcols)), shape.randrange(len(rcols))
        atoms = [f"{rng.choice(lcols[li])} = {rng.choice(rcols[ri])}"]
        sides = [
            (refs, idx, other)
            for refs, idx, other in ((lrefs, li, rrefs[ri]), (rrefs, ri, lrefs[li]))
            if len(refs) > 1
        ]
        if sides and shape.random() < 0.8:
            refs, idx, other = shape.choice(sides)
            j = shape.choice([j for j in range(len(refs)) if j != idx])
            atoms.append(
                f"{self._col(refs[idx])} + {self._col(refs[j])} "
                f"{rng.choice(_OPS)} {self._col(other)}"
            )
        # the join that brings in the aggregate compares its count
        for mine, theirs, idx in ((lrefs, rrefs, ri), (rrefs, lrefs, li)):
            if self._cnt_pending and any("v.cnt" in g for g in mine):
                self._cnt_pending = False
                atoms.append(f"v.cnt {rng.choice(_OPS)} {rng.choice(theirs[idx])}")
        return " and ".join(atoms)

    def _col(self, group: list[str]) -> str:
        """A column of one relation; ``v.g`` or ``v.cnt`` is structure.

        An atom on the aggregated ``cnt`` column must be deferred above
        the aggregation, which changes the plan space (4753 plans
        instead of 385 for one shape), so that choice follows ``shape``.
        """
        return (self.shape if "v.cnt" in group else self.rng).choice(group)

    def _select(self, tree) -> str:
        sql, _, refs = tree
        flat = [c for group in refs for c in group]
        picked = self.rng.sample(flat, min(3, len(flat)))
        return f"select {', '.join(picked)} from {sql}"


#: Seed of ``r0``, the statement set-up answers.  It is the same text
#: on every ``--seed``, so ``setup_s`` times planning one statement
#: rather than whichever the seed drew first.
FIRST_SEED = 7


def reorder_requests(seed: int, count: int) -> Requests:
    """``count`` distinct statements over freshly generated tables.

    ``r0`` is the fixed set-up statement; the rest follow the seed.
    """
    rng = random.Random(seed)
    reorder_database(rng)  # the tables come first in the seed's stream
    first = ReorderGenerator(random.Random(FIRST_SEED), random.Random(FIRST_SEED))
    texts = {"r0": first.statement()}
    seen = set(texts.values())
    generator = ReorderGenerator(rng, random.Random(SHAPE_SEED))
    while len(texts) < count:
        text = generator.statement()
        if text not in seen:
            seen.add(text)
            texts[f"r{len(texts)}"] = text

    def build():
        db = reorder_database(random.Random(seed))
        return db, SqlCatalog(dict(REORDER_TABLES))

    return Requests(build, texts, dict(texts), dict(REORDER_TABLES))
