"""The independent oracle: expected answers from stdlib ``sqlite3``.

sqlite shares no code with ``repro.relalg`` (its own three-valued
logic, NULL padding and aggregates), so a substrate bug in the
program cannot hide in the oracle.  RIGHT and FULL OUTER JOIN need
sqlite 3.39 or later.

Answers compare as bags: a ``Counter`` of row tuples, with the
program's NULL mapped to ``None`` (sqlite's NULL).
"""

from __future__ import annotations

import sqlite3
from collections import Counter
from operator import itemgetter

from repro.relalg.nulls import NULL

from perfbench.inputs import Requests, table_rows

MIN_SQLITE = (3, 39, 0)


def expected_bags(requests: Requests, db) -> dict[str, Counter]:
    """Every request's answer bag, computed by sqlite over ``db``."""
    if sqlite3.sqlite_version_info < MIN_SQLITE:
        raise RuntimeError(
            f"sqlite {sqlite3.sqlite_version} lacks RIGHT/FULL OUTER JOIN; "
            "the oracle needs 3.39 or later"
        )
    conn = sqlite3.connect(":memory:")
    try:
        for table, columns in requests.schema.items():
            conn.execute(f"create table {table} ({', '.join(columns)})")
            marks = ", ".join("?" for _ in columns)
            conn.executemany(
                f"insert into {table} values ({marks})",
                table_rows(db, table, columns),
            )
        return {
            name: Counter(conn.execute(text).fetchall())
            for name, text in requests.sqlite.items()
        }
    finally:
        conn.close()


def answer_bag(relation, columns) -> Counter:
    """The program's answer as a bag of row tuples in SELECT-list order.

    ``columns`` is the translation's ``(exposed, internal)`` list.
    """
    get = itemgetter(*(attr for _, attr in columns))
    values = map(get, relation.rows)
    bag = Counter(values if len(columns) > 1 else ((v,) for v in values))
    for key in [k for k in bag if any(v is NULL for v in k)]:
        bag[tuple(None if v is NULL else v for v in key)] += bag.pop(key)
    return bag
