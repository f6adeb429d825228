"""The vector engine's answer: a Relation that stays columnar until read.

``ColumnarResult`` holds the compacted result columns, answers
``len()`` from them, builds rows once on first read (through
``ColumnarRelation.to_relation``), and pickles as columns -- so an
answer crossing a process pipe never becomes per-row objects.
"""

import pickle
import pickletools
import sys
import threading

import pytest

from repro.exec.vector import execute as execute_vector
from repro.expr import Database, evaluate
from repro.expr.nodes import BaseRel, Join, JoinKind, Sort
from repro.expr.predicates import eq
from repro.relalg import Relation
from repro.relalg.columnar import ColumnarRelation, ColumnarResult
from repro.relalg.nulls import NULL


def small_db() -> Database:
    db = Database()
    db.add(
        "r",
        Relation.base(
            "r", ["r_a", "r_b"], [(1, 10), (2, NULL), (3, 30), (NULL, 40)]
        ),
    )
    db.add("s", Relation.base("s", ["s_a"], [(1,), (2,), (2,), (5,)]))
    return db


def left_join() -> Sort:
    join = Join(
        JoinKind.LEFT,
        BaseRel("r", ("r_a", "r_b")),
        BaseRel("s", ("s_a",)),
        eq("r_a", "s_a"),
    )
    return Sort(join, (("r_b", True), ("r_a", False)))


def payload_names(payload: bytes) -> set[str]:
    """Every string argument of the pickle's opcodes (module and
    class names of GLOBAL/STACK_GLOBAL included)."""
    return {
        arg
        for _, arg, _ in pickletools.genops(payload)
        if isinstance(arg, str)
    }


@pytest.fixture()
def result():
    out = execute_vector(left_join(), small_db())
    assert type(out) is ColumnarResult
    return out


@pytest.fixture()
def transposes(monkeypatch):
    """Count calls of the one transpose back to rows."""
    calls = []
    original = ColumnarRelation.to_relation

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(ColumnarRelation, "to_relation", counting)
    return calls


class TestRows:
    def test_rows_equal_transpose_in_order(self, result):
        assert result.rows == result.columnar.to_relation().rows
        assert result.same_content(evaluate(left_join(), small_db()))

    def test_order_matches_reference(self, result):
        want = evaluate(left_join(), small_db())
        key = list(want.real) + list(want.virtual)
        assert [r.values_tuple(key) for r in result.rows] == [
            r.values_tuple(key) for r in want.rows
        ]

    def test_len_does_not_build_rows(self, result, transposes):
        assert len(result) == 5
        assert transposes == []
        assert repr(result).endswith("rows=5)")
        assert transposes == []

    def test_rows_built_once(self, result, transposes):
        first = result.rows
        assert result.rows is first
        assert list(result) == list(first)
        assert len(transposes) == 1

    def test_holds_compacted_columns(self):
        base = ColumnarRelation(["a"], [], {"a": [1, 2, 3, 4]}, 4)
        held = ColumnarResult(base.view([3, 1])).columnar
        assert held.sel is None
        assert held.gather("a") == [4, 2]

    def test_empty_result(self):
        empty = ColumnarResult(ColumnarRelation(["a"], [], {"a": []}, 0))
        assert len(empty) == 0
        assert empty.rows == ()

    def test_from_relation_returns_held_columns(self, result):
        assert ColumnarRelation.from_relation(result) is result.columnar
        result.rows
        assert ColumnarRelation.from_relation(result) is result.columnar

    def test_concurrent_first_reads_agree(self):
        n = 20000  # big enough that the first reads overlap
        out = ColumnarResult(
            ColumnarRelation(
                ["a", "b"],
                ["#t"],
                {
                    "a": list(range(n)),
                    "b": [NULL if i % 7 else i for i in range(n)],
                    "#t": [("t", i) for i in range(n)],
                },
                n,
            )
        )
        barrier = threading.Barrier(8)
        seen = [None] * 8

        def read(i):
            barrier.wait()
            seen[i] = out.rows

        threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(len(rows) == n for rows in seen)
        assert all(rows == seen[0] for rows in seen)
        assert out.rows == seen[0]
        assert out.rows == out.columnar.to_relation().rows


class TestPickle:
    @pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
    def test_round_trip(self, result, read_first):
        if read_first:
            result.rows
        clone = pickle.loads(pickle.dumps(result))
        assert type(clone) is ColumnarResult
        assert list(clone.real) == list(result.real)
        assert list(clone.virtual) == list(result.virtual)
        assert len(clone) == len(result)
        assert clone.rows == result.rows
        assert any(r["r_b"] is NULL for r in clone.rows)

    @pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
    def test_payload_never_references_row(self, result, read_first):
        # the deterministic guard on the pipe payload: an answer ships
        # as column lists, never as one Row reduce call per row
        if read_first:
            result.rows
        names = payload_names(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
        assert "Row" not in names
        assert not any("repro.relalg.row" in n for n in names)
        assert "ColumnarResult" in names

    def test_row_store_payload_does_reference_row(self, result):
        # the guard's control: the transposed answer pickles per row
        names = payload_names(pickle.dumps(result.columnar.to_relation()))
        assert "Row" in names
