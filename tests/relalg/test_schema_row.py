"""Tests for Schema and Row primitives, and row-validation modes."""

import pytest

from repro.relalg.nulls import NULL
from repro.relalg.relation import Relation, set_full_row_validation
from repro.relalg.row import Row
from repro.relalg.schema import Schema, SchemaError


class TestSchema:
    def test_order_preserved(self):
        s = Schema(["b", "a", "c"])
        assert s.attrs == ("b", "a", "c")
        assert list(s) == ["b", "a", "c"]

    def test_duplicate_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Schema(["a", "a"])

    def test_non_string_rejected(self):
        with pytest.raises(SchemaError):
            Schema([1])  # type: ignore[list-item]

    def test_membership_and_position(self):
        s = Schema(["x", "y"])
        assert "x" in s
        assert "z" not in s
        assert s.position("y") == 1
        with pytest.raises(SchemaError):
            s.position("z")

    def test_equality_and_hash(self):
        assert Schema(["a", "b"]) == Schema(["a", "b"])
        assert Schema(["a", "b"]) != Schema(["b", "a"])
        assert hash(Schema(["a"])) == hash(Schema(["a"]))

    def test_union_keeps_left_order(self):
        s = Schema(["a", "b"]).union(Schema(["b", "c"]))
        assert s.attrs == ("a", "b", "c")

    def test_concat_rejects_overlap(self):
        with pytest.raises(SchemaError, match="overlap"):
            Schema(["a"]).concat(Schema(["a"]))
        assert Schema(["a"]).concat(Schema(["b"])).attrs == ("a", "b")

    def test_set_operations(self):
        s = Schema(["a", "b", "c"])
        assert s.intersection(["b", "c", "d"]).attrs == ("b", "c")
        assert s.difference(["b"]).attrs == ("a", "c")
        assert Schema(["a"]).is_subset(s)
        assert not s.is_subset(["a"])
        assert s.is_disjoint(["x", "y"])
        assert not s.is_disjoint(["c"])

    def test_restrict(self):
        s = Schema(["a", "b", "c"])
        assert s.restrict(["c", "a"]).attrs == ("a", "c")
        with pytest.raises(SchemaError):
            s.restrict(["z"])


class TestRow:
    def test_mapping_interface(self):
        r = Row({"a": 1, "b": 2})
        assert r["a"] == 1
        assert len(r) == 2
        assert set(r) == {"a", "b"}

    def test_immutability_by_construction(self):
        data = {"a": 1}
        r = Row(data)
        data["a"] = 99
        assert r["a"] == 1

    def test_hash_and_equality(self):
        assert Row({"a": 1}) == Row({"a": 1})
        assert hash(Row({"a": 1, "b": NULL})) == hash(Row({"b": NULL, "a": 1}))
        assert Row({"a": 1}) != Row({"a": 2})

    def test_null_values_hash(self):
        assert len({Row({"a": NULL}), Row({"a": NULL})}) == 1

    def test_project(self):
        r = Row({"a": 1, "b": 2, "c": 3})
        assert r.project(["c", "a"]) == Row({"a": 1, "c": 3})

    def test_merge_disjoint(self):
        merged = Row({"a": 1}).merge(Row({"b": 2}))
        assert merged == Row({"a": 1, "b": 2})

    def test_merge_overlap_raises(self):
        with pytest.raises(ValueError, match="overlap"):
            Row({"a": 1}).merge(Row({"a": 2}))

    def test_padded(self):
        r = Row({"a": 1}).padded(["a", "b", "c"])
        assert r == Row({"a": 1, "b": NULL, "c": NULL})

    def test_replace(self):
        assert Row({"a": 1}).replace(a=2) == Row({"a": 2})

    def test_values_tuple_order(self):
        r = Row({"a": 1, "b": 2})
        assert r.values_tuple(["b", "a"]) == (2, 1)


class TestRowValidationModes:
    """Relation.__init__ samples the first row by default; full
    validation is the opt-in debug mode (REPRO_VALIDATE_ROWS)."""

    GOOD = Row({"a": 1})
    BAD = Row({"zzz": 2})

    def test_first_row_always_checked(self):
        with pytest.raises(SchemaError, match="do not match schema"):
            Relation(["a"], [], [self.BAD, self.GOOD])

    def test_sampled_mode_trusts_later_rows(self):
        # the perf contract: operators derive rows from validated
        # inputs, so later rows are not re-checked by default
        rel = Relation(["a"], [], [self.GOOD, self.BAD])
        assert len(rel) == 2

    def test_full_mode_catches_later_rows(self):
        previous = set_full_row_validation(True)
        try:
            with pytest.raises(SchemaError, match="do not match schema"):
                Relation(["a"], [], [self.GOOD, self.BAD])
        finally:
            set_full_row_validation(previous)

    def test_toggle_returns_previous_value(self):
        previous = set_full_row_validation(True)
        try:
            assert set_full_row_validation(False) is True
            assert set_full_row_validation(previous) is False
        finally:
            set_full_row_validation(previous)


class TestFrozenDictRow:
    """``Row`` is an immutable ``dict`` subclass: C-speed construction
    and lookup, every mutator disabled, a cached order-independent
    hash, and a pickle that rebuilds from a plain dict."""

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda r: r.__setitem__("a", 2),
            lambda r: r.__delitem__("a"),
            lambda r: r.clear(),
            lambda r: r.pop("a"),
            lambda r: r.popitem(),
            lambda r: r.setdefault("z", 1),
            lambda r: r.update({"a": 2}),
            lambda r: r.__ior__({"a": 2}),
        ],
        ids=[
            "setitem", "delitem", "clear", "pop", "popitem",
            "setdefault", "update", "ior",
        ],
    )
    def test_every_mutator_raises(self, mutate):
        r = Row({"a": 1, "b": NULL})
        with pytest.raises(TypeError, match="immutable"):
            mutate(r)
        assert r == Row({"a": 1, "b": NULL})

    def test_augmented_or_raises(self):
        r = Row({"a": 1})
        with pytest.raises(TypeError):
            r |= {"a": 2}
        assert r["a"] == 1

    def test_no_instance_dict(self):
        r = Row({"a": 1})
        with pytest.raises(AttributeError):
            r.extra = 1

    def test_hash_independent_of_insertion_order(self):
        a = Row([("x", 1), ("y", NULL), ("z", ("t", 3))])
        b = Row([("z", ("t", 3)), ("x", 1), ("y", NULL)])
        assert a == b
        assert hash(a) == hash(b)
        assert hash(a) == hash(frozenset(a.items()))
        assert len({a, b}) == 1

    def test_hash_is_cached(self):
        r = Row({"a": 1})
        assert hash(r) == hash(r)
        assert r._hash == hash(r)

    def test_pickle_round_trip_keeps_null_identity(self):
        import pickle

        r = Row({"a": 1, "b": NULL, "#r": ("r", 0)})
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(r, protocol=protocol))
            assert type(clone) is Row
            assert clone == r
            assert hash(clone) == hash(r)
            assert clone["b"] is NULL

    def test_copies_stay_rows(self):
        import copy

        r = Row({"a": 1, "b": NULL})
        for clone in (copy.copy(r), copy.deepcopy(r)):
            assert type(clone) is Row
            assert clone == r
            assert clone["b"] is NULL

    def test_derivations_unchanged(self):
        r = Row({"a": 1, "b": 2})
        assert type(r.project(["b"])) is Row
        assert list(r.project(["b", "a"])) == ["b", "a"]
        merged = r.merge(Row({"c": 3}))
        assert type(merged) is Row
        assert list(merged.items()) == [("a", 1), ("b", 2), ("c", 3)]
        padded = r.padded(["c", "a"])
        assert list(padded.items()) == [("a", 1), ("b", 2), ("c", NULL)]
        replaced = r.replace(b=5)
        assert type(replaced) is Row
        assert list(replaced.items()) == [("a", 1), ("b", 5)]
        assert r == Row({"a": 1, "b": 2})  # derivations never mutate
        assert r.values_tuple(["b", "a"]) == (2, 1)

    def test_equal_to_plain_dict(self):
        # the one semantic change of the dict-backed row: a Row and a
        # plain dict with the same items compare equal
        assert Row({"a": 1, "b": NULL}) == {"a": 1, "b": NULL}
        assert {"b": NULL, "a": 1} == Row({"a": 1, "b": NULL})
        assert Row({"a": 1}) != {"a": 2}

    def test_repr(self):
        assert repr(Row({"a": 1, "b": NULL})) == "Row(a=1, b=NULL)"
