"""Immutable rows.

A :class:`Row` maps attribute names (real and virtual alike) to
values.  Rows are hashable so extensions can be manipulated as bags
and sets; the NULL singleton compares equal to itself structurally,
which is exactly what the set difference in Definition 2.1 needs.

``Row`` is a frozen ``dict`` subclass: construction
(``Row(zip(attrs, values))``) and lookup (``row[attr]``) are the
builtin dict's C paths, and a row is one object, not a wrapper around
one.  Every mutator raises ``TypeError``.  Because it *is* a dict, a
row compares equal to a plain ``dict`` holding the same items.
"""

from __future__ import annotations

from typing import Any, Iterable, NoReturn

from repro.relalg.nulls import NULL


class Row(dict):
    """An immutable mapping from attribute name to value."""

    __slots__ = ("_hash",)

    def _immutable(self, *args: Any, **kwargs: Any) -> NoReturn:
        raise TypeError("Row is immutable")

    __setitem__ = __delitem__ = _immutable
    clear = pop = popitem = setdefault = update = __ior__ = _immutable

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(frozenset(self.items()))
            return self._hash

    def __reduce__(self):
        # the default dict-subclass pickle refills the row through
        # __setitem__, which is disabled; rebuild from a plain dict
        return (Row, (dict(self),))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.items())
        return f"Row({inner})"

    def project(self, attrs: Iterable[str]) -> "Row":
        """Row restricted to ``attrs`` (all must be present)."""
        return Row({a: self[a] for a in attrs})

    def merge(self, other: "Row") -> "Row":
        """Concatenate two rows with disjoint attributes."""
        merged = dict(self)
        for name, value in other.items():
            if name in merged:
                raise ValueError(f"rows overlap on attribute {name!r}")
            merged[name] = value
        return Row(merged)

    def padded(self, attrs: Iterable[str]) -> "Row":
        """Row extended with NULL for every attribute in ``attrs`` not present."""
        data = dict(self)
        for name in attrs:
            data.setdefault(name, NULL)
        return Row(data)

    def replace(self, **updates: Any) -> "Row":
        data = dict(self)
        data.update(updates)
        return Row(data)

    def values_tuple(self, attrs: Iterable[str]) -> tuple[Any, ...]:
        """Values of ``attrs`` in the given order (hashable grouping key)."""
        return tuple(self[a] for a in attrs)
