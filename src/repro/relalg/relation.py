"""Relations ``<R, V, E>`` per Section 1.2 of the paper.

``R`` is the real-attribute schema, ``V`` the virtual attributes (row
identifiers -- the paper suggests thinking of them as row ids), and
``E`` the extension, a bag of rows.  Virtual attributes give every
base row a durable identity that survives joins and null-padding,
which is what makes the set difference in the generalized-selection
definition (Definition 2.1) meaningful under duplicates.
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.relalg.nulls import NULL, is_null
from repro.relalg.row import Row
from repro.relalg.schema import Schema, SchemaError


def virtual_attr(relation_name: str) -> str:
    """Name of the virtual (row-identifier) attribute of a base relation."""
    return f"#{relation_name}"


# Per-row schema validation rebuilds set(row) for every row of every
# operator output, which profiles as the single largest cost of the
# hash engine.  Operators only ever derive rows from already-validated
# relations, so by default only the first row is checked (a sampled
# smoke test that still catches systematically wrong construction).
# Full validation stays available for debugging: set REPRO_VALIDATE_ROWS=full
# in the environment, or call set_full_row_validation(True) from tests.
_FULL_ROW_VALIDATION = os.environ.get("REPRO_VALIDATE_ROWS", "").lower() in (
    "1",
    "full",
    "true",
)


def set_full_row_validation(enabled: bool) -> bool:
    """Toggle exhaustive per-row schema validation; returns the old value."""
    global _FULL_ROW_VALIDATION
    previous = _FULL_ROW_VALIDATION
    _FULL_ROW_VALIDATION = bool(enabled)
    return previous


class Relation:
    """An immutable relation ``<R, V, E>`` with bag semantics."""

    # __weakref__ lets the columnar layer memoize its transpose of an
    # (immutable) relation without keeping the relation alive.
    __slots__ = ("_real", "_virtual", "_rows", "__weakref__")

    def __init__(
        self,
        real: Schema | Iterable[str],
        virtual: Schema | Iterable[str],
        rows: Iterable[Row] = (),
    ) -> None:
        real = real if isinstance(real, Schema) else Schema(real)
        virtual = virtual if isinstance(virtual, Schema) else Schema(virtual)
        if not real.is_disjoint(virtual):
            raise SchemaError("real and virtual attributes must be disjoint")
        rows = tuple(rows)
        if rows:
            expected = real.as_set() | virtual.as_set()
            check = rows if _FULL_ROW_VALIDATION else rows[:1]
            for row in check:
                if set(row) != expected:
                    raise SchemaError(
                        f"row attributes {sorted(row)} do not match schema "
                        f"{sorted(expected)}"
                    )
        self._real = real
        self._virtual = virtual
        self._rows = rows

    # ---- constructors ----

    @staticmethod
    def base(
        name: str,
        attrs: Sequence[str],
        data: Iterable[Sequence[Any]] = (),
    ) -> "Relation":
        """Build a base relation; each row gets a unique virtual id.

        The virtual attribute is named ``#<name>`` and carries values
        ``(name, i)``, globally unique across differently named bases.
        """
        schema = Schema(attrs)
        vid = virtual_attr(name)
        rows = []
        for i, values in enumerate(data):
            if len(values) != len(schema):
                raise SchemaError(
                    f"row {values!r} has {len(values)} values, "
                    f"schema {schema} has {len(schema)}"
                )
            mapping = dict(zip(schema.attrs, values))
            mapping[vid] = (name, i)
            rows.append(Row(mapping))
        return Relation(schema, Schema([vid]), rows)

    @staticmethod
    def from_mappings(
        real: Iterable[str],
        virtual: Iterable[str],
        mappings: Iterable[Mapping[str, Any]],
    ) -> "Relation":
        real = Schema(real)
        virtual = Schema(virtual)
        rows = [Row(m) for m in mappings]
        return Relation(real, virtual, rows)

    # ---- accessors ----

    @property
    def real(self) -> Schema:
        return self._real

    @property
    def virtual(self) -> Schema:
        return self._virtual

    @property
    def rows(self) -> tuple[Row, ...]:
        # Subclasses may materialize lazily (repro.relalg.pages,
        # repro.relalg.columnar.ColumnarResult); the
        # derivation helpers below therefore go through this property,
        # never through ``_rows`` directly.
        return self._rows

    @property
    def all_attrs(self) -> Schema:
        return self._real.concat(self._virtual)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return (
            f"Relation(real={list(self._real)}, virtual={list(self._virtual)}, "
            f"rows={len(self)})"
        )

    # ---- derivation helpers (used by the operator modules) ----

    def with_rows(self, rows: Iterable[Row]) -> "Relation":
        return Relation(self._real, self._virtual, rows)

    def real_tuples(self) -> Counter:
        """Multiset of real-attribute value tuples (virtuals dropped).

        This is the observable content of the relation: two plans are
        equivalent iff their results agree on this multiset.
        """
        order = self._real.attrs
        return Counter(row.values_tuple(order) for row in self.rows)

    def same_content(self, other: "Relation") -> bool:
        """True when both relations hold the same bag of real rows.

        Attribute *sets* must agree; column order is irrelevant.
        """
        if self._real.as_set() != other._real.as_set():
            return False
        order = self._real.attrs
        mine = Counter(row.values_tuple(order) for row in self.rows)
        theirs = Counter(row.values_tuple(order) for row in other.rows)
        return mine == theirs

    def sorted_rows(self) -> list[Row]:
        """Rows in a stable display order (NULLs sort last).

        Uses the shared ordering convention from
        :mod:`repro.relalg.ordering` -- the same total order the Sort
        operator and the CLI ORDER BY fallback apply, so a displayed
        relation and a sorted one can never disagree on placement.
        """
        from repro.relalg.ordering import attr_key_fn

        keys = tuple((attr, False) for attr in self._real.attrs)
        return sorted(self.rows, key=attr_key_fn(keys))

    def to_text(
        self, include_virtual: bool = False, preserve_order: bool = False
    ) -> str:
        """Render as an aligned ASCII table (used by benches/examples).

        Rows print in a stable display order unless ``preserve_order``
        is set (e.g. after an ORDER BY was applied).
        """
        attrs = list(self._real)
        if include_virtual:
            attrs += list(self._virtual)

        def fmt(value: Any) -> str:
            return "-" if is_null(value) else str(value)

        header = attrs
        rows = list(self.rows) if preserve_order else self.sorted_rows()
        body = [[fmt(row[a]) for a in attrs] for row in rows]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body), 1)
            if body
            else len(header[i])
            for i in range(len(attrs))
        ]
        lines = [
            " | ".join(h.ljust(w) for h, w in zip(header, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        for r in body:
            lines.append(" | ".join(v.ljust(w) for v, w in zip(r, widths)))
        return "\n".join(lines)


def pad_row(row: Row, target: Schema | Iterable[str]) -> Row:
    """Null-pad ``row`` to the attribute set ``target``."""
    return Row({a: row[a] if a in row else NULL for a in target})
