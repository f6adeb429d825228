"""Struct-of-arrays relations: the columnar execution substrate.

A :class:`ColumnarRelation` holds the same ``<R, V, E>`` triple as
:class:`repro.relalg.relation.Relation`, but the extension is stored
column-wise -- one Python list per attribute -- instead of as a tuple
of per-row dicts.  Batch operators (``repro.exec.vector``) stream over
these lists with C-speed comprehensions instead of paying a dict
allocation and a hash probe per attribute per row.

Two design points carry the engine:

* **Selection-vector views.**  Filtering never copies column data: a
  selection produces a *view* sharing the backing columns plus a list
  of surviving physical row indices.  Chains of selections, (bag)
  projections and renames therefore cost O(selected) index bookkeeping,
  zero value movement.  Operators that need positional alignment
  (joins, grouping, generalized selection) call :meth:`compact` first,
  which gathers the visible rows into fresh backing columns once.

* **NULL stays in-band.**  SQL NULL is the singleton
  :data:`repro.relalg.nulls.NULL`, so columns store it directly and a
  null test is a single identity comparison (``v is NULL``).
  :meth:`null_mask` exposes the per-column mask for operators that
  batch over null-ness (generalized-selection provenance, key
  validity).

Virtual (row-identity) attributes are ordinary columns; the
generalized selection's set difference (Definition 2.1) runs over
tuples gathered from them, which is what makes GS compensation a pair
of linear passes in the vector engine.
"""

from __future__ import annotations

import weakref
from typing import Any, Iterable, Mapping, Sequence

from repro.relalg.nulls import NULL
from repro.relalg.relation import Relation
from repro.relalg.row import Row
from repro.relalg.schema import Schema, SchemaError

#: Memoized transposes, keyed weakly by the source relation.  A
#: :class:`Relation` is immutable and backing columns are never
#: mutated, so the cached columnar form stays valid for the relation's
#: whole lifetime; weak keys let the garbage collector reclaim both
#: together.  This is the columnar analogue of a buffer pool: repeated
#: queries against the same base tables transpose them exactly once.
_TRANSPOSE_CACHE: "weakref.WeakKeyDictionary[Relation, ColumnarRelation]" = (
    weakref.WeakKeyDictionary()
)


class ColumnarRelation:
    """An immutable columnar relation, optionally behind a selection view.

    ``columns`` maps every attribute (real and virtual) to a backing
    list of values; ``sel`` -- when not ``None`` -- is the list of
    physical indices that are *visible* through this view, in order.
    Backing lists are never mutated once a relation is built, so views
    may share them freely.
    """

    __slots__ = ("_real", "_virtual", "_columns", "_nrows", "_sel")

    def __init__(
        self,
        real: Schema | Iterable[str],
        virtual: Schema | Iterable[str],
        columns: Mapping[str, list],
        nrows: int,
        sel: list[int] | None = None,
    ) -> None:
        real = real if isinstance(real, Schema) else Schema(real)
        virtual = virtual if isinstance(virtual, Schema) else Schema(virtual)
        if not real.is_disjoint(virtual):
            raise SchemaError("real and virtual attributes must be disjoint")
        expected = real.as_set() | virtual.as_set()
        if expected != set(columns):
            raise SchemaError(
                f"columns {sorted(columns)} do not match schema {sorted(expected)}"
            )
        for attr, values in columns.items():
            if len(values) != nrows:
                raise SchemaError(
                    f"column {attr!r} has {len(values)} values, expected {nrows}"
                )
        self._real = real
        self._virtual = virtual
        self._columns = dict(columns)
        self._nrows = nrows
        self._sel = sel

    # ---- constructors ----

    @staticmethod
    def from_relation(relation: Relation) -> "ColumnarRelation":
        """Transpose a row-store relation into columns (memoized).

        The first call pays one pass over the rows; later calls for
        the same relation object return the cached columnar form
        (see ``_TRANSPOSE_CACHE`` -- safe because both sides are
        immutable).  A :class:`ColumnarResult` hands back the columns
        it holds.
        """
        if isinstance(relation, ColumnarResult):
            return relation.columnar
        cached = _TRANSPOSE_CACHE.get(relation)
        if cached is not None:
            return cached
        page = getattr(relation, "page", None)
        if page is not None:
            # shared-memory-backed relation (repro.relalg.pages): the
            # columnar twin reads straight off the attached page, no
            # row materialization and no per-process transpose
            out = page.columnar()
            _TRANSPOSE_CACHE[relation] = out
            return out
        rows = relation.rows
        columns = {
            attr: [row[attr] for row in rows] for attr in relation.all_attrs
        }
        out = ColumnarRelation(
            relation.real, relation.virtual, columns, len(rows)
        )
        _TRANSPOSE_CACHE[relation] = out
        return out

    @staticmethod
    def from_columns(
        real: Schema | Iterable[str],
        virtual: Schema | Iterable[str],
        columns: Mapping[str, list],
    ) -> "ColumnarRelation":
        """Build from ready-made columns (length inferred)."""
        nrows = len(next(iter(columns.values()))) if columns else 0
        return ColumnarRelation(real, virtual, columns, nrows)

    # ---- accessors ----

    @property
    def real(self) -> Schema:
        return self._real

    @property
    def virtual(self) -> Schema:
        return self._virtual

    @property
    def all_attrs(self) -> tuple[str, ...]:
        return self._real.attrs + self._virtual.attrs

    @property
    def sel(self) -> list[int] | None:
        """The selection vector (``None`` when every row is visible)."""
        return self._sel

    def __len__(self) -> int:
        return self._nrows if self._sel is None else len(self._sel)

    def __repr__(self) -> str:
        view = "" if self._sel is None else f", view={len(self._sel)}/{self._nrows}"
        return (
            f"ColumnarRelation(real={list(self._real)}, "
            f"virtual={list(self._virtual)}, rows={len(self)}{view})"
        )

    # ---- pickling (the process pool's pickle fallback path) ----

    def __getstate__(self):
        """Ship only the visible data, as plain lists.

        A selection view is compacted first so a k-row view over an
        n-row backing store pickles O(k) values, not O(n); lazy
        page-backed columns are materialized because shared-memory
        buffers never cross a pipe.  The weak-keyed transpose cache is
        module state and is never pickled at all.
        """
        com = self.compact()
        columns = com._columns
        if type(columns) is not dict:
            columns = {a: columns[a] for a in columns}
        return (com._real, com._virtual, columns, com._nrows)

    def __setstate__(self, state) -> None:
        real, virtual, columns, nrows = state
        self._real = real
        self._virtual = virtual
        self._columns = columns
        self._nrows = nrows
        self._sel = None

    # ---- physical access (predicate compiler contract) ----

    def physical_columns(self) -> dict[str, list]:
        """The backing columns, indexed by *physical* row position."""
        return self._columns

    def physical_indices(self) -> Sequence[int]:
        """Visible physical indices, in view order."""
        return range(self._nrows) if self._sel is None else self._sel

    # ---- visible (gathered) access ----

    def gather(self, attr: str) -> list:
        """Visible values of ``attr``; zero-copy when the view is full."""
        column = self._columns[attr]
        if self._sel is None:
            return column
        return [column[i] for i in self._sel]

    def null_mask(self, attr: str) -> list[bool]:
        """Per visible row: is the value of ``attr`` NULL?"""
        return [v is NULL for v in self.gather(attr)]

    # ---- derivation ----

    def view(self, sel: list[int]) -> "ColumnarRelation":
        """Zero-copy selection view; ``sel`` holds *physical* indices."""
        return ColumnarRelation(
            self._real, self._virtual, self._columns, self._nrows, sel
        )

    def with_schema(
        self, real: Schema | Iterable[str], virtual: Schema | Iterable[str]
    ) -> "ColumnarRelation":
        """Same data restricted/reordered to a sub-schema (zero-copy)."""
        real = real if isinstance(real, Schema) else Schema(real)
        virtual = virtual if isinstance(virtual, Schema) else Schema(virtual)
        keep = real.attrs + virtual.attrs
        columns = {a: self._columns[a] for a in keep}
        return ColumnarRelation(real, virtual, columns, self._nrows, self._sel)

    def renamed(self, mapping: Mapping[str, str]) -> "ColumnarRelation":
        """Rename real attributes (zero-copy; backing lists shared)."""
        for old in mapping:
            if old not in self._real:
                raise SchemaError(f"cannot rename unknown attribute {old!r}")
        real = Schema(mapping.get(a, a) for a in self._real)
        # keyed access (not .items()) so lazily decoded page columns
        # materialize instead of leaking their placeholders
        columns = {
            mapping.get(a, a): self._columns[a] for a in self._columns
        }
        return ColumnarRelation(
            real, self._virtual, columns, self._nrows, self._sel
        )

    def compact(self) -> "ColumnarRelation":
        """Materialize the view: physical order == visible order."""
        if self._sel is None:
            return self
        sel = self._sel
        columns: dict[str, list] = {}
        for attr in self._columns:
            col = self._columns[attr]  # keyed: decodes lazy page columns
            columns[attr] = [col[i] for i in sel]
        return ColumnarRelation(
            self._real, self._virtual, columns, len(sel)
        )

    # ---- conversion back to the row store ----

    def to_relation(self) -> Relation:
        """Transpose back into a row-store :class:`Relation`."""
        attrs = self.all_attrs
        cols = [self.gather(a) for a in attrs]
        rows = [Row(zip(attrs, values)) for values in zip(*cols)] if attrs else []
        return Relation(self._real, self._virtual, rows)


class ColumnarResult(Relation):
    """A :class:`Relation` whose rows stay columns until first read.

    The vector engine's answer.  ``len()`` and every consumer that goes
    through :meth:`ColumnarRelation.from_relation` use the held columns
    directly; ``rows`` transposes once, through
    :meth:`ColumnarRelation.to_relation`, on first access.  Pickling
    ships the columns (the slim ``ColumnarRelation.__getstate__``),
    never the rows, so an answer crossing a process pipe costs a few
    list pickles instead of one reduce call per row.

    Concurrent first reads may each transpose; every thread still sees
    an equal tuple, and one of them is kept.
    """

    __slots__ = ("columnar",)

    def __init__(self, columnar: ColumnarRelation) -> None:
        super().__init__(columnar.real, columnar.virtual, ())
        self._rows = None
        self.columnar = columnar.compact()

    @property
    def rows(self) -> tuple[Row, ...]:
        rows = self._rows
        if rows is None:
            rows = self._rows = self.columnar.to_relation().rows
        return rows

    def __len__(self) -> int:
        return len(self.columnar)

    def __reduce__(self):
        return (ColumnarResult, (self.columnar,))


def concat_columns(parts: Sequence[Mapping[str, list]], attrs: Sequence[str]) -> dict[str, list]:
    """Concatenate column dicts (missing attributes are NULL-padded).

    Each part may omit attributes; omitted columns contribute NULL for
    that part's rows -- the columnar form of the outer union's padding.
    Part lengths are taken from any present column (empty parts allowed).
    """
    out: dict[str, list] = {a: [] for a in attrs}
    for part in parts:
        length = len(next(iter(part.values()))) if part else 0
        for a in attrs:
            col = part.get(a)
            if col is None:
                out[a].extend([NULL] * length)
            else:
                out[a].extend(col)
    return out


def columns_of(values_by_attr: Mapping[str, Iterable[Any]]) -> dict[str, list]:
    """Coerce an attribute -> iterable mapping into concrete columns."""
    return {a: list(v) for a, v in values_by_attr.items()}
