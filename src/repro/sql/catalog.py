"""Schema catalog for the SQL front-end."""

from __future__ import annotations

from repro.errors import UserInputError
from repro.sql.ast import CreateViewStmt, SelectStmt


class SqlCatalog:
    """Tables (name -> column names) and views (name -> SELECT ast).

    Base tables hold their *physical* column names; the translator
    prefixes them with the FROM-clause binding, so the same physical
    name may appear in several tables.
    """

    def __init__(self, tables: dict[str, tuple[str, ...]] | None = None) -> None:
        self._tables: dict[str, tuple[str, ...]] = {}
        self._views: dict[str, SelectStmt] = {}
        for name, columns in (tables or {}).items():
            self.add_table(name, columns)

    def add_table(self, name: str, columns: tuple[str, ...] | list[str]) -> None:
        key = name.lower()
        if key in self._tables or key in self._views:
            raise ValueError(f"duplicate catalog entry {name!r}")
        self._tables[key] = tuple(columns)

    def add_view(self, statement: CreateViewStmt) -> None:
        """Register a view; defining the same view again is a no-op.

        Raises:
            repro.errors.UserInputError: The name is a table, or a view
                with a different definition.
        """
        key = statement.name.lower()
        if key in self._tables:
            raise UserInputError(
                f"duplicate catalog entry {statement.name!r}: "
                "a table of that name exists"
            )
        known = self._views.get(key)
        if known is not None and known != statement.query:
            raise UserInputError(
                f"duplicate view {statement.name!r} with a different definition"
            )
        self._views[key] = statement.query

    def is_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def is_view(self, name: str) -> bool:
        return name.lower() in self._views

    def table_columns(self, name: str) -> tuple[str, ...]:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise KeyError(f"no table named {name!r}") from None

    def view_query(self, name: str) -> SelectStmt:
        try:
            return self._views[name.lower()]
        except KeyError:
            raise KeyError(f"no view named {name!r}") from None
