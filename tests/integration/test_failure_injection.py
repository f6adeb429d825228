"""Failure injection: malformed inputs must fail loudly and clearly."""

import pytest

from repro.cli import load_csv_database, run_script
from repro.expr import BaseRel, Database, evaluate
from repro.expr.nodes import ExprError
from repro.relalg import Relation
from repro.relalg.schema import SchemaError
from repro.sql import SqlCatalog, SqlParseError, SqlTranslationError, parse_select, translate


class TestCsvFailures:
    def test_empty_csv_file(self, tmp_path):
        (tmp_path / "t.csv").write_text("")
        with pytest.raises(SystemExit, match="no header"):
            load_csv_database(tmp_path)

    def test_ragged_rows_rejected(self, tmp_path):
        (tmp_path / "t.csv").write_text("a,b\n1,2\n3\n")
        with pytest.raises(SchemaError):
            load_csv_database(tmp_path)

    def test_duplicate_header_rejected(self, tmp_path):
        (tmp_path / "t.csv").write_text("a,a\n1,2\n")
        with pytest.raises((SchemaError, ValueError)):
            load_csv_database(tmp_path)


class TestSchemaMismatches:
    def test_query_against_missing_table(self):
        catalog = SqlCatalog({"t": ("a",)})
        db = Database()  # empty!
        translation = translate(parse_select("select a from t"), catalog)
        with pytest.raises(ExprError, match="no base relation"):
            evaluate(translation.expr, db)

    def test_stale_catalog_detected(self):
        """Catalog says (a, b); the database has (a, c): loud failure."""
        catalog = SqlCatalog({"t": ("a", "b")})
        db = Database({"t": Relation.base("t", ["a", "c"], [(1, 2)])})
        translation = translate(parse_select("select a from t"), catalog)
        with pytest.raises(ExprError, match="expects"):
            evaluate(translation.expr, db)

    def test_forward_view_reference_resolves(self):
        """Views resolve lazily: definition order does not matter."""
        from repro.sql import parse_statements

        catalog = SqlCatalog({"t": ("a",)})
        stmts = parse_statements(
            "create view v as select a from w;"
            "create view w as select a from t;"
        )
        catalog.add_view(stmts[0])
        catalog.add_view(stmts[1])
        translate(parse_select("select a from v"), catalog)  # no error

    def test_view_cycle_detected(self):
        """A self-referential view fails clearly, not by recursion."""
        from repro.sql import parse_statements

        catalog = SqlCatalog({"t": ("a",)})
        stmts = parse_statements(
            "create view v as select a from w;"
            "create view w as select a from v;"
        )
        catalog.add_view(stmts[0])
        catalog.add_view(stmts[1])
        with pytest.raises(SqlTranslationError, match="itself"):
            translate(parse_select("select a from v"), catalog)


class TestScriptErrors:
    def test_garbage_sql_is_a_parse_error(self):
        with pytest.raises(SqlParseError):
            parse_select("selekt a from t")

    def test_unknown_view_column(self):
        from repro.sql import parse_statements

        catalog = SqlCatalog({"t": ("a",)})
        stmts = parse_statements(
            "create view v as select a from t; select nope from v;"
        )
        catalog.add_view(stmts[0])
        with pytest.raises(SqlTranslationError, match="unknown column"):
            translate(stmts[1], catalog)

    def test_duplicate_view_registration(self):
        from repro.errors import UserInputError
        from repro.sql import parse_statements

        catalog = SqlCatalog({"t": ("a",)})
        stmts = parse_statements("create view v as select a from t;")
        catalog.add_view(stmts[0])
        catalog.add_view(stmts[0])  # an identical redefinition is a no-op
        (other,) = parse_statements("create view v as select a as b from t;")
        with pytest.raises(UserInputError, match="duplicate view"):
            catalog.add_view(other)
