"""Unit tests for the result tables."""

import numpy as np
import pytest

from repro.evaluation.results import ResultTable, format_series_table


class TestResultTable:
    def _table(self):
        table = ResultTable(metric_name="pmAUC")
        table.add("stream1", "A", 0.9)
        table.add("stream1", "B", 0.7)
        table.add("stream2", "A", 0.8)
        table.add("stream2", "B", 0.6)
        return table

    def test_matrix_layout(self):
        table = self._table()
        matrix = table.to_matrix()
        assert matrix.shape == (2, 2)
        assert matrix[0, 0] == pytest.approx(0.9)
        assert table.datasets == ["stream1", "stream2"]
        assert table.methods == ["A", "B"]

    def test_ranks(self):
        ranks = self._table().ranks()
        assert ranks["A"] == pytest.approx(1.0)
        assert ranks["B"] == pytest.approx(2.0)

    def test_missing_cells_become_nan(self):
        table = self._table()
        table.add("stream3", "A", 0.5)
        matrix = table.to_matrix()
        assert np.isnan(matrix[2, 1])

    def test_text_rendering_contains_all_cells(self):
        text = self._table().to_text()
        assert "pmAUC" in text
        assert "stream1" in text and "stream2" in text
        assert "0.90" in text and "0.60" in text
        assert "ranks" in text

    def test_value_lookup(self):
        assert self._table().value("stream2", "B") == pytest.approx(0.6)

    def test_duplicate_cell_raises(self):
        table = self._table()
        with pytest.raises(ValueError, match=r"duplicate cell \('stream1', 'A'\)"):
            table.add("stream1", "A", 0.95)
        # The original value is untouched by the rejected write.
        assert table.value("stream1", "A") == pytest.approx(0.9)

    def test_duplicate_cell_overwrite_escape_hatch(self):
        table = self._table()
        table.add("stream1", "A", 0.95, overwrite=True)
        assert table.value("stream1", "A") == pytest.approx(0.95)

    def test_empty_table_renders_header_and_empty_ranks_row(self):
        # A protocol table before any cell has finished has no methods.
        text = ResultTable(metric_name="pmAUC").to_text()
        assert [line.rstrip() for line in text.splitlines()] == ["pmAUC", "ranks"]


class TestFormatSeriesTable:
    def test_renders_rows_per_x_value(self):
        text = format_series_table(
            "classes", [1, 2, 3], {"RBM-IM": [0.9, 0.8, 0.7], "DDM": [0.5, 0.5, 0.5]}
        )
        lines = text.splitlines()
        assert len(lines) == 4
        assert "RBM-IM" in lines[0]
        assert "0.70" in lines[3]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_series_table("x", [1, 2], {"A": [0.1]})

    def test_empty_series_and_empty_x_values_render(self):
        no_series = format_series_table("classes", [1, 2], {})
        assert [line.rstrip() for line in no_series.splitlines()] == ["classes", "1", "2"]
        no_rows = format_series_table("classes", [], {"RBM-IM": []})
        assert no_rows.split() == ["classes", "RBM-IM"]
