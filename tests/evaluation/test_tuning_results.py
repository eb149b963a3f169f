"""Unit tests for the Nelder-Mead tuner and result tables."""

import numpy as np
import pytest

from repro.evaluation.results import ResultTable, format_series_table
from repro.evaluation.tuning import NelderMeadTuner, ParameterSpace, tune_on_stream


class TestParameterSpace:
    def test_decode_clips_and_rounds(self):
        space = ParameterSpace(
            bounds={"lr": (0.01, 0.1), "window": (25, 100)}, integer=frozenset({"window"})
        )
        decoded = space.decode(np.array([0.5, 62.7]))
        assert decoded["lr"] == pytest.approx(0.1)
        assert decoded["window"] == 63
        assert isinstance(decoded["window"], int)

    def test_random_vector_within_bounds(self):
        space = ParameterSpace(bounds={"a": (-1.0, 1.0), "b": (10.0, 20.0)})
        vector = space.random_vector(np.random.default_rng(0))
        assert -1.0 <= vector[0] <= 1.0
        assert 10.0 <= vector[1] <= 20.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ParameterSpace(bounds={})
        with pytest.raises(ValueError):
            ParameterSpace(bounds={"a": (1.0, 0.0)})
        with pytest.raises(ValueError):
            ParameterSpace(bounds={"a": (0.0, 1.0)}, integer=frozenset({"b"}))


class TestNelderMeadTuner:
    def _quadratic(self, optimum):
        def evaluate(params):
            return -sum((params[k] - optimum[k]) ** 2 for k in optimum)

        return evaluate

    def test_improves_over_random_initialisation(self):
        space = ParameterSpace(bounds={"x": (-5.0, 5.0), "y": (-5.0, 5.0)})
        evaluate = self._quadratic({"x": 1.0, "y": -2.0})
        tuner = NelderMeadTuner(space, seed=0)
        scores = []
        for _ in range(40):
            params = tuner.ask()
            score = evaluate(params)
            tuner.tell(score)
            scores.append(score)
        assert max(scores[-10:]) > max(scores[:3])

    def test_best_parameters_close_to_optimum(self):
        space = ParameterSpace(bounds={"x": (-5.0, 5.0)})
        evaluate = self._quadratic({"x": 2.0})
        best, best_score = tune_on_stream(space, evaluate, n_iterations=60, seed=1)
        assert abs(best["x"] - 2.0) < 1.5
        assert best_score > -2.5

    def test_ask_tell_bookkeeping(self):
        space = ParameterSpace(bounds={"x": (0.0, 1.0)})
        tuner = NelderMeadTuner(space, seed=2)
        for _ in range(5):
            tuner.tell(-abs(tuner.ask()["x"]))
        assert tuner.n_evaluations == 5
        assert np.isfinite(tuner.best_score)

    def test_tune_on_stream_budget_validation(self):
        space = ParameterSpace(bounds={"x": (0.0, 1.0), "y": (0.0, 1.0)})
        with pytest.raises(ValueError):
            tune_on_stream(space, lambda p: 0.0, n_iterations=2)

    def test_integer_parameters_returned_as_int(self):
        space = ParameterSpace(
            bounds={"window": (25.0, 100.0)}, integer=frozenset({"window"})
        )
        tuner = NelderMeadTuner(space, seed=3)
        for _ in range(6):
            params = tuner.ask()
            assert isinstance(params["window"], int)
            tuner.tell(float(-params["window"]))


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
