"""Result collection and text rendering of the paper's tables.

:class:`ResultTable` accumulates per-(dataset, method) metric values and
renders Table III-style text output: one row per dataset, one column per
method, plus the average-rank row used by the Friedman/Bonferroni-Dunn
analysis.  It is deliberately plain-text (no plotting dependencies) so the
benchmark harnesses can print series for every figure as rows of numbers.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.evaluation.stats import average_ranks

__all__ = ["ResultTable", "format_series_table"]


@dataclass
class ResultTable:
    """A (datasets x methods) table of metric values with rank summary."""

    metric_name: str = "metric"
    _cells: "OrderedDict[str, OrderedDict[str, float]]" = field(
        default_factory=OrderedDict
    )

    def add(
        self, dataset: str, method: str, value: float, overwrite: bool = False
    ) -> None:
        """Record one value.

        A second ``add`` for the same (dataset, method) cell raises — silent
        overwrites have historically hidden aggregation bugs where two runs
        collapsed into one cell.  Pass ``overwrite=True`` to replace a cell
        deliberately.
        """
        row = self._cells.setdefault(dataset, OrderedDict())
        if method in row and not overwrite:
            raise ValueError(
                f"duplicate cell ({dataset!r}, {method!r}): already holds "
                f"{row[method]!r}; pass overwrite=True to replace it"
            )
        row[method] = float(value)

    @property
    def datasets(self) -> list[str]:
        return list(self._cells)

    @property
    def methods(self) -> list[str]:
        methods: list[str] = []
        for row in self._cells.values():
            for method in row:
                if method not in methods:
                    methods.append(method)
        return methods

    def value(self, dataset: str, method: str) -> float:
        return self._cells[dataset][method]

    def to_matrix(self) -> np.ndarray:
        """Dense (datasets x methods) matrix; missing cells become NaN."""
        methods = self.methods
        matrix = np.full((len(self._cells), len(methods)), np.nan)
        for i, dataset in enumerate(self.datasets):
            for j, method in enumerate(methods):
                matrix[i, j] = self._cells[dataset].get(method, np.nan)
        return matrix

    def ranks(self, higher_is_better: bool = True) -> dict[str, float]:
        """Average rank of every method over the complete rows."""
        matrix = self.to_matrix()
        complete = ~np.isnan(matrix).any(axis=1)
        if not complete.any():
            return {method: float("nan") for method in self.methods}
        ranks = average_ranks(matrix[complete], higher_is_better)
        return dict(zip(self.methods, (float(rank) for rank in ranks)))

    def to_text(self, precision: int = 2, higher_is_better: bool = True) -> str:
        """Render the table (plus an average-rank footer) as aligned text."""
        methods = self.methods
        width = max([len(self.metric_name)] + [len(name) for name in self.datasets]) + 2
        column_width = max([8] + [len(name) + 2 for name in methods])
        lines = [
            self.metric_name.ljust(width)
            + "".join(name.rjust(column_width) for name in methods)
        ]
        for dataset in self.datasets:
            cells = []
            for method in methods:
                value = self._cells[dataset].get(method)
                cells.append(
                    ("-" if value is None else f"{value:.{precision}f}").rjust(
                        column_width
                    )
                )
            lines.append(dataset.ljust(width) + "".join(cells))
        ranks = self.ranks(higher_is_better)
        lines.append(
            "ranks".ljust(width)
            + "".join(f"{ranks[m]:.2f}".rjust(column_width) for m in methods)
        )
        return "\n".join(lines)


def format_series_table(
    x_label: str,
    x_values: list,
    series: dict[str, list[float]],
    precision: int = 2,
) -> str:
    """Render figure-style series (one column per method, rows over x).

    Used by the Fig. 8 / Fig. 9 benchmark harnesses to print pmAUC as a
    function of the number of drifted classes or the imbalance ratio.
    """
    methods = list(series)
    for name, values in series.items():
        if len(values) != len(x_values):
            raise ValueError(f"series {name!r} length does not match x_values")
    width = max([len(x_label)] + [len(str(x)) for x in x_values]) + 2
    column_width = max([8] + [len(name) + 2 for name in methods])
    lines = [x_label.ljust(width) + "".join(name.rjust(column_width) for name in methods)]
    for index, x in enumerate(x_values):
        row = str(x).ljust(width)
        row += "".join(
            f"{series[name][index]:.{precision}f}".rjust(column_width)
            for name in methods
        )
        lines.append(row)
    return "\n".join(lines)
