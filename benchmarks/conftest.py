"""Session fixtures shared by the paper harnesses."""

import pytest

from bench_common import detector_tasks, run_cells, table_i_benchmark_streams


@pytest.fixture(scope="session")
def table3_records() -> list[dict]:
    """Experiment 1 (seed 0), run once for Table III and Figs. 4-7."""
    return run_cells(
        [
            task
            for name, stream_factory in table_i_benchmark_streams()
            for task in detector_tasks(name, stream_factory, seed=0)
        ]
    )
