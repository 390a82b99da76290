"""Shared benchmark scaffolding.

Every benchmark regenerates one of the paper's tables or figures: it runs
the experiment inside the simulator, prints the same rows/series the paper
reports (so EXPERIMENTS.md can quote the output directly), and asserts the
*shape* — who wins, roughly by how much, where the knees fall — rather than
absolute numbers.

The system-building and measurement helpers live in
:mod:`repro.harness.comparison` (shared with the ``focus-repro compare``
CLI); this conftest re-exports them under the names the benchmarks use.

Run with:  pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import math
import numbers
from typing import Iterable, Sequence

import pytest

from repro.harness.comparison import (
    DEFAULT_SEED as BENCH_SEED,
    build_finder,
    comparison_queries as bench_queries,
    measure_bandwidth,
)

__all__ = [
    "BENCH_SEED",
    "bench_queries",
    "build_finder",
    "check_finite_rows",
    "measure_bandwidth",
]


def check_finite_rows(
    title: str, headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> None:
    """Raise ``ValueError`` on any ``inf`` or NaN numeric cell.

    A non-finite number in a published row means the measurement behind it
    failed (an empty sample, a division by zero); it must fail the bench
    rather than land in a table.
    """
    for index, row in enumerate(rows):
        for header, cell in zip(headers, row):
            if isinstance(cell, numbers.Real) and not math.isfinite(cell):
                raise ValueError(
                    f"{title}: row {index} has non-finite {header!r} = {cell}"
                )


@pytest.fixture
def record_rows(benchmark):
    """Store a result table on the benchmark for the JSON report."""

    def store(title: str, headers, rows) -> None:
        from repro.harness.report import print_table

        rows = [tuple(row) for row in rows]
        check_finite_rows(title, headers, rows)
        print_table(title, headers, rows)
        benchmark.extra_info.setdefault("tables", []).append(
            {"title": title, "headers": list(headers),
             "rows": [list(map(str, row)) for row in rows]}
        )

    return store
