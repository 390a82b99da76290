"""Published benchmark rows must be finite (``benchmarks/conftest.py``)."""

import math

import pytest

from benchmarks.conftest import check_finite_rows

HEADERS = ["producers", "p50 latency (ms)", "label"]


def test_finite_rows_pass():
    check_finite_rows("t", HEADERS, [(1000, 1.08, "ok"), (2000, 0, "nan")])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_cell_raises(bad):
    with pytest.raises(ValueError, match="p50 latency"):
        check_finite_rows("Fig. 3", HEADERS, [(1000, 1.08, "ok"), (2000, bad, "x")])
