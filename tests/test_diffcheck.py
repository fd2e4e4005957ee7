"""The ulp distance of ``tools/diffcheck.py``: which pairs of runs it counts
as within ``ULPS`` and which as different."""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "diffcheck.py"
_SPEC = importlib.util.spec_from_file_location("diffcheck", _PATH)
diffcheck = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(diffcheck)


def _run(value: float) -> dict:
    return diffcheck._exact({"records": [{"rtt": 0.5, "wall": value}],
                             "summary": {"total_runtime": 2.0}})


def test_equal_runs_are_zero_ulps_apart():
    assert diffcheck._ulps(_run(1.0), _run(1.0), 2.0) == 0.0
    assert diffcheck._ulps(_run(math.inf), _run(math.inf), 2.0) == 0.0


def test_distance_is_taken_in_ulps_of_the_run_time_scale():
    near = math.nextafter(math.nextafter(1e-9, 1.0), 1.0)
    assert diffcheck._ulps(_run(1e-9), _run(near), 2.0) <= diffcheck.ULPS
    assert diffcheck._ulps(_run(1.0), _run(1.0 + 8 * math.ulp(2.0)), 2.0) == 8.0


@pytest.mark.parametrize("x, y", [
    (math.inf, 1.0),
    (1.0, -math.inf),
    (math.inf, -math.inf),
    (math.nan, 1.0),
    (math.nan, math.inf),
])
def test_a_non_finite_difference_is_infinitely_far(x, y):
    # inf / ulp(inf) would be NaN, which compares neither within nor beyond
    # the bound, so the config would be counted as equal.
    assert diffcheck._ulps(_run(x), _run(y), 2.0) == math.inf
    assert diffcheck._ulps(_run(y), _run(x), 2.0) == math.inf


def test_a_non_finite_difference_outweighs_every_other_under_max():
    a = diffcheck._exact({"x": math.inf, "y": 1.0})
    b = diffcheck._exact({"x": 1.0, "y": 1.0 + math.ulp(2.0)})
    assert diffcheck._ulps(a, b, 2.0) == math.inf
    assert diffcheck._ulps(b, a, 2.0) == math.inf
