import numpy as np
import pytest
from hypothesis import settings

from nexus.ingest import DyadMonthSeries

# `pytest --hypothesis-profile=ci` draws the same examples on every run, so a
# failure seen in a CI log reproduces locally with the same command.
settings.register_profile("ci", derandomize=True, deadline=None)


def pytest_addoption(parser):
    parser.addoption(
        "--runslow", action="store_true", default=False, help="run slow benchmarks"
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


def make_series(raw, dyad_id="d1", country_id="c1", start_month=24180):
    """Series fixture from raw fatality counts; start defaults to 2015-01."""
    raw = np.asarray(raw, dtype=int)
    return DyadMonthSeries(
        dyad_id=dyad_id,
        country_id=country_id,
        months=np.arange(start_month, start_month + len(raw)),
        log_fatalities=np.log1p(raw),
        raw_fatalities=raw,
    )


def make_log_series(y, dyad_id="d1", country_id="c1", start_month=24180):
    """Series fixture directly from log-fatality values (raw derived)."""
    y = np.asarray(y, dtype=float)
    raw = np.maximum(np.round(np.expm1(y)), 0).astype(int)
    return DyadMonthSeries(
        dyad_id=dyad_id,
        country_id=country_id,
        months=np.arange(start_month, start_month + len(y)),
        log_fatalities=y,
        raw_fatalities=raw,
    )
