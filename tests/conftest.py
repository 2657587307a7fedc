import os

# One BLAS thread, as perfbench/run.py sets: the suite then runs the same
# BLAS code as the benchmark, and a second thread would only spin on the
# other core.  It must be set before numpy loads its BLAS.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="also run tests marked slow (long acceptance runs)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
