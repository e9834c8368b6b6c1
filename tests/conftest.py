from pathlib import Path

import pytest

from cfpopt import _kernels, harness

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    # build the C kernel library (or load it from the cache) and resolve the
    # backend once, so timed tests measure the algorithms, not the compiler
    _kernels.warmup()


@pytest.fixture
def fixtures_dir():
    return FIXTURES


@pytest.fixture
def scheme_results(monkeypatch):
    """The ``SchemeResult`` of each scheme run that ``run_variant`` makes, in order."""
    results = []
    for name in ("level_set_solve", "accelerated_level_set_solve", "bisection_solve"):
        def recording(*args, _solve=getattr(harness, name), **kw):
            results.append(_solve(*args, **kw))
            return results[-1]
        monkeypatch.setattr(harness, name, recording)
    return results
