import os

import pytest

from edimkit.groups import from_generators
from oracles import primitive_root


@pytest.fixture(scope="session", autouse=True)
def isolated_cache(tmp_path_factory):
    """Keep character-table caches inside the test run."""
    d = tmp_path_factory.mktemp("chartab-cache")
    old = os.environ.get("EDIMKIT_CACHE")
    os.environ["EDIMKIT_CACHE"] = str(d)
    yield
    if old is None:
        os.environ.pop("EDIMKIT_CACHE", None)
    else:
        os.environ["EDIMKIT_CACHE"] = old


@pytest.fixture(scope="session")
def agl_1_67():
    """AGL(1, 67) on the points of F_67: order 4422, above TABLE_LIMIT."""
    p = 67
    r = primitive_root(p)
    return from_generators([[r * x % p for x in range(p)], [(x + 1) % p for x in range(p)]])
