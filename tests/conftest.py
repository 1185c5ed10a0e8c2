import pytest

from jumppipe import nncore


@pytest.fixture
def prior():
    """Sets numpy's OpenBLAS to 3 threads, a count that no default gives,
    for one test and yields it; the count found is put back after."""
    get, set_ = nncore._openblas()
    found = get()
    set_(3)
    yield 3
    set_(found)
