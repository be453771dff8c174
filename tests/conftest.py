import multiprocessing

import pytest

from collapse_lab import _pool


@pytest.fixture(autouse=True)
def pool_per_test():
    """Each test forks its workers at its first round that needs them, after
    its own monkeypatches, and leaves no process running."""
    yield
    _pool.shutdown()
    assert multiprocessing.active_children() == []
