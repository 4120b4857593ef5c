"""Suite-wide checks.

`scheme._in_workers` forks worker processes and must reap every one of them
before it returns or raises; a test that leaves a child behind fails.
"""

import os

import pytest


def assert_no_child_left():
    """This process has no child, running or ended and not yet reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    assert_no_child_left()
