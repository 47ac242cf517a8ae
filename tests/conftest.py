"""Suite-wide checks."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test after which this process still has a child, running or
    unreaped: a worker pool must reap every worker it forks."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    if pid == 0:
        pytest.fail("a child process is still running after the test")
    pytest.fail(f"child process {pid} exited with status {status} and was never reaped")
