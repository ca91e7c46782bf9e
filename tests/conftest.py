"""Fixtures shared by the test modules: child processes and deadlines."""

from __future__ import annotations

import os
import signal

import pytest


def _has_child() -> bool:
    """Whether this process has a child; one that has exited is reaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


@pytest.fixture(autouse=True)
def no_child_left_unreaped():
    """Fail any test that leaves an exited child process unreaped."""
    yield
    left = []
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # no child at all
            break
        if pid == 0:  # children that are still running
            break
        left.append(pid)
    if left:
        pytest.fail(f"child processes left unreaped: {left}")


@pytest.fixture
def childless():
    """A check that this process has no child, running or exited."""
    return lambda: not _has_child()


@pytest.fixture
def deadline():
    """Raise TimeoutError in the test if it runs past 60 s, so a hang fails."""

    def expire(signum, frame):
        raise TimeoutError("the test ran past its 60 s deadline")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)
