"""Fixtures shared by the test modules."""

from __future__ import annotations

import os

import pytest


@pytest.fixture
def no_child_left():
    """After the test, no child process of this one is running or waiting
    to be reaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
