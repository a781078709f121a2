"""Suite-wide guard: a test must not leave a non-daemon thread running."""

from __future__ import annotations

import threading

import pytest

#: Seconds a thread that a test started may take to finish after the test.
GRACE_S = 2.0


@pytest.fixture(autouse=True)
def no_stray_threads():
    """Fail a test that leaves a new non-daemon thread alive.

    The grid helpers (daemon threads named ``blend-grid``) live as long as
    the process and are exempt.
    """
    before = set(threading.enumerate())
    yield
    stray = [t for t in threading.enumerate() if t not in before and not t.daemon and t.name != "blend-grid"]
    for thread in stray:
        thread.join(GRACE_S)
    alive = [t.name for t in stray if t.is_alive()]
    if alive:
        pytest.fail(f"test left non-daemon threads running: {alive}")
