import threading

import pytest


@pytest.fixture(autouse=True)
def no_draw_ahead_thread_left():
    """Fail a test that leaves a draw-ahead helper thread of stream_mean alive."""
    yield
    left = [t for t in threading.enumerate() if t.name == "ocft-draw-ahead"]
    for thread in left:  # so that the next test starts without them
        thread.join(timeout=10.0)
    if left:
        pytest.fail(f"{len(left)} ocft-draw-ahead thread(s) left alive")
