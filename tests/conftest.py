import threading

import pytest


@pytest.fixture(autouse=True, scope="session")
def kernel_cache(tmp_path_factory):
    """Build the compiled step kernel into a directory of this session, not the user's cache; yields its path."""
    cache = tmp_path_factory.mktemp("cache")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(cache))
        yield cache


@pytest.fixture(autouse=True)
def no_thread_left_behind():
    """Fail a test that leaves a thread alive that it did not start with."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    for t in left:
        t.join(timeout=1.0)  # a thread that is just ending
    alive = [t.name for t in left if t.is_alive()]
    if alive:
        pytest.fail(f"test left threads running: {alive}")
