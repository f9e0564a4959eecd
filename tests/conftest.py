"""Suite-wide fixtures: a time limit on every test."""

import signal

import pytest

# Seconds a test may run before it fails.  The slowest test takes about 2.5 s,
# so a test past this has hung (a kernel that never ends its loop, say); it
# fails with its name instead of stalling the suite.
TEST_TIME_LIMIT = 120


class TimeLimitExceeded(BaseException):
    """A test ran past TEST_TIME_LIMIT.  Not an Exception, so no ``except
    Exception`` swallows it and Hypothesis does not rerun the example to shrink it."""


@pytest.fixture(autouse=True)
def time_limit(request):
    """Fail the test once it runs past TEST_TIME_LIMIT; a no-op where there is no SIGALRM."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"{request.node.nodeid} ran past {TEST_TIME_LIMIT} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
