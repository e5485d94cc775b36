"""A time guard on every test, under tests/ and bench/ alike.

A test still running TEST_TIMEOUT_S seconds after it started, fixtures
included, prints the traceback of every thread and ends the whole run
with exit status 1.  So a runaway search fails naming its stuck frame
instead of hanging the suite.  The bound is far above the slowest test,
which takes under 5 s on a 2-core host.
"""

import faulthandler
import os

import pytest

TEST_TIMEOUT_S = 60
_STDERR = pytest.StashKey[int]()  # the terminal's stderr, copied before output is captured


def pytest_configure(config):
    config.stash[_STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(TEST_TIMEOUT_S, exit=True, file=item.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
