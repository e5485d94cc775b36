"""Clear every memo the npcc package keeps, for tests that break a check.

A fault injected into a computation whose answer is already kept would
go unseen: the memo answers without running the broken code.  A test
that injects a fault clears the memos first, and again when it is done,
so no broken answer outlives it.
"""

import importlib
import pkgutil

import npcc
import npcc.strata as strata


def clear_memos():
    """Empty each functools.lru_cache of each npcc module, and the kept
    Kottwitz factors; returns the memos emptied, one entry each."""
    memos = {}
    for info in pkgutil.iter_modules(npcc.__path__):
        module = importlib.import_module(f"npcc.{info.name}")
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                memos[id(value)] = value
    for memo in memos.values():
        memo.cache_clear()
    strata._FACTORS.clear()
    return list(memos.values())
