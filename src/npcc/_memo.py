"""Every memo the package keeps, declared here and nowhere else.

A memo keeps recent answers of a pure function of immutable arguments,
least recently used evicted first, within a fixed bound, so a long run
holds no more than its bound whatever inputs it sees.  Each is recorded
by its dotted name, so one call empties them all (a fault injected
into a computation whose answer is kept would otherwise go unseen) and
one call reports what each has saved.
"""

import collections
import functools

# Dotted name -> memo, in declaration order.
_MEMOS = {}

# The fields of functools.lru_cache's cache_info(), for a memo of its own.
CacheInfo = collections.namedtuple("CacheInfo", "hits misses maxsize currsize")


def _bound(maxsize):
    """maxsize, unless it is not a positive int."""
    if type(maxsize) is not int or maxsize < 1:
        raise ValueError(f"a memo needs a positive int bound, not {maxsize!r}")
    return maxsize


def memo(maxsize):
    """Decorator keeping up to maxsize answers of a function.

    It returns the function's functools.lru_cache itself, so callers see
    its ``__wrapped__``, ``cache_info()`` and ``cache_clear()``; a call
    that raises keeps nothing.
    """
    _bound(maxsize)

    def keep(func):
        kept = functools.lru_cache(maxsize=maxsize)(func)
        _MEMOS[f"{func.__module__}.{func.__qualname__}"] = kept
        return kept

    return keep


class WeighedMemo:
    """A memo of entries whose weights add up to at most maxsize.

    For answers whose sizes differ by orders of magnitude, where a count
    of entries would bound nothing.  The caller looks an entry up with
    `get` and, after a miss, keeps what it built with `put`.
    """

    __slots__ = ("maxsize", "hits", "misses", "_kept", "_held")

    def __init__(self, name, maxsize):
        self.maxsize = _bound(maxsize)
        self._kept = {}  # key -> (weight, entry), least recently used first
        self.cache_clear()
        _MEMOS[name] = self

    def get(self, key):
        """The entry kept under key, now the most recently used, or None."""
        kept = self._kept.pop(key, None)
        if kept is None:
            self.misses += 1
            return None
        self.hits += 1
        self._kept[key] = kept
        return kept[1]

    def put(self, key, entry, weight):
        """Keep entry under a key just missed, evicting the least recently
        used until it fits; an entry heavier than maxsize is not kept."""
        if weight > self.maxsize:
            return
        while self._held + weight > self.maxsize:
            self._held -= self._kept.pop(next(iter(self._kept)))[0]
        self._kept[key] = (weight, entry)
        self._held += weight

    def cache_clear(self):
        self._kept.clear()
        self._held = self.hits = self.misses = 0

    def cache_info(self):
        """Hits, misses, the bound and the weight held (currsize)."""
        return CacheInfo(self.hits, self.misses, self.maxsize, self._held)


def clear():
    """Empty every memo and zero its counts."""
    for kept in _MEMOS.values():
        kept.cache_clear()


def info():
    """Each memo's cache_info() by dotted name: hits, misses, bound, and
    entries held (for a WeighedMemo, the weight held)."""
    return {name: kept.cache_info() for name, kept in _MEMOS.items()}
