"""One byte-budgeted store for the per-axis factors and per-grid maps
that boards share.

``@memo`` caches a pure function of hashable positional arguments.
Every memoized function keeps its values in its own dict, and one
store charges each entry, when it is inserted, the bytes it holds: its
value, read deeply (:func:`_sizeof`), its key and its dict slots.  Once
the charges pass :data:`BUDGET_BYTES` the oldest entries, of any
function, are dropped until they fit; a value larger than the budget
is returned and not kept.  Values must not grow after insertion, as
their charge is never read again.

A hit is one plain dict read: it takes no lock and reorders nothing,
so the order of eviction is the order of insertion.  Inserts,
evictions and ``cache_clear`` take the store's lock, so threads may
share every memoized function.  ``cache_clear`` drops the function's
own entries; ``__wrapped__`` is the uncached function.
"""
from __future__ import annotations

import functools
import sys
import threading
from collections import OrderedDict

import numpy as np

# the store pays off where axes and grids repeat: a small_shapes pass
# (786 grids of at most 48 cells, several ops on each) makes about
# 63,000 lookups and hits 96.4% of them, leaving about 2,300 entries
# charged 2.5 MiB; a boards pass makes 530 to 570 lookups, 72% to 74%
# hits by seed, and keeps 0.2 MiB.  An entry on a 3,000-long axis (C^e, f(J) or a phi
# axis) holds up to 1.3 MiB: after 120 monomial operators on that axis
# the store kept 71 entries charged 63.9 MiB, the C^e of the last 36
# operators, nearly all under two keys (as C^e and as the sum over
# {e}), and tracemalloc read 32.4 MiB held, against 102 MiB when every
# C^e was kept.
BUDGET_BYTES = 64 << 20

# an entry's slots in its function's dict and in the store's order,
# and the order's key: over 1,000 to 20,000 small entries tracemalloc
# read 231 to 243 bytes an entry beyond the sizes of its key and value
_ENTRY_BYTES = 256

_MISS = object()
_lock = threading.Lock()
# (id of the function's dict, key) -> (that dict, charge), oldest
# first, and the sum of the charges
_charges: OrderedDict = OrderedDict()
_held = 0


def _sizeof(value) -> int:
    """The bytes ``value`` holds: its own size plus, for a tuple or a
    list, its items', for a numpy view, the bytes it views, and for an
    object with ``__slots__``, its slots'.  Shared small objects (None,
    small ints) are counted too, so a charge errs high."""
    size = sys.getsizeof(value)
    if isinstance(value, (tuple, list)):
        # a sequence of row ints is summed without a Python call per item
        if set(map(type, value)) <= {int}:
            return size + sum(map(sys.getsizeof, value))
        return size + sum(map(_sizeof, value))
    if isinstance(value, np.ndarray):
        return size if value.flags.owndata else size + value.nbytes
    if hasattr(type(value), "__slots__"):
        size += sum(_sizeof(getattr(value, s, None)) for s in type(value).__slots__)
    return size


def _insert(cache: dict, key: tuple, value) -> None:
    global _held
    charge = _sizeof(key) + _sizeof(value) + _ENTRY_BYTES
    if charge > BUDGET_BYTES:
        return
    with _lock:
        if key in cache:
            return
        cache[key] = value
        _charges[id(cache), key] = cache, charge
        _held += charge
        while _held > BUDGET_BYTES:
            (_, old), (owner, old_charge) = _charges.popitem(last=False)
            del owner[old]
            _held -= old_charge


def memo(fn):
    """``fn`` memoized in the store, with ``cache_clear`` and
    ``__wrapped__``."""
    cache: dict = {}
    get = cache.get

    @functools.wraps(fn)
    def cached(*args):
        value = get(args, _MISS)
        if value is _MISS:
            value = fn(*args)
            _insert(cache, args, value)
        return value

    def cache_clear() -> None:
        global _held
        with _lock:
            for k in [k for k in _charges if k[0] == id(cache)]:
                _held -= _charges.pop(k)[1]
            cache.clear()

    cached.cache_clear = cache_clear
    return cached
