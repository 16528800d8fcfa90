"""The one bounded table class of branchkit, and the bytes an entry costs it.

The recursion's process-wide tables (characters, shapes and strips, in
branching), sized in bytes by footprint, and the tableau oracle's plan table,
sized in slots, are all instances of Table.  It holds no arithmetic and
imports nothing from the package, so the oracle that uses it still shares no
arithmetic with the recursion it checks.
"""

from collections import deque
from sys import getsizeof


class Table:
    """Values by key, at most `bound` in all as their callers size them (bytes,
    or the oracle's slots), the oldest value dropped first; a value of more than
    `limit`, a quarter of the bound, is not kept, and a key keeps the value it
    holds.  Hot readers take entries.get and count their own misses; get counts
    hits and misses for the others.  evictions counts the values dropped."""

    def __init__(self, bound: int):
        self.bound, self.limit, self.size, self.entries = bound, bound // 4, 0, {}
        self.order = deque()  # (key, size), oldest first
        self.hits = self.misses = self.evictions = 0

    def get(self, key):
        value = self.entries.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key, size: int, value):
        """value, kept under key if it is small enough and key holds none."""
        if size <= self.limit and key not in self.entries:
            self.entries[key] = value
            self.order.append((key, size))
            self.size += size
            while self.size > self.bound:
                dropped, dropped_size = self.order.popleft()
                del self.entries[dropped]
                self.size -= dropped_size
                self.evictions += 1
        return value


# per entry of a table sized in bytes, besides what it holds: its share of the
# dict and of the order, its (key, size) tuple in the order, and the size.  By
# sys.getsizeof, the dict and the deque take at most 88 bytes an entry, their
# empty bytes included, at every fill of 16 entries or more as a table fills
# (CPython 3.11: 88 at 22 entries, 83 at 43, at most 70 from 86 on); a table
# of more than 100 entries that drops and adds at its bound can hold up to 34
# bytes an entry more, until its dict resizes.
SLOT = 88 + getsizeof((0, 0)) + getsizeof(2**20)
_SHARED = frozenset(map(id, (*range(-5, 257), True, False, None)))


def footprint(*objs) -> int:
    """The bytes of a table entry of key and value objs: SLOT, and what
    sys.getsizeof counts for each of objs and for everything they hold through
    tuples, less CPython's cached small ints and bools (_SHARED), which the
    interpreter holds whether or not a table does.  An object held twice is
    counted twice, so the sum is at least what the entry holds."""
    total, stack = SLOT, list(objs)
    while stack:
        x = stack.pop()
        if id(x) not in _SHARED:
            total += getsizeof(x)
            if type(x) is tuple:
                stack.extend(x)
    return total
