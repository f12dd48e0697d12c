"""Write-counting chain state: containers and the objects that hold them.

Each container is a plain ``dict``, ``set`` or ``list`` whose reads stay the
inherited C methods. Six mutators are counted, the only ones the chains
call: ``JournalDict.__setitem__`` and ``__delitem__``, ``JournalSet.add``,
and ``JournalList.append``, ``clear`` and ``__setitem__``. Each bumps one
write count shared by all containers. Every other mutator of the three
base types raises ``TypeError``, so no write can slip past the count. A
``Journaled`` object (each chain, settlement record, token ledger and name
registry) bumps the same count on every attribute assignment, so rebinding
a container or changing a scalar counts too. Two reads of ``writes()``
around a stretch of code differ exactly when it wrote chain state. That is
how the scenario runner proves a rejected transaction left no trace, at the
cost of two calls whatever the world holds.

A ``JournalDict`` or ``JournalSet`` also records the key (dict key, set
element) of each write after its one reader, the accountant's shadow book
that mirrors it, last drained it, so the book resyncs only those keys. A
write may record a key it did not change, never the other way round.
Recording starts at the first drain.
"""
from __future__ import annotations

# The shared write count: every write to any journaled container, and every
# attribute assignment on any ``Journaled`` object, of the process so far.
# The simulator runs in one thread, so two reads taken around a stretch of
# code differ exactly when that code wrote one.
_clock = 0


def writes() -> int:
    """The shared write count now."""
    return _clock


class Journaled:
    """Chain state held in attributes: each assignment bumps the shared
    write count, even one that stores the value already there, and so does
    each assignment ``__init__`` makes."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        global _clock
        _clock += 1
        object.__setattr__(self, name, value)


def _refused(name: str):
    def refused(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__}.{name} is not a counted write")

    refused.__name__ = name
    return refused


def _refuse(*names):
    """Class decorator: make each named mutator of the class raise, as a
    write the count would not see."""

    def decorate(cls):
        for name in names:
            setattr(cls, name, _refused(name))
        return cls

    return decorate


class _Keyed:
    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.written: set | None = None

    def drain(self) -> set | None:
        """Return the keys written after the last drain (None before the
        first) and start a new record."""
        keys = self.written
        self.written = set()
        return keys


@_refuse("clear", "pop", "popitem", "setdefault", "update", "__ior__")
class JournalDict(_Keyed, dict):
    __slots__ = ("written",)

    def __setitem__(self, key, value) -> None:
        global _clock
        _clock += 1
        if self.written is not None:
            self.written.add(key)
        dict.__setitem__(self, key, value)

    def __delitem__(self, key) -> None:
        global _clock
        _clock += 1
        if self.written is not None:
            self.written.add(key)
        dict.__delitem__(self, key)


@_refuse(
    "clear", "discard", "pop", "remove", "update", "difference_update", "intersection_update",
    "symmetric_difference_update", "__iand__", "__ior__", "__isub__", "__ixor__",
)
class JournalSet(_Keyed, set):
    __slots__ = ("written",)

    def add(self, key) -> None:
        global _clock
        _clock += 1
        if self.written is not None:
            self.written.add(key)
        set.add(self, key)


@_refuse("__delitem__", "__iadd__", "__imul__", "extend", "insert", "pop", "remove", "reverse", "sort")
class JournalList(list):
    __slots__ = ()

    def append(self, value) -> None:
        global _clock
        _clock += 1
        list.append(self, value)

    def clear(self) -> None:
        global _clock
        _clock += 1
        list.clear(self)

    def __setitem__(self, index, value) -> None:
        global _clock
        _clock += 1
        list.__setitem__(self, index, value)
