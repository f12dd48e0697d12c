"""Write-counting containers for chain state.

Each container is a plain ``dict``, ``set`` or ``list`` whose mutating
methods also bump one write count shared by all containers; reads stay the
inherited C methods. A ``WriteMarks`` records where a group of containers
stood at one moment (each held by identity) together with plain scalar
fields and the shared count, so comparing two marks tells whether anything
was written or rebound in between without looking at the contents. That is
how the scenario runner proves a rejected transaction left no trace, at a
cost set by the number of containers rather than by what they hold.

A ``JournalDict`` or ``JournalSet`` also records the keys (dict keys, set
elements) written after its one reader, the accountant's shadow book that
mirrors it, last drained it, so the book resyncs only those keys. A write
may record a key it did not change (``clear`` records every key), never the
other way round. Recording starts at the first drain. A ``JournalDict``
subclass can keep an index of its values in step with every write through
``_write`` (runs before the write, with the keys it touches) and ``_wrote``
(runs after).
"""
from __future__ import annotations

from operator import is_

# The shared write count: every write to any journaled container of the
# process so far. The simulator runs in one thread, so two marks taken
# around a stretch of code differ here exactly when that code wrote a
# journaled container.
_clock = 0


def _recording(method, keys_of):
    """A mutator that passes the keys ``keys_of`` names to ``_write`` before
    ``method`` runs and to ``_wrote`` after."""

    def recorded(self, *args, **kwargs):
        keys = keys_of(self, *args)
        self._write(keys)
        try:
            return method(self, *args, **kwargs)
        finally:
            self._wrote(keys)

    recorded.__name__ = method.__name__
    return recorded


def _journaled(**mutators):
    """Class decorator: wrap each named mutator of the class's builtin base
    with ``_recording``, given the function naming the keys it touches."""

    def decorate(cls):
        base = cls.__bases__[-1]
        for name, keys_of in mutators.items():
            setattr(cls, name, _recording(getattr(base, name), keys_of))
        return cls

    return decorate


def _none(box, *_):
    return ()


def _first(box, key, *_):
    return (key,)


def _every(box, *_):
    return tuple(box)


def _other(box, other):
    return other if isinstance(other, (set, frozenset)) else ()


class _Journal:
    __slots__ = ()

    def _write(self, keys) -> None:
        global _clock
        _clock += 1

    def _wrote(self, keys) -> None:
        pass


class _KeyedJournal(_Journal):
    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.written: set | None = None

    def _write(self, keys) -> None:
        global _clock
        _clock += 1
        if self.written is not None:
            self.written.update(keys)

    def drain(self) -> set | None:
        """Return the keys written after the last drain (None before the
        first) and start a new record."""
        keys = self.written
        self.written = set()
        return keys


@_journaled(
    __setitem__=_first,
    __delitem__=_first,
    pop=_first,
    setdefault=_first,
    popitem=lambda box: (next(reversed(box)),) if box else (),
    clear=_every,
)
class JournalDict(_KeyedJournal, dict):
    __slots__ = ("written",)

    def update(self, *args, **kwargs) -> None:
        items = dict(*args, **kwargs)
        self._write(items)
        dict.update(self, items)
        self._wrote(items)

    def __ior__(self, other):
        self.update(other)
        return self


@_journaled(
    add=_first,
    discard=_first,
    remove=_first,
    clear=_every,
    intersection_update=_every,
    __iand__=_every,
    __ior__=_other,
    __isub__=_other,
    __ixor__=_other,
)
class JournalSet(_KeyedJournal, set):
    __slots__ = ("written",)

    def pop(self):
        self._write(())
        key = set.pop(self)
        if self.written is not None:
            self.written.add(key)
        return key

    def update(self, *others) -> None:
        keys = set().union(*others)
        self._write(keys)
        set.update(self, keys)

    def difference_update(self, *others) -> None:
        keys = set().union(*others)
        self._write(keys)
        set.difference_update(self, keys)

    def symmetric_difference_update(self, other) -> None:
        keys = set(other)
        self._write(keys)
        set.symmetric_difference_update(self, keys)


@_journaled(**dict.fromkeys(
    ("__setitem__", "__delitem__", "__iadd__", "__imul__", "append", "clear", "extend", "insert", "pop",
     "remove", "reverse", "sort"),
    _none,
))
class JournalList(_Journal, list):
    __slots__ = ()


class WriteMarks:
    """Containers held by identity and scalar fields compared by value, with
    the shared write count. Two marks are equal only if no journaled
    container was written in between (these or any other), the same
    containers were seen in the same order, and every scalar is unchanged.
    Taking a mark reads no container, only the fields that hold them."""

    __slots__ = ("_boxes", "_clock", "_scalars")

    def __init__(self, boxes: list, scalars: list) -> None:
        self._boxes = boxes
        self._clock = _clock
        self._scalars = scalars

    def __eq__(self, other) -> bool:
        if not isinstance(other, WriteMarks):
            return NotImplemented
        return (
            self._clock == other._clock
            and self._scalars == other._scalars
            and len(self._boxes) == len(other._boxes)
            and all(map(is_, self._boxes, other._boxes))
        )

