"""Write-counting containers for chain state.

Each container is a plain ``dict``, ``set`` or ``list`` whose mutating
methods also bump a per-container ``writes`` counter; reads stay the
inherited C methods. A ``WriteMarks`` records where a group of containers
stood at one moment (each held by identity, with its counter) together
with plain scalar fields, so comparing two marks tells whether anything was
written or rebound in between without looking at the contents. That is how
the scenario runner proves a rejected transaction left no trace, at a cost
set by the number of containers rather than by what they hold.

A ``JournalDict`` or ``JournalSet`` also records which keys (dict keys, set
elements) its writes touched since a reader last drained it, so a reader
that mirrors the container (the accountant's shadow books) resyncs only
those keys. A write may record a key it did not change (``clear`` records
every key), never the other way round. Recording starts at the first
drain: until a reader has mirrored the container once, no reader needs it.
A ``JournalDict`` subclass can keep an index of its values in step with
every write through ``_write`` (runs before the write, with the keys it
touches) and ``_wrote`` (runs after).
"""
from __future__ import annotations


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

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.writes = 0

    def _write(self, keys) -> None:
        self.writes += 1

    def _wrote(self, keys) -> None:
        pass


class _KeyedJournal(_Journal):
    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.written: set | None = None
        self.drained_at = 0

    def _write(self, keys) -> None:
        self.writes += 1
        if self.written is not None:
            self.written.update(keys)

    def drain(self, since: int | None) -> set | None:
        """Start a new record of written keys. Return the old record if it
        began when the container stood at ``since`` writes, else None (this
        is the first drain, a different reader drained in between, or
        ``since`` is None)."""
        keys = self.written if since is not None and since == self.drained_at else None
        self.written = set()
        self.drained_at = self.writes
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
    __slots__ = ("writes", "written", "drained_at")

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
    __slots__ = ("writes", "written", "drained_at")

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
    __slots__ = ("writes",)


class WriteMarks:
    """Containers held by identity with their write counts, plus scalar
    fields compared by value. Two marks are equal only if the same
    containers were seen, none of them was written in between, and every
    scalar is unchanged."""

    __slots__ = ("_boxes", "_writes", "_scalars")

    def __init__(self, boxes: list, scalars: tuple) -> None:
        self._boxes = boxes
        self._writes = [box.writes for box in boxes]
        self._scalars = scalars

    def __eq__(self, other) -> bool:
        if not isinstance(other, WriteMarks):
            return NotImplemented
        return (
            self._writes == other._writes
            and self._scalars == other._scalars
            and len(self._boxes) == len(other._boxes)
            and all(a is b for a, b in zip(self._boxes, other._boxes))
        )
