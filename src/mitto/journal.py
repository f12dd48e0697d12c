"""Write-counting containers for chain state.

Each container is a plain ``dict``, ``set`` or ``list`` whose mutating
methods also bump a per-container ``writes`` counter; reads stay the
inherited C methods. A ``WriteMarks`` records where a group of containers
stood at one moment (each held by identity, with its counter) together
with plain scalar fields, so comparing two marks tells whether anything was
written or rebound in between without looking at the contents. That is how
the scenario runner proves a rejected transaction left no trace, at a cost
set by the number of containers rather than by what they hold.
"""
from __future__ import annotations


def _counting(method):
    def counted(self, *args, **kwargs):
        self.writes += 1
        return method(self, *args, **kwargs)

    counted.__name__ = method.__name__
    return counted


def _journaled(*mutators: str):
    """Class decorator: replace each named mutator of the class's builtin
    base with one that bumps ``writes`` before it runs."""

    def decorate(cls):
        base = cls.__bases__[-1]
        for name in mutators:
            setattr(cls, name, _counting(getattr(base, name)))
        return cls

    return decorate


class _Journal:
    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.writes = 0


@_journaled("__setitem__", "__delitem__", "__ior__", "clear", "pop", "popitem", "setdefault", "update")
class JournalDict(_Journal, dict):
    __slots__ = ("writes",)


@_journaled(
    "__iand__", "__ior__", "__isub__", "__ixor__", "add", "clear", "discard", "pop", "remove", "update",
    "difference_update", "intersection_update", "symmetric_difference_update",
)
class JournalSet(_Journal, set):
    __slots__ = ("writes",)


@_journaled(
    "__setitem__", "__delitem__", "__iadd__", "__imul__", "append", "clear", "extend", "insert", "pop",
    "remove", "reverse", "sort",
)
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
