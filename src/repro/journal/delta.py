"""Delta barriers: what changed between two controller states.

A delta is ``[[path, value], ...]``: *path* is the list of dict keys from
the root, *value* replaces whatever sits there.  A writer learns what
changed from *revisioned units* (:class:`UnitCache`): each unit keeps a
``revision`` that every change to its state moves, and a delta is each
unit whose revision moved, written whole at its path.  Nothing is
compared or serialised to find out; a unit that did not move is not even
built.  ``apply_delta`` folds it.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import JournalError


class UnitCache:
    """The last state built for each revisioned unit, by path.

    A unit keeps a ``revision`` that every change to its journaled state
    moves.  :meth:`update` rebuilds a unit only when its revision is not
    the one it was last built at, and marks its path as moved; a barrier
    writes the moved units (:meth:`take_moved`) or, when it has no base,
    the whole state assembled from the last builds (:meth:`state`).
    Consult a cache only to build barriers, every barrier, each path once
    a barrier; the set of paths is fixed by the first.  An empty cache
    builds everything.
    """

    def __init__(self) -> None:
        self._built: dict[tuple, tuple[object, object]] = {}  # path -> (revision, state)
        self._moved: list[tuple] = []

    def update(self, path: tuple, revision, build: Callable[[], object]) -> None:
        """Keep the state at *path* if it was built at *revision*, else
        ``build()`` it and mark *path* moved."""
        hit = self._built.get(path)
        if hit is None or hit[0] != revision:
            self._built[path] = (revision, build())
            self._moved.append(path)

    @property
    def moved(self) -> tuple:
        """The paths rebuilt since the last :meth:`take_moved`, in build order."""
        return tuple(self._moved)

    def take_moved(self) -> list:
        """The delta since the last call: ``[path, state]`` for each unit
        rebuilt since, in build order."""
        moved, self._moved = self._moved, []
        built = self._built
        return [[list(path), built[path][1]] for path in moved]

    def state(self) -> dict:
        """The whole state, each unit's last build nested at its path."""
        root: dict = {}
        for path, (_revision, state) in self._built.items():
            node = root
            for key in path[:-1]:
                node = node.setdefault(key, {})
            node[path[-1]] = state
        return root


def apply_delta(state, delta: list):
    """*state* with *delta* applied: the dicts along each path are copied,
    the rest shared, *state* never mutated."""
    for path, value in delta:
        state = _replace(state, path, value)
    return state


def _replace(node, path: list, value):
    if not path:
        return value
    if type(node) is not dict or path[0] not in node:
        raise JournalError(f"barrier delta names {path!r}, absent from its base: wrong base")
    return {**node, path[0]: _replace(node[path[0]], path[1:], value)}
