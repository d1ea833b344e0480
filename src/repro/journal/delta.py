"""Delta barriers: what changed between two controller states.

A delta is ``[[path, value], ...]``: *path* is the list of dict keys from
the root, *value* replaces whatever sits there.  The diff descends into a
value only while both sides are dicts with the same (string) key set;
anything else — scalar, list, ``None``, a dict whose keys came or went —
is replaced wholesale, so removal and ``null`` need no sentinel.  The
writer keeps only *signatures* of the previous state: bytes cannot alias
live containers, and they tell ``1`` from ``1.0`` from ``True``.

A caller that knows a subtree did not change since the last delta may
*vouch* for its path: the diff keeps that path's old signature and
serialises nothing under it, and the dicts above it are walked into
without being signed.  Identity alone proves nothing — a component may
mutate the object it returned — so vouching is the caller's word, given
by :class:`UnitCache` from a unit's revision.
"""

from __future__ import annotations

import marshal
from typing import Callable

from repro.errors import JournalError


def _signature(value) -> bytes | None:
    """Equal only for values with equal JSON text: marshal format 2 writes
    builtins by type and content alone, no object references, at C speed.
    ``None``: unwritable, so always changed."""
    try:
        return marshal.dumps(value, 2)
    except ValueError:
        return None


def _signed(value):
    """``[signature, {key: signed child}]`` for a dict, else the signature."""
    if type(value) is dict and all(type(key) is str for key in value):
        return [_signature(value), {key: _signed(child) for key, child in value.items()}]
    return _signature(value)


class SignedState:
    """The signatures of one state; ``delta`` moves them on to the next."""

    def __init__(self, state) -> None:
        self._root = {None: _signed(state)}

    def delta(self, state, unchanged=()) -> list:
        """What changed since the last state; each path in *unchanged* (a
        non-empty tuple of keys from the root) is vouched equal to its
        last value."""
        out: list = []
        _diff(self._root, None, state, [], out, _trie(unchanged))
        return out


def _trie(paths) -> dict | None:
    """The vouched paths as nested dicts, ``True`` at each vouched key."""
    trie: dict = {}
    for path in paths:
        node = trie
        for key in path[:-1]:
            node = node.setdefault(key, {})
            if node is True:
                break  # an ancestor is vouched already
        else:
            node[path[-1]] = True
    return trie or None


def _diff(signed: dict, key, value, path: list, out: list, vouched=None) -> None:
    """Bring ``signed[key]`` up to *value*, appending what changed to *out*.
    A dict that changed loses its signature, so the next diff walks straight
    in; it is signed again the first time nothing under it changes.
    *vouched* is the part of the vouched-path trie at *path* (``_trie``)."""
    if vouched is True:
        return  # unchanged by the caller's word: the old signature stands
    node = signed[key]
    if type(node) is list and type(value) is dict and node[1].keys() == value.keys():
        # Signing a dict above a vouched path would serialise that path:
        # walk in unsigned, and keep the old signature if nothing changed.
        if vouched is not None or node[0] is None or node[0] != _signature(value):
            before = len(out)
            for name, child in value.items():
                _diff(node[1], name, child, path + [name], out, vouched and vouched.get(name))
            if len(out) != before:
                node[0] = None
            elif vouched is None:
                node[0] = _signature(value)
    elif node is None or node != _signature(value):
        out.append([path, value])
        signed[key] = _signed(value)


class UnitCache:
    """The last barrier's state of each revisioned unit, by path.

    A unit keeps an int ``revision`` that every change to its journaled
    state bumps.  :meth:`get` hands over the object it built last time
    while the revision has not moved, and records the path for
    ``Journal.barrier`` to vouch for (:meth:`take_unchanged`).  Consult a
    cache only to build barriers, every barrier, and each path for one
    unit: it vouches against the state it handed over last.  An empty
    cache builds everything.
    """

    def __init__(self) -> None:
        self._built: dict[tuple, tuple[object, object]] = {}  # path -> (revision, state)
        self._unchanged: list[tuple] = []

    def get(self, path: tuple, revision, build: Callable[[], object]):
        """The state at *path*: the last one built if *revision* is the
        one it was built at, else ``build()``."""
        hit = self._built.get(path)
        if hit is not None and hit[0] == revision:
            self._unchanged.append(path)
            return hit[1]
        state = build()
        self._built[path] = (revision, state)
        return state

    def take_unchanged(self) -> list[tuple]:
        """The paths vouched since the last call."""
        paths, self._unchanged = self._unchanged, []
        return paths


def state_delta(prev, cur) -> list:
    """The delta that turns *prev* into *cur*; ``[]`` when nothing changed."""
    return SignedState(prev).delta(cur)


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
