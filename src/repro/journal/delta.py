"""Delta barriers: what changed between two controller states.

A delta is ``[[path, value], ...]``: *path* is the list of dict keys from
the root, *value* replaces whatever sits there.  The diff descends into a
value only while both sides are dicts with the same (string) key set;
anything else — scalar, list, ``None``, a dict whose keys came or went —
is replaced wholesale, so removal and ``null`` need no sentinel.  The
writer keeps only *signatures* of the previous state: bytes cannot alias
live containers, and they tell ``1`` from ``1.0`` from ``True``.
"""

from __future__ import annotations

import marshal

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

    def delta(self, state) -> list:
        out: list = []
        _diff(self._root, None, state, [], out)
        return out


def _diff(signed: dict, key, value, path: list, out: list) -> None:
    """Bring ``signed[key]`` up to *value*, appending what changed to *out*.
    A dict that changed loses its signature, so the next diff walks straight
    in; it is signed again the first time nothing under it changes."""
    node = signed[key]
    if type(node) is list and type(value) is dict and node[1].keys() == value.keys():
        if node[0] is None or node[0] != _signature(value):
            before = len(out)
            for name, child in value.items():
                _diff(node[1], name, child, path + [name], out)
            node[0] = _signature(value) if len(out) == before else None
    elif node is None or node != _signature(value):
        out.append([path, value])
        signed[key] = _signed(value)


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
