"""Tiny argument-validation helpers with consistent error messages."""

from __future__ import annotations

from collections.abc import Collection
from typing import Any


def check_positive(value: float, name: str) -> None:
    """Raise ``ValueError`` unless ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def check_nonneg(value: float, name: str) -> None:
    """Raise ``ValueError`` unless ``value >= 0``."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def check_in(value: Any, options: Collection[Any], name: str) -> None:
    """Raise ``ValueError`` unless ``value in options``."""
    if value not in options:
        raise ValueError(f"{name} must be one of {sorted(map(str, options))}, got {value!r}")


def find_cycle(edges: dict[str, list[str]]) -> list[str] | None:
    """The first cycle of the graph *edges* (node -> the nodes its edges
    lead to) in sorted depth-first order, as ``[n0, n1, ..., n0]``, or
    None.  Iterative: a chain of any length fits the stack."""
    done: set[str] = set()
    for root in sorted(edges):
        if root in done:
            continue
        path, on_path, stack = [root], {root}, [iter(sorted(edges[root]))]
        while stack:
            node = next(stack[-1], None)
            if node is None:
                stack.pop()
                on_path.discard(path[-1])
                done.add(path.pop())
            elif node in on_path:
                return path[path.index(node):] + [node]
            elif node not in done:
                path.append(node)
                on_path.add(node)
                stack.append(iter(sorted(edges.get(node, ()))))
    return None


def check_type(value: Any, types: type | tuple[type, ...], name: str) -> None:
    """Raise ``TypeError`` unless ``isinstance(value, types)``."""
    if not isinstance(value, types):
        expected = types.__name__ if isinstance(types, type) else "/".join(t.__name__ for t in types)
        raise TypeError(f"{name} must be {expected}, got {type(value).__name__}")
