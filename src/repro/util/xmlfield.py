"""XML-visible dataclass fields, described once.

A spec dataclass marks each field that appears in the DYFLOW XML with
:func:`attr`, :func:`child` or :func:`children`.  The declaration adds
only what the field does not already say: its type and default are the
field's own, its XML name is the field name with ``_`` spelled ``-``
unless *name* overrides it, and *ge*/*gt*/*le*/*lt*/*choices*/*nonempty*
give its range.  Everything that used to restate the attribute list
reads these declarations instead: the reader and writer in
:mod:`repro.xmlspec`, :func:`check_fields` (the single-field half of
every ``validate()``), the hypothesis strategies of the round-trip
tests, and :func:`reference_tables` (the tables in
``docs/xml-reference.md``).

This module imports nothing from the rest of the package, so every
``*/spec.py`` can use it without depending on :mod:`repro.xmlspec`.
"""

from __future__ import annotations

import operator
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import lru_cache
from typing import Any, Callable, Iterator

_SCALARS = {"int": int, "float": float, "bool": bool, "str": str}
_BOUNDS = (
    ("ge", ">=", operator.ge),
    ("gt", ">", operator.gt),
    ("le", "<=", operator.le),
    ("lt", "<", operator.lt),
)


def attr(default: Any = MISSING, **xml: Any) -> Any:
    """A dataclass field that is one XML attribute.

    Keywords are the declaration fields of :class:`XmlField` (*name*,
    *holder*, *required*, *optional*, *upper*, the range).  A ``None``
    value is never written.
    """
    return field(default=default, metadata={"xml": XmlField(**xml)})


def child(element: type | Callable[[], type], name: str | None = None) -> Any:
    """An optional child element parsed into *element* (``None`` if absent).

    *element* may be a zero-argument callable returning the class, for a
    class whose module cannot be imported at declaration time.
    """
    return field(default=None, metadata={"xml": XmlField(name=name, element=element)})


def children(element: type, name: str) -> Any:
    """Repeated ``<name>`` child elements, stored as a tuple of *element*."""
    return field(default=(), metadata={"xml": XmlField(name=name, element=element, many=True)})


@dataclass(frozen=True)
class XmlField:
    """One XML-visible field: what :func:`attr` declares, then resolved.

    A declaration sets only the keyword fields; :func:`xml_fields` fills
    in the first four from the dataclass field it sits on.
    """

    attr: str = ""  # the dataclass field name
    name: str | None = None  # XML attribute name, or child tag; default: attr with _ -> -
    type: type | None = None  # int/float/bool/str for attributes, None for elements
    default: Any = None  # the dataclass default
    required: bool = False  # the document must supply it (always so without a default)
    holder: str | None = None  # child element carrying the attribute (<jsonl path=...>)
    optional: bool = False  # also left out on write when equal to a non-None default
    upper: bool = False  # upper-cased on read
    nonempty: bool = False
    ge: float | None = None
    gt: float | None = None
    le: float | None = None
    lt: float | None = None
    choices: tuple[str, ...] | None = None
    element: type | Callable[[], type] | None = None  # child element(s) parse into this
    many: bool = False  # repeated children, stored as a tuple

    @property
    def cls(self) -> type:
        """The dataclass a child element parses into."""
        return self.element if isinstance(self.element, type) else self.element()

    def violation(self, value: Any) -> str | None:
        """Why *value* is outside the declared range, or ``None``."""
        if self.nonempty and not value:
            return "must be non-empty"
        if self.choices is not None and value not in self.choices:
            return f"must be one of {self.choices}, got {value!r}"
        for key, sign, holds in _BOUNDS:
            bound = getattr(self, key)
            if bound is not None and not holds(value, bound):
                return f"must be {sign} {bound}, got {value!r}"
        return None

    @property
    def range(self) -> str:
        """The declared range in words (empty when unconstrained)."""
        if self.choices is not None:
            return ", ".join(f"`{c}`" for c in self.choices)
        parts = [
            f"{sign} {getattr(self, key)}"
            for key, sign, _ in _BOUNDS
            if getattr(self, key) is not None
        ]
        return ", ".join(parts) or ("non-empty" if self.nonempty else "")


@lru_cache(maxsize=None)
def xml_fields(cls: type) -> tuple[XmlField, ...]:
    """The XML-visible fields of dataclass *cls*, in field order."""
    out = []
    for f in fields(cls):
        decl = f.metadata.get("xml")
        if decl is None:
            continue
        scalar = None
        if decl.element is None:
            annotation = f.type if isinstance(f.type, str) else f.type.__name__
            scalar = _SCALARS[annotation.split("|")[0].strip()]
        out.append(replace(
            decl,
            attr=f.name,
            name=decl.name or f.name.replace("_", "-"),
            type=scalar,
            default=f.default,
            required=decl.required or f.default is MISSING,
        ))
    return tuple(out)


def check_fields(obj: Any, error: type[Exception], label: str) -> None:
    """Raise *error* for the first field of *obj* outside its declared range.

    Child elements are validated through their own ``validate()``.
    Rules relating two fields are not expressible here; they stay as
    ordinary code in the caller's ``validate()``.
    """
    for x in xml_fields(type(obj)):
        value = getattr(obj, x.attr)
        if x.element is not None:
            for part in value if x.many else (value,):
                if part is not None:
                    part.validate()
        elif value is not None:
            problem = x.violation(value)
            if problem is not None:
                raise error(f"{label} {x.name} {problem}")


def elements(cls: type) -> Iterator[tuple[str, type]]:
    """``(tag, dataclass)`` for every element nested below dataclass *cls*."""
    for x in xml_fields(cls):
        if x.element is not None:
            yield x.name, x.cls
            yield from elements(x.cls)


def reference_tables(cls: type) -> dict[str, str]:
    """One markdown table per element below *cls*, keyed by tag.

    These are the ``<!-- BEGIN generated: <tag> -->`` blocks of
    ``docs/xml-reference.md``; a tier-1 test keeps the two in step.
    """
    tables = {}
    for tag, el_cls in elements(cls):
        rows = ["| attribute / child | type | default | range |", "|---|---|---|---|"]
        for x in xml_fields(el_cls):
            if x.element is not None:
                shown, kind = f"`<{x.name}>`", "element"
                default = "repeated" if x.many else "optional"
            else:
                shown = f"`<{x.holder} {x.name}>`" if x.holder else f"`{x.name}`"
                kind = x.type.__name__
                if x.required:
                    default = "required"
                elif x.default is None or (x.optional and x.default == ""):
                    default = "omitted"
                else:
                    default = f"`{str(x.default).lower() if x.type is bool else x.default}`"
            rows.append(f"| {shown} | {kind} | {default} | {x.range} |")
        tables[tag] = "\n".join(rows)
    return tables
