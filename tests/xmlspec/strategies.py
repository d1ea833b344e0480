"""Hypothesis strategies derived from the XML field declarations.

:func:`strategy_for` builds valid instances of any spec dataclass from
the same ``repro.util.xmlfield`` metadata the parser, writer and range
checker read, so a new attribute is exercised without touching a test.
"""

from hypothesis import strategies as st

from repro.util.xmlfield import XmlField, xml_fields

names = st.text(alphabet="abcdefgXYZ_", min_size=1, max_size=8)
# Param *string* values must not look numeric (the parser coerces
# numeric-looking strings to int/float) nor spell inf/nan.
safe_text = st.text(alphabet="BCDGHJKLMNPQRSTVWXZ_", min_size=1, max_size=8)


def _scalar(x: XmlField):
    if x.type is bool:
        return st.booleans()
    if x.type is str:
        if x.choices is not None:
            return st.sampled_from(x.choices)
        return st.one_of(st.just(""), names) if x.optional else names
    lo = x.gt if x.gt is not None else x.ge
    hi = x.lt if x.lt is not None else x.le
    if x.type is int:
        lo = -1000 if lo is None else int(lo) + (x.gt is not None)
        hi = lo + 5000 if hi is None else int(hi) - (x.lt is not None)
        return st.integers(lo, hi)
    return st.floats(
        min_value=-1e6 if lo is None else lo,
        max_value=1e6 if hi is None else hi,
        exclude_min=x.gt is not None,
        exclude_max=x.lt is not None,
        allow_nan=False,
    )


def strategy_for(cls):
    """Instances of *cls* with every declared field inside its range."""
    kwargs = {}
    for x in xml_fields(cls):
        if x.element is None:
            value = _scalar(x)
            kwargs[x.attr] = st.one_of(st.none(), value) if x.default is None else value
        elif x.many:
            # Repeated children are identified by their first attribute
            # (slo metric, tenant id, link client): keep it unique.
            key = xml_fields(x.cls)[0].attr
            kwargs[x.attr] = st.lists(
                strategy_for(x.cls), max_size=3, unique_by=lambda o, key=key: getattr(o, key)
            ).map(tuple)
        else:
            kwargs[x.attr] = st.one_of(st.none(), strategy_for(x.cls))
    return st.builds(cls, **kwargs)


def required_attrs(cls) -> dict[str, str]:
    """XML text for the attributes a document must supply for *cls*."""
    return {
        x.name: "x" if x.type is str else "1"
        for x in xml_fields(cls)
        if x.required
    }
