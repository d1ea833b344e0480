"""Parse DYFLOW XML specifications (the format of Figs. 3–5, 7, 10)."""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import MISSING
from typing import Any

from repro.core.actions import ActionType
from repro.core.policy import PolicyApplication, PolicySpec
from repro.core.sensors.base import GroupBySpec, JoinSpec, SensorSpec
from repro.errors import XmlSpecError
from repro.util.xmlfield import xml_fields
from repro.wms.spec import CouplingType, DependencySpec
from repro.xmlspec.model import DyflowSpec, MonitorTaskSpec, RuleSpec


def parse_dyflow_xml(
    text: str, *, validate: bool = True, strict: bool = False
) -> DyflowSpec:
    """Parse an XML document into a validated :class:`DyflowSpec`.

    The root may be ``<dyflow>`` wrapping the three stage sections, or a
    single stage section on its own (the paper's figures show fragments).

    ``validate=False`` skips cross-reference validation entirely (used
    by the linter, which reports fine-grained diagnostics instead of
    stopping at the first defect).  ``strict=True`` additionally rejects
    rules whose task references name nothing the document monitors or
    acts on (see :meth:`DyflowSpec.validate`).
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as err:
        raise XmlSpecError(f"malformed XML: {err}") from err
    spec = DyflowSpec()
    stages = {
        "monitor": _parse_monitor,
        "decision": _parse_decision,
        "arbitration": _parse_arbitration,
    }
    # The configuration sections are the child elements DyflowSpec declares.
    config = {x.name: x for x in xml_fields(DyflowSpec)}
    if root.tag != "dyflow" and root.tag not in stages and root.tag not in config:
        raise XmlSpecError(f"unexpected root element <{root.tag}>")
    for section in root if root.tag == "dyflow" else [root]:
        if section.tag in stages:
            stages[section.tag](section, spec)
        elif section.tag in config:
            x = config[section.tag]
            if getattr(spec, x.attr) is not None:
                raise XmlSpecError(f"duplicate <{section.tag}> section")
            setattr(spec, x.attr, _read_element(section, x.cls))
        else:
            raise XmlSpecError(f"unexpected section <{section.tag}>")
    if validate:
        spec.validate(strict=strict)
    return spec


# --------------------------------------------------------------------------- #
# the typed attribute reader (every element goes through it)
# --------------------------------------------------------------------------- #
def _convert(el: ET.Element, name: str, raw: str, typ: type) -> Any:
    if typ is bool:
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise XmlSpecError(f"<{el.tag}> attribute {name!r}: not a boolean: {raw!r}")
    try:
        return typ(raw)
    except ValueError:
        kind = "an integer" if typ is int else "a number"
        raise XmlSpecError(f"<{el.tag}> attribute {name!r}: not {kind}: {raw!r}") from None


_Decl = dict[str, tuple[type, Any]]  # attribute name -> (type, default)


def _read(el: ET.Element, decl: _Decl) -> list[Any]:
    """The typed values of the attributes *decl* declares, in its order.

    Any other attribute is rejected; a ``MISSING`` default makes the
    attribute required.
    """
    attrib = el.attrib
    for name in attrib:
        if name not in decl:
            raise XmlSpecError(
                f"unexpected <{el.tag}> attribute {name!r} (known: {sorted(decl)})"
            )
    out = []
    for name, (typ, default) in decl.items():
        raw = attrib.get(name)
        if raw is not None:
            out.append(raw if typ is str else _convert(el, name, raw, typ))
        elif default is MISSING:
            raise XmlSpecError(f"<{el.tag}> missing required attribute {name!r}")
        else:
            out.append(default)
    return out


def _decl(**attrs: Any) -> _Decl:
    """Declare a hand-written element's attributes for :func:`_read`.

    Each keyword names an attribute (``_`` spells ``-``) and gives its
    type when required, or ``(type, default)``.
    """
    return {
        key.replace("_", "-"): want if isinstance(want, tuple) else (want, MISSING)
        for key, want in attrs.items()
    }


def _read_element(el: ET.Element, cls: type) -> Any:
    """Build dataclass *cls* from *el* as its field declarations describe."""
    groups: dict[str | None, list] = {None: []}  # holder tag (None: *el*) -> attributes
    nested = {}
    for x in xml_fields(cls):
        if x.element is not None:
            nested[x.name] = x
        else:
            groups.setdefault(x.holder, []).append(x)
    for sub in el:
        if sub.tag not in nested and sub.tag not in groups:
            raise XmlSpecError(f"unexpected <{el.tag}> child <{sub.tag}>")
    kwargs = {}
    for tag, group in groups.items():
        holder = el if tag is None else el.find(tag)
        if holder is None:
            continue
        values = _read(
            holder, {x.name: (x.type, MISSING if x.required else x.default) for x in group}
        )
        if tag is not None and all(v is None for v in values):
            raise XmlSpecError(f"<{tag}> needs " + " and/or ".join(x.name for x in group))
        for x, value in zip(group, values):
            kwargs[x.attr] = value.upper() if x.upper else value
    for tag, x in nested.items():
        parts = tuple(_read_element(sub, x.cls) for sub in el.findall(tag))
        if x.many:
            kwargs[x.attr] = parts
        elif parts:
            kwargs[x.attr] = parts[0]
    return cls(**kwargs)


_PARAM = _decl(key=str, value=(str, ""))


def _parse_params(parent: ET.Element, tag: str = "param") -> dict[str, Any]:
    out: dict[str, Any] = {}
    for p in parent.iter(tag):
        key, value = _read(p, _PARAM)
        out[key] = _coerce(value)
    return out


def _coerce(value: str) -> Any:
    """Parameter values: int if possible, then float, else string."""
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def _text(el: ET.Element) -> str:
    return (el.text or "").strip()


# --------------------------------------------------------------------------- #
# monitor section
# --------------------------------------------------------------------------- #
_SENSOR = _decl(id=str, type=str)
_GROUP = _decl(granularity=str, reduction_operation=(str, "MAX"))
_PREPROCESS = _decl(operation=(str, None))
_JOIN = _decl(sensor_id=str, operation=(str, "DIV"))
_MONITOR_TASK = _decl(name=str, workflowId=str, info_source=(str, None))
_BINDING = _decl(sensor_id=str, info=(str, None))


def _parse_monitor(section: ET.Element, spec: DyflowSpec) -> None:
    sensors = section.find("sensors")
    if sensors is not None:
        for s in sensors.findall("sensor"):
            sensor = _parse_sensor(s)
            if sensor.sensor_id in spec.sensors:
                raise XmlSpecError(f"duplicate sensor id {sensor.sensor_id!r}")
            spec.sensors[sensor.sensor_id] = sensor
    tasks = section.find("monitor-tasks")
    if tasks is not None:
        for mt in tasks.findall("monitor-task"):
            task, workflow_id, info_source = _read(mt, _MONITOR_TASK)
            for use in mt.findall("use-sensor"):
                sensor_id, info = _read(use, _BINDING)
                spec.monitor_tasks.append(
                    MonitorTaskSpec(
                        task=task,
                        workflow_id=workflow_id,
                        sensor_id=sensor_id,
                        info_source=info_source,
                        info=info,
                        params=_parse_params(use, "parameter"),
                    )
                )


def _parse_sensor(el: ET.Element) -> SensorSpec:
    sensor_id, source_type = _read(el, _SENSOR)
    group_by: list[GroupBySpec] = []
    gb = el.find("group-by")
    if gb is not None:
        for g in gb.findall("group"):
            group_by.append(GroupBySpec(*_read(g, _GROUP)))
    if not group_by:
        group_by = [GroupBySpec("task", "MAX")]
    pre = el.find("preprocess")
    (preprocess,) = _read(pre, _PREPROCESS) if pre is not None else (None,)
    join_el = el.find("join")
    join = JoinSpec(*_read(join_el, _JOIN)) if join_el is not None else None
    return SensorSpec(
        sensor_id=sensor_id,
        source_type=source_type,
        group_by=tuple(group_by),
        preprocess=preprocess,
        join=join,
    )


# --------------------------------------------------------------------------- #
# decision section
# --------------------------------------------------------------------------- #
_WORKFLOW = _decl(workflowId=str)
_APPLY_POLICY = _decl(policyId=str, assess_task=(str, ""))
_POLICY = _decl(id=str)
_EVAL = _decl(operation=str, threshold=float)
_USE_SENSOR = _decl(id=str, granularity=(str, "task"))
_HISTORY = _decl(window=(int, 1), operation=(str, "AVG"))
_FREQUENCY = _decl(seconds=(float, None))


def _parse_decision(section: ET.Element, spec: DyflowSpec) -> None:
    policies = section.find("policies")
    if policies is not None:
        for p in policies.findall("policy"):
            policy = _parse_policy(p)
            if policy.policy_id in spec.policies:
                raise XmlSpecError(f"duplicate policy id {policy.policy_id!r}")
            spec.policies[policy.policy_id] = policy
    for apply_on in section.findall("apply-on"):
        (workflow_id,) = _read(apply_on, _WORKFLOW)
        for ap in apply_on.findall("apply-policy"):
            act_el = ap.find("act-on-tasks")
            if act_el is None or not _text(act_el):
                raise XmlSpecError("apply-policy needs <act-on-tasks>")
            targets = tuple(_text(act_el).split())
            params_el = ap.find("action-params")
            params = _parse_params(params_el) if params_el is not None else {}
            policy_id, assess_task = _read(ap, _APPLY_POLICY)
            spec.applications.append(
                PolicyApplication(
                    policy_id=policy_id,
                    workflow_id=workflow_id,
                    act_on_tasks=targets,
                    assess_task=assess_task,
                    action_params=params,
                )
            )


def _parse_policy(el: ET.Element) -> PolicySpec:
    (policy_id,) = _read(el, _POLICY)
    eval_el = el.find("eval")
    if eval_el is None:
        raise XmlSpecError(f"policy {policy_id!r} missing <eval>")
    use = el.find("sensors-to-use/use-sensor")
    if use is None:
        raise XmlSpecError(f"policy {policy_id!r} missing <sensors-to-use><use-sensor>")
    action_el = el.find("action")
    if action_el is None or not _text(action_el):
        raise XmlSpecError(f"policy {policy_id!r} missing <action>")
    action_name = _text(action_el).upper()
    try:
        action = ActionType(action_name)
    except ValueError:
        raise XmlSpecError(
            f"policy {policy_id!r}: unknown action {action_name!r}"
        ) from None
    history_el = el.find("history")
    if history_el is None:
        history_el = ET.Element("history")  # absent reads as empty: the defaults
    history_window, history_op = _read(history_el, _HISTORY)
    freq_el = el.find("frequency")
    frequency = 5.0
    if freq_el is not None:
        (frequency,) = _read(freq_el, _FREQUENCY)
        if frequency is None:
            # Tolerate the paper's Fig. 10 typo: <frequency> seconds="5" </frequency>
            body = _text(freq_el)
            if "seconds=" not in body:
                raise XmlSpecError(f"policy {policy_id!r}: <frequency> needs seconds")
            raw = body.split("seconds=")[1].strip().strip('"')
            frequency = _convert(freq_el, "seconds", raw, float)
    sensor_id, granularity = _read(use, _USE_SENSOR)
    eval_op, threshold = _read(eval_el, _EVAL)
    return PolicySpec(
        policy_id=policy_id,
        sensor_id=sensor_id,
        granularity=granularity,
        eval_op=eval_op,
        threshold=threshold,
        action=action,
        history_window=history_window,
        history_op=history_op,
        frequency=frequency,
    )


# --------------------------------------------------------------------------- #
# arbitration section
# --------------------------------------------------------------------------- #
_PRIORITY = _decl(name=str, priority=int)
_TASK_DEPENDENCIES = _decl(workflowId=(str, None))
_TASK_DEP = _decl(name=str, type=(str, "TIGHT"), parent=str)


def _parse_arbitration(section: ET.Element, spec: DyflowSpec) -> None:
    rules = section.find("rules")
    if rules is None:
        return
    for rule_for in rules.findall("rule-for"):
        (workflow_id,) = _read(rule_for, _WORKFLOW)
        rule = spec.rules.setdefault(workflow_id, RuleSpec(workflow_id=workflow_id))
        for tp in rule_for.iter("task-priority"):
            name, priority = _read(tp, _PRIORITY)
            rule.task_priorities[name] = priority
        for pp in rule_for.iter("policy-priority"):
            name, priority = _read(pp, _PRIORITY)
            rule.policy_priorities[name] = priority
        for deps in rule_for.iter("task-dependencies"):
            _read(deps, _TASK_DEPENDENCIES)  # the writer repeats workflowId here
        for dep in rule_for.iter("task-dep"):
            task, type_name, parent = _read(dep, _TASK_DEP)
            try:
                coupling = CouplingType[type_name.upper()]
            except KeyError:
                raise XmlSpecError(f"unknown dependency type {type_name.upper()!r}") from None
            rule.dependencies.append(DependencySpec(task=task, parent=parent, type=coupling))
