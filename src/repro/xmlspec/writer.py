"""Emit DYFLOW XML from a :class:`DyflowSpec` (round-trips with the parser)."""

from __future__ import annotations

import xml.etree.ElementTree as ET
from xml.dom import minidom

from repro.util.xmlfield import xml_fields
from repro.xmlspec.model import DyflowSpec


def write_dyflow_xml(spec: DyflowSpec) -> str:
    """Serialize *spec* into an indented ``<dyflow>`` document."""
    root = ET.Element("dyflow")
    _write_monitor(root, spec)
    _write_decision(root, spec)
    _write_arbitration(root, spec)
    _write_fields(root, spec)  # the configuration sections DyflowSpec declares
    raw = ET.tostring(root, encoding="unicode")
    return minidom.parseString(raw).toprettyxml(indent="  ")


def _write_monitor(root: ET.Element, spec: DyflowSpec) -> None:
    if not spec.sensors and not spec.monitor_tasks:
        return  # a fix pass may have emptied the section; omit it
    monitor = ET.SubElement(root, "monitor")
    sensors = ET.SubElement(monitor, "sensors")
    for sensor in spec.sensors.values():
        s = ET.SubElement(sensors, "sensor", id=sensor.sensor_id, type=sensor.source_type)
        if sensor.preprocess:
            ET.SubElement(s, "preprocess", operation=sensor.preprocess)
        gb = ET.SubElement(s, "group-by")
        for g in sensor.group_by:
            ET.SubElement(
                gb, "group",
                attrib={"granularity": g.granularity, "reduction-operation": g.reduction},
            )
        if sensor.join is not None:
            ET.SubElement(
                s, "join",
                attrib={"sensor-id": sensor.join.other_sensor_id, "operation": sensor.join.operation},
            )
    tasks = ET.SubElement(monitor, "monitor-tasks")
    # One <monitor-task> per (task, workflow, info-source) grouping.
    grouped: dict[tuple, list] = {}
    for mt in spec.monitor_tasks:
        grouped.setdefault((mt.task, mt.workflow_id, mt.info_source), []).append(mt)
    for (task, workflow_id, info_source), uses in grouped.items():
        attrib = {"name": task, "workflowId": workflow_id}
        if info_source:
            attrib["info-source"] = info_source
        mt_el = ET.SubElement(tasks, "monitor-task", attrib=attrib)
        for mt in uses:
            attrib = {"sensor-id": mt.sensor_id}
            if mt.info:
                attrib["info"] = mt.info
            use = ET.SubElement(mt_el, "use-sensor", attrib=attrib)
            for key, value in mt.params.items():
                ET.SubElement(use, "parameter", key=key, value=str(value))


def _write_decision(root: ET.Element, spec: DyflowSpec) -> None:
    if not spec.policies and not spec.applications:
        return
    decision = ET.SubElement(root, "decision")
    policies = ET.SubElement(decision, "policies")
    for p in spec.policies.values():
        pe = ET.SubElement(policies, "policy", id=p.policy_id)
        ET.SubElement(pe, "eval", operation=p.eval_op, threshold=repr(p.threshold))
        stu = ET.SubElement(pe, "sensors-to-use")
        ET.SubElement(stu, "use-sensor", id=p.sensor_id, granularity=p.granularity)
        action = ET.SubElement(pe, "action")
        action.text = f" {p.action.value} "
        if p.history_window > 1:
            ET.SubElement(pe, "history", window=str(p.history_window), operation=p.history_op)
        ET.SubElement(pe, "frequency", seconds=repr(p.frequency))
    by_workflow: dict[str, list] = {}
    for app in spec.applications:
        by_workflow.setdefault(app.workflow_id, []).append(app)
    for workflow_id, apps in by_workflow.items():
        ao = ET.SubElement(decision, "apply-on", workflowId=workflow_id)
        for app in apps:
            attrib = {"policyId": app.policy_id}
            if app.assess_task:
                attrib["assess-task"] = app.assess_task
            ap = ET.SubElement(ao, "apply-policy", attrib=attrib)
            act = ET.SubElement(ap, "act-on-tasks")
            act.text = " ".join(app.act_on_tasks)
            if app.action_params:
                params = ET.SubElement(ap, "action-params")
                for key, value in app.action_params.items():
                    ET.SubElement(params, "param", key=key, value=str(value))


def _write_arbitration(root: ET.Element, spec: DyflowSpec) -> None:
    if not spec.rules:
        return
    arbitration = ET.SubElement(root, "arbitration")
    rules = ET.SubElement(arbitration, "rules")
    for rule in spec.rules.values():
        rf = ET.SubElement(rules, "rule-for", workflowId=rule.workflow_id)
        if rule.task_priorities:
            tp = ET.SubElement(rf, "task-priorities")
            for name, pri in rule.task_priorities.items():
                ET.SubElement(tp, "task-priority", name=name, priority=str(pri))
        if rule.policy_priorities:
            pp = ET.SubElement(rf, "policy-priorities")
            for name, pri in rule.policy_priorities.items():
                ET.SubElement(pp, "policy-priority", name=name, priority=str(pri))
        if rule.dependencies:
            td = ET.SubElement(rf, "task-dependencies", workflowId=rule.workflow_id)
            for dep in rule.dependencies:
                ET.SubElement(
                    td, "task-dep", name=dep.task, type=dep.type.name, parent=dep.parent
                )


def _write_fields(el: ET.Element, obj: object) -> None:
    """Emit every XML-visible field of *obj* onto *el*, in field order."""
    for x in xml_fields(type(obj)):
        value = getattr(obj, x.attr)
        if x.element is not None:
            for part in value if x.many else (value,):
                if part is not None:
                    _write_fields(ET.SubElement(el, x.name), part)
        elif value is not None and not (x.optional and value == x.default):
            target = el
            if x.holder is not None:
                target = el.find(x.holder)
                if target is None:
                    target = ET.SubElement(el, x.holder)
            text = ("true" if value else "false") if x.type is bool else str(value)
            target.set(x.name, text)
