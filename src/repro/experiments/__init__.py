"""Canned reproductions of the paper's experiments (§4).

Each scenario module builds the workflow, applies the paper's XML
orchestration specification, runs it on the simulated cluster, and
returns a :class:`ScenarioResult` with the Gantt trace, executed plans,
response times and metric history.  ``repro.experiments.report`` turns
those results into one paper-vs-measured row per claim of §4.
"""

from repro.experiments.results import ScenarioResult
from repro.experiments.gantt import render_gantt
from repro.experiments.xgc_scenario import run_xgc_experiment, XGC_XML
from repro.experiments.grayscott_scenario import run_gray_scott_experiment, GRAY_SCOTT_XML
from repro.experiments.lammps_scenario import run_lammps_experiment, LAMMPS_XML
from repro.experiments.cost_analysis import run_cost_analysis

__all__ = [
    "ScenarioResult",
    "render_gantt",
    "run_xgc_experiment",
    "run_gray_scott_experiment",
    "run_lammps_experiment",
    "run_cost_analysis",
    "XGC_XML",
    "GRAY_SCOTT_XML",
    "LAMMPS_XML",
]
