"""Application models: the scientific codes the paper's workflows run.

The evaluation uses three workflows — XGC1–XGCa fusion coupling,
Gray-Scott reaction–diffusion with four analyses, and LAMMPS molecular
dynamics with three analyses.  This package provides both:

* **Behaviour models** for the discrete-event simulator — every task is an
  :class:`IterativeApp` with a calibrated step-time model, periodic
  output, optional checkpointing, profiler emission, tight/loose coupling
  and graceful-termination semantics.  These drive the paper-scale
  benchmark reproductions.
* **Real numerical kernels** (`repro.apps.kernels`) — a NumPy Gray-Scott
  solver, FFT/PDF/isosurface/render analyses, and a Lennard-Jones MD
  mini-simulator with RDF/CNA/centro-symmetry analyses.  These power the
  live examples and calibrate the step-time models.
"""

from repro.apps.base import AppExit, IterativeApp, TaskContext
from repro.apps.coupling import CouplingRegistry
from repro.apps.scaling import (
    AmdahlModel,
    ConstantModel,
    PowerLawModel,
    RampModel,
    StepTimeModel,
)

__all__ = [
    "TaskContext",
    "IterativeApp",
    "AppExit",
    "CouplingRegistry",
    "StepTimeModel",
    "AmdahlModel",
    "ConstantModel",
    "PowerLawModel",
    "RampModel",
]
