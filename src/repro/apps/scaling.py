"""Step-time models: how long one application step takes on n cores.

The paper's dynamic events hinge on how task pace responds to resource
changes, so the models here are the calibration surface of the whole
reproduction.  All times are *Summit-reference* seconds; the runtime
divides by the machine's ``speed_factor``, making Deepthought2 runs
proportionally slower exactly as §4.1's hardware difference implies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import check_nonneg, check_positive


class StepTimeModel:
    """Base class: per-step duration as a function of process count."""

    def nominal(self, nprocs: int, step: int) -> float:
        """Noise-free step time on the reference machine."""
        raise NotImplementedError

    def sample(self, nprocs: int, step: int, rng: np.random.Generator | None, noise_cv: float = 0.0) -> float:
        """Step time with multiplicative lognormal-ish noise of CV *noise_cv*."""
        t = self.nominal(nprocs, step)
        if rng is not None and noise_cv > 0:
            t *= float(max(0.05, 1.0 + rng.normal(0.0, noise_cv)))
        return t


@dataclass(frozen=True)
class ConstantModel(StepTimeModel):
    """Fixed step time regardless of process count."""

    time: float

    def __post_init__(self) -> None:
        check_positive(self.time, "time")

    def nominal(self, nprocs: int, step: int) -> float:
        return self.time


@dataclass(frozen=True)
class AmdahlModel(StepTimeModel):
    """``t(n) = serial + parallel / n`` — classic strong scaling.

    This is the right shape for the Gray-Scott analyses: e.g. Isosurface
    calibrated with ``serial=18, parallel=440`` gives 40 s at 20 procs,
    29 s at 40, 25.3 s at 60 — reproducing the §4.4 pace trajectory.
    """

    serial: float
    parallel: float

    def __post_init__(self) -> None:
        check_nonneg(self.serial, "serial")
        check_nonneg(self.parallel, "parallel")
        if self.serial == 0 and self.parallel == 0:
            raise ValueError("AmdahlModel needs serial or parallel work")

    def nominal(self, nprocs: int, step: int) -> float:
        check_positive(nprocs, "nprocs")
        return self.serial + self.parallel / nprocs


@dataclass(frozen=True)
class RampModel(StepTimeModel):
    """Amdahl scaling whose work grows linearly with the step index.

    Models data-dependent analyses ("Isosurface and Rendering compute …
    can change in computational complexity based on the data", §4.2):
    ``t(n, s) = (serial + parallel/n) * (1 + growth * s)``.  The
    predictive-arbitration extension (§6) is evaluated against exactly
    this kind of drift.
    """

    serial: float
    parallel: float
    growth: float = 0.01

    def __post_init__(self) -> None:
        check_nonneg(self.serial, "serial")
        check_nonneg(self.parallel, "parallel")
        check_nonneg(self.growth, "growth")
        if self.serial == 0 and self.parallel == 0:
            raise ValueError("RampModel needs serial or parallel work")

    def nominal(self, nprocs: int, step: int) -> float:
        check_positive(nprocs, "nprocs")
        return (self.serial + self.parallel / nprocs) * (1.0 + self.growth * max(0, step))


@dataclass(frozen=True)
class PowerLawModel(StepTimeModel):
    """``t(n) = base * (ref_procs / n) ** alpha`` — sub/superlinear scaling.

    ``alpha < 1`` models codes with growing communication overhead
    (particle codes like XGC); ``alpha = 1`` is ideal scaling.
    """

    base: float
    ref_procs: int
    alpha: float = 1.0

    def __post_init__(self) -> None:
        check_positive(self.base, "base")
        check_positive(self.ref_procs, "ref_procs")
        check_positive(self.alpha, "alpha")

    def nominal(self, nprocs: int, step: int) -> float:
        check_positive(nprocs, "nprocs")
        return self.base * (self.ref_procs / nprocs) ** self.alpha
