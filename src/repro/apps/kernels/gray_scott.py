"""Gray-Scott reaction–diffusion solver.

The model couples two chemical species U and V:

    du/dt = Du ∇²u − u v² + F (1 − u)
    dv/dt = Dv ∇²v + u v² − (F + k) v

integrated with forward Euler on a periodic grid.  Parameter pairs
(F, k) select the classic pattern families (spots, stripes, mitosis)
the paper's workflow analyses study.  Fully vectorized: the Laplacian is
a sum of `np.roll` views, so no Python-level loops run per step.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_positive

# Named parameter sets producing well-known pattern regimes.
PRESETS: dict[str, tuple[float, float]] = {
    "spots": (0.035, 0.065),
    "stripes": (0.035, 0.060),
    "mitosis": (0.028, 0.062),
    "worms": (0.058, 0.065),
}


class GrayScottSolver:
    """Periodic 2D/3D Gray-Scott integrator."""

    def __init__(
        self,
        shape: tuple[int, ...] = (64, 64),
        du: float = 0.16,
        dv: float = 0.08,
        feed: float = 0.035,
        kill: float = 0.065,
        dt: float = 1.0,
        seed: int = 0,
    ) -> None:
        if len(shape) not in (2, 3):
            raise ValueError(f"shape must be 2D or 3D, got {shape}")
        for n in shape:
            check_positive(n, "grid extent")
        check_positive(dt, "dt")
        self.shape = tuple(int(n) for n in shape)
        self.du, self.dv = float(du), float(dv)
        self.feed, self.kill = float(feed), float(kill)
        self.dt = float(dt)
        self.step_count = 0
        rng = np.random.default_rng(seed)
        self.u = np.ones(self.shape)
        self.v = np.zeros(self.shape)
        self._seed_square(rng)

    @classmethod
    def preset(cls, name: str, shape: tuple[int, ...] = (64, 64), seed: int = 0) -> "GrayScottSolver":
        """Build a solver from a named (F, k) pattern regime."""
        if name not in PRESETS:
            raise ValueError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
        feed, kill = PRESETS[name]
        return cls(shape=shape, feed=feed, kill=kill, seed=seed)

    def _seed_square(self, rng: np.random.Generator) -> None:
        """Perturb a central block so patterns nucleate."""
        slices = tuple(slice(n // 2 - max(1, n // 8), n // 2 + max(1, n // 8)) for n in self.shape)
        self.u[slices] = 0.50
        self.v[slices] = 0.25
        self.u += 0.02 * rng.random(self.shape)
        self.v += 0.02 * rng.random(self.shape)

    @staticmethod
    def _laplacian(field: np.ndarray) -> np.ndarray:
        """Nearest-neighbour periodic Laplacian (sum of rolled views)."""
        out = -2.0 * field.ndim * field
        for axis in range(field.ndim):
            out += np.roll(field, 1, axis=axis)
            out += np.roll(field, -1, axis=axis)
        return out

    def step(self, nsteps: int = 1) -> int:
        """Advance *nsteps* Euler steps; returns the new step count."""
        check_positive(nsteps, "nsteps")
        u, v = self.u, self.v
        for _ in range(int(nsteps)):
            uvv = u * v * v
            u += self.dt * (self.du * self._laplacian(u) - uvv + self.feed * (1.0 - u))
            v += self.dt * (self.dv * self._laplacian(v) + uvv - (self.feed + self.kill) * v)
            self.step_count += 1
        np.clip(u, 0.0, 1.5, out=u)
        np.clip(v, 0.0, 1.5, out=v)
        return self.step_count

    def snapshot(self) -> dict[str, np.ndarray]:
        """Copies of both fields, for analyses / staging."""
        return {"u": self.u.copy(), "v": self.v.copy()}
