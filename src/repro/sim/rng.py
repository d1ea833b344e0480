"""Named, seeded random streams.

Every stochastic component (step-time noise, failure injection, workload
generators) draws from its own named stream derived from a single root
seed, so adding a new consumer never perturbs existing ones and whole
experiments replay bit-identically.
"""

from __future__ import annotations

import hashlib

import numpy as np


class RngRegistry:
    """Factory of independent :class:`numpy.random.Generator` streams."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}
        # Streams drawn only through random(): name -> draws so far.  A
        # stream handed out by stream() is never in here.
        self._draws: dict[str, int] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for *name*, creating it deterministically.

        The per-stream seed is derived by hashing ``(root_seed, name)`` so
        stream identity depends only on the name, not creation order.  A
        stream handed out here is journaled as its full generator state.
        """
        self._draws.pop(name, None)
        gen = self._streams.get(name)
        if gen is None:
            gen = self._streams[name] = np.random.Generator(_bit_generator(self._seed, name))
        return gen

    def random(self, name: str) -> float:
        """One uniform draw in [0, 1) from stream *name*.

        A stream drawn only through here is journaled as its draw count.
        """
        gen = self._streams.get(name)
        if gen is None:
            gen = self._streams[name] = np.random.Generator(_bit_generator(self._seed, name))
            self._draws[name] = 0
        if name in self._draws:  # else handed out by stream(): not countable
            self._draws[name] += 1
        return float(gen.random())

    def fork(self, name: str) -> "RngRegistry":
        """A child registry whose root seed is derived from *name*."""
        digest = hashlib.sha256(f"{self._seed}:fork:{name}".encode()).digest()
        return RngRegistry(int.from_bytes(digest[:8], "little"))

    # -- crash recovery -----------------------------------------------------
    def state_dict(self, names: list[str] | None = None) -> dict:
        """JSON-serializable positions of (a subset of) the named streams:
        ``draws`` counts each stream drawn only through :meth:`random`,
        ``streams`` holds the generator state of each handed-out one."""
        if names is None:
            names = sorted(self._streams)
        state: dict = {
            "seed": self._seed,
            "streams": {
                name: self._streams[name].bit_generator.state
                for name in names
                if name in self._streams and name not in self._draws
            },
        }
        draws = {name: self._draws[name] for name in names if name in self._draws}
        if draws:
            state["draws"] = draws
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore stream positions captured by :meth:`state_dict`.

        Streams absent from *state* are left untouched; streams named in
        *state* are (re)created at the recorded position.  A draw count
        replays as the named seed advanced by that many draws (one PCG64
        step per ``random()``); a full state (which older journals hold
        for every stream) is set as it is, and the stream is journaled in
        full from then on.
        """
        seed = int(state.get("seed", self._seed))
        for name, n in state.get("draws", {}).items():
            bits = _bit_generator(seed, name)
            bits.advance(int(n))
            gen = self._streams.get(name)
            if gen is None:
                self._streams[name] = np.random.Generator(bits)
            else:
                gen.bit_generator.state = bits.state
            if gen is None or name in self._draws:
                self._draws[name] = int(n)
        for name, bg_state in state.get("streams", {}).items():
            self.stream(name).bit_generator.state = bg_state


def _bit_generator(seed: int, name: str) -> np.random.PCG64:
    """The PCG64 of stream *name* under root *seed*, at its start."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return np.random.PCG64(int.from_bytes(digest[:8], "little"))
