"""Source-type adapters: where monitoring data comes from (paper §2.1/§3).

The implementation supports the paper's source types:

* ``ADIOS2`` — application output streamed in situ,
* ``TAUADIOS2`` — TAU profiler measurements streamed via ADIOS2,
* ``DISKSCAN`` — follow the filesystem's creation log for new output files,
* ``FILEREAD`` — read a variable from a (changing) file,
* ``ERRORSTATUS`` — exit statuses saved by Savanna when tasks end.

Each adapter exposes ``poll(now) -> list[Sample]`` (new observations
since the previous poll), ``reconnect()`` for task restarts,
``read_lag(perf)`` — the per-source read latency the cost analysis in
§4.6 measured (≈0.2 s for a file variable, ≈0.5 s for streamed TAU data)
— and ``watch(wake, token)``, by which a stream source asks to be polled
only after its channel published.
"""

from __future__ import annotations

import fnmatch
import re
from typing import Any, Callable

from repro.cluster.machine import MachinePerf
from repro.errors import JournalError, SensorError
from repro.staging.filesystem import SimFilesystem
from repro.staging.hub import DataHub
from repro.staging.serialization import Sample
from repro.staging.stream import StreamReader

SOURCE_TYPES = ("ADIOS2", "TAUADIOS2", "DISKSCAN", "FILEREAD", "ERRORSTATUS", "HEALTH")


class DataSource:
    """Base adapter; subclasses implement the actual procurement."""

    def poll(self, now: float) -> list[Sample]:
        raise NotImplementedError

    def reconnect(self) -> None:
        """Re-establish connections after the monitored task restarted."""

    def watch(self, wake: set[int], token: int) -> bool:
        """Ask to have *token* added to *wake* whenever new data arrives.

        True promises that a connected source's poll returns nothing
        unless *token* was added since that poll; the caller then marks
        the source itself when it binds, reconnects or restores it.
        False (the default): poll this source every round.
        """
        return False

    def read_lag(self, perf: MachinePerf) -> float:
        """Seconds between data availability and the metric reaching DYFLOW."""
        return perf.file_read_lag

    # -- crash recovery ------------------------------------------------------
    def cursor_state(self) -> dict:
        """JSON-serializable read position (journal barrier state)."""
        return {}

    def restore_cursor(self, state: dict) -> None:
        """Resume reading exactly where :meth:`cursor_state` left off."""


class StreamSource(DataSource):
    """ADIOS2/TAUADIOS2: drain a staging stream channel.

    Stream steps carry lists of :class:`Sample` (profiler output) or raw
    dict payloads, which are wrapped into samples using the bound task
    identity.
    """

    def __init__(
        self,
        hub: DataHub,
        channel_name: str,
        workflow_id: str,
        task: str,
        var: str | None = None,
    ) -> None:
        self.hub = hub
        self.channel_name = channel_name
        self.workflow_id = workflow_id
        self.task = task
        self.var = var
        self._reader: StreamReader | None = None
        self._wake: set[int] | None = None
        self._token = 0

    def watch(self, wake: set[int], token: int) -> bool:
        self._wake = wake
        self._token = token
        if self._reader is not None:
            self._reader.watch(wake, token)
        return True

    def _ensure_reader(self) -> StreamReader:
        if self._reader is None:
            channel = self.hub.channel(self.channel_name)
            reader = self._reader = channel.open_reader(f"monitor:{self.task}")
            reader.seek_latest()
            if self._wake is not None:
                reader.watch(self._wake, self._token)
        return self._reader

    def _disconnect(self) -> None:
        if self._reader is not None:
            self._reader.unwatch()
            self._reader = None

    def poll(self, now: float) -> list[Sample]:
        reader = self._reader
        if reader is None:
            # The first poll connects: that instant decides which steps
            # this source will ever see.
            reader = self._ensure_reader()
        elif reader.cursor >= reader.channel.next_step:
            # Nothing published since the last poll.  The cursor is at or
            # past every retained step, so drain() would neither return
            # data nor count an eviction.
            return []
        out: list[Sample] = []
        for record in reader.drain():
            if isinstance(record.data, list):
                for s in record.data:
                    if isinstance(s, Sample) and (self.var is None or s.var == self.var):
                        out.append(s)
            elif isinstance(record.data, dict):
                for var, value in record.data.items():
                    if self.var is not None and var != self.var:
                        continue
                    out.append(
                        Sample(
                            time=record.time,
                            workflow_id=self.workflow_id,
                            task=self.task,
                            rank=-1,
                            node_id="",
                            var=var,
                            value=value,
                            step=record.step,
                        )
                    )
        return out

    def reconnect(self) -> None:
        """Re-open the reader immediately at the newest staged step.

        Eager (not lazy) so that data published between the reconnect and
        the next poll is observed rather than skipped.
        """
        self._disconnect()
        self._ensure_reader()

    def read_lag(self, perf: MachinePerf) -> float:
        return perf.stream_read_lag

    def cursor_state(self) -> dict:
        if self._reader is None:
            return {"connected": False}
        return {
            "connected": True,
            "cursor": self._reader.cursor,
            "missed": self._reader.missed_steps,
        }

    def restore_cursor(self, state: dict) -> None:
        if not state.get("connected"):
            self._disconnect()
            return
        reader = self._ensure_reader()
        reader._cursor = int(state["cursor"])
        reader.missed_steps = int(state.get("missed", 0))


class DiskScanSource(DataSource):
    """DISKSCAN: files created since the last poll that match a glob become samples.

    The source is a reader of the filesystem's creation log (the way
    :class:`StreamSource` is a reader of a channel): it keeps one integer
    position, and a poll looks only at the paths logged behind it — an
    idle poll is one length comparison, whatever is on disk.  Each path
    is reported once, at the first poll after it exists, in
    ``(mtime, path)`` order, with the entry as it is at poll time;
    replacing or appending to a reported file reports nothing.  A path
    that is removed and created again is a new file and is reported
    again; one created and removed between two polls is never seen.

    The value is extracted from each file (default: its ``step`` metadata
    plus one — "number of timesteps completed", so file ``...out.N``
    reports N+1 completed steps).
    """

    def __init__(
        self,
        fs: SimFilesystem,
        pattern: str,
        workflow_id: str,
        task: str,
        var: str = "nsteps",
        value_fn: Callable[[Any], float] | None = None,
    ) -> None:
        self.fs = fs
        self.pattern = pattern
        self.workflow_id = workflow_id
        self.task = task
        self.var = var
        self.value_fn = value_fn
        # What fnmatch.fnmatchcase(path, pattern) evaluates, compiled once.
        self._matches = re.compile(fnmatch.translate(pattern)).match
        self._pos = 0

    def _value_of(self, entry) -> float:
        if self.value_fn is not None:
            return float(self.value_fn(entry))
        meta = entry.meta or {}
        if "step" in meta:
            return float(meta["step"]) + 1.0
        if isinstance(entry.data, dict) and "step" in entry.data:
            return float(entry.data["step"]) + 1.0
        raise SensorError(f"DISKSCAN cannot extract a value from {entry.path!r}")

    def poll(self, now: float) -> list[Sample]:
        created, end = self.fs.created_since(self._pos)
        hits = [e for e in created if self._matches(e.path)]
        hits.sort(key=lambda e: (e.mtime, e.path))
        out = [
            Sample(
                time=entry.mtime,
                workflow_id=self.workflow_id,
                task=self.task,
                rank=-1,
                node_id="",
                var=self.var,
                value=self._value_of(entry),
                step=int(entry.meta.get("step", -1)) if entry.meta else -1,
            )
            for entry in hits
        ]
        # Only now: a file that raised above is polled again, with the
        # files before it, instead of being stepped over.
        self._pos = end
        return out

    def reconnect(self) -> None:
        # The position stays: a restarted task creates new files.
        pass

    def cursor_state(self) -> dict:
        return {"pos": self._pos}

    def restore_cursor(self, state: dict) -> None:
        """Take up the journaled log position.

        Meaningful only over the filesystem the position was read from —
        ``resume_from`` runs over the surviving launcher and hub, the
        same contract as :class:`StreamSource`'s journaled cursor.
        """
        if "pos" not in state:
            raise JournalError(
                f"DISKSCAN cursor for {self.task!r} has no creation-log position "
                f"(keys: {sorted(state)}); journals written with a seen-list "
                "cannot be resumed"
            )
        self._pos = int(state["pos"])


class FileReadSource(DataSource):
    """FILEREAD: sample a variable from one file whenever its mtime moves."""

    def __init__(
        self,
        fs: SimFilesystem,
        path: str,
        workflow_id: str,
        task: str,
        var: str,
    ) -> None:
        self.fs = fs
        self.path = path
        self.workflow_id = workflow_id
        self.task = task
        self.var = var
        self._last_mtime: float | None = None

    def poll(self, now: float) -> list[Sample]:
        if not self.fs.exists(self.path):
            return []
        entry = self.fs.stat(self.path)
        if self._last_mtime is not None and entry.mtime <= self._last_mtime:
            return []
        self._last_mtime = entry.mtime
        data = entry.data
        if isinstance(data, dict):
            if self.var not in data:
                raise SensorError(f"file {self.path!r} has no variable {self.var!r}")
            value = data[self.var]
        else:
            value = data
        return [
            Sample(
                time=entry.mtime,
                workflow_id=self.workflow_id,
                task=self.task,
                rank=-1,
                node_id="",
                var=self.var,
                value=value,
            )
        ]

    def cursor_state(self) -> dict:
        return {"last_mtime": self._last_mtime}

    def restore_cursor(self, state: dict) -> None:
        mtime = state.get("last_mtime")
        self._last_mtime = float(mtime) if mtime is not None else None


class ErrorStatusSource(DataSource):
    """ERRORSTATUS: new exit-status records saved by the WMS (§4.5).

    Savanna appends ``{code, time, rank, ...}`` records when a task
    instance ends; each new record becomes one sample with the exit code
    as value.
    """

    def __init__(self, fs: SimFilesystem, path: str, workflow_id: str, task: str) -> None:
        self.fs = fs
        self.path = path
        self.workflow_id = workflow_id
        self.task = task
        self._consumed = 0

    def poll(self, now: float) -> list[Sample]:
        if not self.fs.exists(self.path):
            return []
        records = self.fs.read(self.path)
        if not isinstance(records, list):
            raise SensorError(f"status file {self.path!r} is not a record list")
        out: list[Sample] = []
        for record in records[self._consumed:]:
            out.append(
                Sample(
                    time=float(record.get("time", now)),
                    workflow_id=self.workflow_id,
                    task=self.task,
                    rank=int(record.get("rank", 0)),
                    node_id="",
                    var="exit_code",
                    value=float(record["code"]),
                )
            )
        self._consumed = len(records)
        return out

    def cursor_state(self) -> dict:
        return {"consumed": self._consumed}

    def restore_cursor(self, state: dict) -> None:
        self._consumed = int(state.get("consumed", 0))


def make_source(
    source_type: str,
    hub: DataHub,
    workflow_id: str,
    task: str,
    info_source: str | None = None,
    var: str | None = None,
) -> DataSource:
    """Build the adapter for *source_type* bound to one monitored task.

    ``info_source`` is the XML's per-task source string: a channel name
    for stream types, a glob for DISKSCAN, a path for FILEREAD and
    ERRORSTATUS.  Stream and status types default to the launcher's
    naming conventions when omitted.
    """
    st = source_type.upper()
    if st == "TAUADIOS2":
        name = info_source or f"tau-{workflow_id}-{task}"
        return StreamSource(hub, name, workflow_id, task, var=var)
    if st == "ADIOS2":
        name = info_source or f"data-{workflow_id}-{task}"
        return StreamSource(hub, name, workflow_id, task, var=var)
    if st == "DISKSCAN":
        if not info_source:
            raise SensorError("DISKSCAN requires an info-source glob pattern")
        return DiskScanSource(hub.filesystem, info_source, workflow_id, task, var=var or "nsteps")
    if st == "FILEREAD":
        if not info_source:
            raise SensorError("FILEREAD requires an info-source path")
        if not var:
            raise SensorError("FILEREAD requires a variable name")
        return FileReadSource(hub.filesystem, info_source, workflow_id, task, var)
    if st == "ERRORSTATUS":
        path = info_source or f"status/{workflow_id}/{task}"
        return ErrorStatusSource(hub.filesystem, path, workflow_id, task)
    if st == "HEALTH":
        # Health sources read the orchestrator's own health engine, not
        # the data hub — the runtimes bind them directly in monitor_task.
        raise SensorError(
            "HEALTH sources are runtime-bound: configure an ObservabilitySpec "
            "and let the orchestrator's monitor_task bind them"
        )
    raise SensorError(f"unknown source type {source_type!r}; known: {SOURCE_TYPES}")
