"""Simulated shared parallel filesystem.

Provides exactly what the DISKSCAN, FILEREAD and ERRORSTATUS source
types need: files with contents and modification times, glob scanning, a
creation log readers follow with an integer position, watches that wake
a reader when what it reads changed, and atomic appearance (a file
exists only once fully written).  Paths are plain ``/``-separated
strings; there is no permission model.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import StoreError


@dataclass
class FileEntry:
    """A file: payload plus metadata."""

    path: str
    data: Any
    mtime: float
    size: int = 0
    meta: dict | None = None


class SimFilesystem:
    """Flat-namespace file store with glob scan and a creation log.

    The log is an append-only list of paths in the order they came to
    exist.  A reader that wants "files created since I last looked"
    (DISKSCAN) keeps an integer position in it and calls
    :meth:`created_since`, so its cost follows what was created, not
    what is on disk.  ``_files`` cannot serve that: a dict's insertion
    order has no O(1) slice and shifts under :meth:`remove`.

    A watch adds a token to a wake set (a Monitor client's): a path
    watch on every :meth:`write`, :meth:`append_record` and :meth:`remove`
    of its path, a creation watch on every creation of a path its
    pattern matches.

    There is no lock.  Readers may run beside writers; a write that can
    fire a watch must hold the lock its reader's collect holds (the
    threaded runtime's exit statuses are written under the launcher's
    lock).  Two threads writing the *same* path at once are not
    supported, here as in :meth:`append_record`.
    """

    def __init__(self) -> None:
        self._files: dict[str, FileEntry] = {}
        self._created: list[str] = []
        self._path_watches: dict[str, list[tuple[set[int], int]]] = {}
        self._creation_watches: list[tuple[Callable[[str], Any], set[int], int]] = []

    # -- watches ---------------------------------------------------------------
    def watch_path(self, path: str, wake: set[int], token: int) -> None:
        """Add *token* to *wake* whenever *path* is written, appended to or removed."""
        self._path_watches.setdefault(path, []).append((wake, token))

    def watch_creations(self, match: Callable[[str], Any], wake: set[int], token: int) -> None:
        """Add *token* to *wake* whenever a path for which ``match(path)``
        is true comes to exist."""
        self._creation_watches.append((match, wake, token))

    def unwatch(self, wake: set[int]) -> None:
        """Drop every path and creation watch that adds to *wake*."""
        for path, watches in list(self._path_watches.items()):
            kept = [w for w in watches if w[0] is not wake]
            if kept:
                self._path_watches[path] = kept
            else:
                del self._path_watches[path]
        self._creation_watches = [w for w in self._creation_watches if w[1] is not wake]

    def _changed(self, path: str) -> None:
        for wake, token in self._path_watches.get(path, ()):
            wake.add(token)

    # -- writes ----------------------------------------------------------------
    def write(self, path: str, data: Any, mtime: float, size: int = 0, **meta: Any) -> FileEntry:
        """Create or replace a file atomically at *mtime*.

        Only a path that was absent is logged as created; replacing a
        file logs nothing.
        """
        entry = FileEntry(path=path, data=data, mtime=mtime, size=size, meta=dict(meta))
        created = path not in self._files
        # Publish order: the file first, then its log line.  A reader on
        # another thread that saw the line before the file would skip the
        # path and advance past it for good.
        self._files[path] = entry
        if created:
            self._created.append(path)
            for match, wake, token in self._creation_watches:
                if match(path):
                    wake.add(token)
        self._changed(path)
        return entry

    def append_record(self, path: str, record: Any, mtime: float) -> FileEntry:
        """Append *record* to a list-valued file (creating it if needed)."""
        entry = self._files.get(path)
        if entry is None:
            return self.write(path, [record], mtime)
        if not isinstance(entry.data, list):
            raise StoreError(f"{path} is not an appendable record file")
        entry.data.append(record)
        entry.mtime = mtime
        self._changed(path)
        return entry

    def remove(self, path: str) -> None:
        if path not in self._files:
            raise StoreError(f"no such file: {path}")
        del self._files[path]
        self._changed(path)

    # -- reads -----------------------------------------------------------------
    def exists(self, path: str) -> bool:
        return path in self._files

    def read(self, path: str) -> Any:
        entry = self._files.get(path)
        if entry is None:
            raise StoreError(f"no such file: {path}")
        return entry.data

    def stat(self, path: str) -> FileEntry:
        entry = self._files.get(path)
        if entry is None:
            raise StoreError(f"no such file: {path}")
        return entry

    def created_since(self, pos: int) -> tuple[list[FileEntry], int]:
        """Files created at or after log position *pos*, and the new position.

        The DISKSCAN primitive.  Returns the entries — as they are now —
        of the logged paths that still exist, in creation order, each
        path once even if it was removed and re-created inside the
        slice.  The end of the log is read once and the slice taken up to
        it, so a concurrent writer's files land in this call or the next,
        never in neither.
        """
        end = len(self._created)
        if pos == end:
            return [], end
        if not 0 <= pos < end:
            raise StoreError(f"creation-log position {pos} outside 0..{end}")
        files = self._files
        entries = []
        for path in dict.fromkeys(self._created[pos:end]):
            entry = files.get(path)
            if entry is not None:
                entries.append(entry)
        return entries, end

    def scan(self, pattern: str, since: float | None = None) -> list[FileEntry]:
        """Glob the whole disk, optionally only files modified after *since*.

        A full pass over every path — for one-off questions ("which
        output files exist?"), not for polling; a poller follows
        :meth:`created_since`.  Results are sorted by (mtime, path) so
        scans are deterministic.
        """
        # Snapshot first: threaded app tasks create files while this runs.
        hits = [
            e
            for p, e in list(self._files.items())
            if fnmatch.fnmatchcase(p, pattern) and (since is None or e.mtime > since)
        ]
        hits.sort(key=lambda e: (e.mtime, e.path))
        return hits

    def listdir(self, prefix: str) -> list[str]:
        """All paths under a ``/``-terminated prefix."""
        if not prefix.endswith("/"):
            prefix += "/"
        return sorted(p for p in list(self._files) if p.startswith(prefix))

    def __len__(self) -> int:
        return len(self._files)
