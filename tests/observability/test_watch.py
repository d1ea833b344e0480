"""WatchStream: durable, idempotent, seekable campaign event JSONL."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.observability.watch import EVENT_KINDS, WatchStream, read_watch_stream


class TestInMemory:
    def test_seq_is_dense_and_monotonic(self):
        ws = WatchStream()
        ws.emit("admit", "admit:c0", 0.0, tenant="a")
        ws.emit("cell-start", "cell-start:c0", 0.0, tenant="a")
        ws.emit("cell-complete", "cell-complete:c0", 1.0, tenant="a")
        assert [e["seq"] for e in ws.read()] == [0, 1, 2]
        assert ws.seq == 3

    def test_duplicate_key_dedups_without_appending(self):
        ws = WatchStream()
        assert ws.emit("admit", "admit:c0", 0.0) is True
        assert ws.emit("admit", "admit:c0", 5.0) is False
        assert len(ws.read()) == 1
        assert ws.read()[0]["time"] == 0.0

    def test_unknown_kind_rejected(self):
        ws = WatchStream()
        with pytest.raises(ObservabilityError, match="unknown watch event kind"):
            ws.emit("made-up", "k", 0.0)

    def test_reserved_payload_fields_rejected(self):
        ws = WatchStream()
        with pytest.raises(ObservabilityError, match="reserved"):
            ws.emit("admit", "k", 0.0, seq=99)

    def test_read_since_is_a_cursor(self):
        ws = WatchStream()
        for i in range(5):
            ws.emit("admit", f"admit:c{i}", float(i))
        assert [e["seq"] for e in ws.read(since=3)] == [3, 4]
        with pytest.raises(ObservabilityError):
            ws.read(since=-1)

    def test_every_documented_kind_is_accepted(self):
        ws = WatchStream()
        for i, kind in enumerate(EVENT_KINDS):
            assert ws.emit(kind, f"{kind}:{i}", float(i))


class TestDurability:
    def test_reopen_resumes_seq_and_dedup_index(self, tmp_path):
        path = str(tmp_path / "watch.jsonl")
        first = WatchStream(path)
        first.emit("admit", "admit:c0", 0.0, tenant="a")
        first.emit("cell-complete", "cell-complete:c0", 1.0, tenant="a")
        first.close()

        second = WatchStream(path)
        # Replay of an already-committed key dedups ...
        assert second.emit("admit", "admit:c0", 0.0, tenant="a") is False
        # ... and fresh events continue the sequence.
        assert second.emit("admit", "admit:c1", 2.0, tenant="a") is True
        assert [e["seq"] for e in second.read()] == [0, 1, 2]
        second.close()

    def test_torn_tail_is_discarded_on_reopen(self, tmp_path):
        path = str(tmp_path / "watch.jsonl")
        ws = WatchStream(path)
        ws.emit("admit", "admit:c0", 0.0)
        ws.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"seq":1,"kind":"cell-start","key":"cell-sta')  # no newline

        reopened = WatchStream(path)
        assert [e["key"] for e in reopened.read()] == ["admit:c0"]
        # The torn bytes were truncated away; the key is re-emittable.
        assert reopened.emit("cell-start", "cell-start:c0", 1.0) is True
        reopened.close()
        assert [e["kind"] for e in read_watch_stream(path)] == [
            "admit", "cell-start",
        ]

    def test_torn_tail_repair_never_rewrites_the_committed_prefix(
        self, tmp_path, monkeypatch
    ):
        """Regression: the repair used to reopen the stream with mode "w"
        and write the committed prefix back, unsynced — a crash inside that
        window lost every committed event, which resume's admission replay
        reads.  A crash injected at the first write-mode open must leave
        them readable; the repair truncates in place instead."""
        path = str(tmp_path / "watch.jsonl")
        ws = WatchStream(path)
        ws.emit("admit", "admit:c0", 0.0, tenant="a")
        ws.emit("cell-complete", "cell-complete:c0", 1.0, tenant="a")
        ws.close()
        committed = open(path, "rb").read()
        with open(path, "ab") as fh:
            fh.write(b'{"seq":2,"kind":"cell-start","key":"cell-sta')

        real_open = open

        def crash_on_write_open(file, mode="r", *args, **kwargs):
            if file == path and "w" in mode:
                real_open(file, mode, *args, **kwargs).close()  # the truncation lands
                raise OSError("crash inside the repair window")
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr("builtins.open", crash_on_write_open)
        try:
            WatchStream(path).close()
        except OSError:
            pass
        monkeypatch.undo()
        assert [e["key"] for e in read_watch_stream(path)] == [
            "admit:c0", "cell-complete:c0",
        ]
        assert open(path, "rb").read() == committed

    def test_read_watch_stream_never_writes(self, tmp_path):
        path = str(tmp_path / "watch.jsonl")
        ws = WatchStream(path)
        ws.emit("admit", "admit:c0", 0.0)
        ws.close()
        torn = '{"seq":1,"kind":"admit","key":"adm'
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(torn)
        before = open(path, encoding="utf-8").read()
        events = read_watch_stream(path)
        assert [e["key"] for e in events] == ["admit:c0"]
        assert open(path, encoding="utf-8").read() == before

    def test_corrupt_committed_line_raises(self, tmp_path):
        path = str(tmp_path / "watch.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("not json at all\n")
        with pytest.raises(ObservabilityError, match="corrupt watch stream"):
            read_watch_stream(path)

    def test_render_is_canonical_jsonl(self, tmp_path):
        path = str(tmp_path / "watch.jsonl")
        ws = WatchStream(path)
        ws.emit("admit", "admit:c0", 0.0, tenant="a", cell_id="c0")
        ws.emit("reject", "reject:c1:queue-full", 1.0, tenant="b",
                reason="queue-full")
        ws.close()
        rendered = ws.render()
        # On-disk bytes equal the in-memory canonical render.
        assert open(path, encoding="utf-8").read() == rendered
        for line in rendered.splitlines():
            event = json.loads(line)
            assert line == json.dumps(event, sort_keys=True,
                                      separators=(",", ":"))
