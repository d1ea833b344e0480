"""Tests for simulated filesystem, variable store, and data hub."""

import pytest

from repro.errors import StoreError
from repro.staging import DataHub, SimFilesystem, VariableStore


class TestSimFilesystem:
    def test_write_read(self):
        fs = SimFilesystem()
        fs.write("a/b.txt", {"x": 1}, mtime=1.0)
        assert fs.read("a/b.txt") == {"x": 1}
        assert fs.exists("a/b.txt")

    def test_read_missing_raises(self):
        with pytest.raises(StoreError):
            SimFilesystem().read("nope")

    def test_scan_glob_and_since(self):
        fs = SimFilesystem()
        fs.write("out/xgc.out.0", 0, mtime=1.0)
        fs.write("out/xgc.out.1", 1, mtime=2.0)
        fs.write("out/other.dat", 2, mtime=3.0)
        hits = fs.scan("out/xgc.out.*")
        assert [e.path for e in hits] == ["out/xgc.out.0", "out/xgc.out.1"]
        assert [e.path for e in fs.scan("out/xgc.out.*", since=1.0)] == ["out/xgc.out.1"]

    def test_scan_sorted_by_mtime(self):
        fs = SimFilesystem()
        fs.write("f2", 0, mtime=5.0)
        fs.write("f1", 0, mtime=1.0)
        assert [e.path for e in fs.scan("f*")] == ["f1", "f2"]

    def test_created_since_follows_creations_only(self):
        fs = SimFilesystem()
        assert fs.created_since(0) == ([], 0)
        fs.write("b", 0, mtime=2.0)
        fs.append_record("log", "r0", mtime=1.0)
        entries, pos = fs.created_since(0)
        assert ([e.path for e in entries], pos) == (["b", "log"], 2)  # creation order
        fs.write("b", 1, mtime=3.0)  # replaced
        fs.append_record("log", "r1", mtime=4.0)  # appended to
        assert fs.created_since(pos) == ([], 2)
        fs.write("a", 0, mtime=0.0)
        entries, pos = fs.created_since(pos)
        assert ([e.path for e in entries], pos) == (["a"], 3)
        # Reading again from an older position returns the entries as they are now.
        assert [e.data for e in fs.created_since(0)[0]] == [1, ["r0", "r1"], 0]

    def test_created_since_skips_removed_and_collapses_recreated_paths(self):
        fs = SimFilesystem()
        fs.write("gone", 0, mtime=1.0)
        fs.write("back", 0, mtime=1.0)
        fs.remove("gone")
        fs.remove("back")
        fs.write("back", 1, mtime=2.0)
        entries, pos = fs.created_since(0)
        assert ([(e.path, e.data) for e in entries], pos) == ([("back", 1)], 3)
        assert [e.path for e in fs.created_since(2)[0]] == ["back"]  # the re-creation

    def test_created_since_rejects_a_position_from_another_filesystem(self):
        fs = SimFilesystem()
        fs.write("a", 0, mtime=0.0)
        for pos in (2, -1):
            with pytest.raises(StoreError, match="position"):
                fs.created_since(pos)

    def test_append_record(self):
        fs = SimFilesystem()
        fs.append_record("log", "a", mtime=1.0)
        fs.append_record("log", "b", mtime=2.0)
        assert fs.read("log") == ["a", "b"]
        assert fs.stat("log").mtime == 2.0

    def test_append_to_non_list_raises(self):
        fs = SimFilesystem()
        fs.write("f", "scalar", mtime=0.0)
        with pytest.raises(StoreError):
            fs.append_record("f", "x", mtime=1.0)

    def test_remove(self):
        fs = SimFilesystem()
        fs.write("f", 1, mtime=0.0)
        fs.remove("f")
        assert not fs.exists("f")
        with pytest.raises(StoreError):
            fs.remove("f")

    def test_listdir(self):
        fs = SimFilesystem()
        fs.write("d/a", 1, mtime=0.0)
        fs.write("d/b", 1, mtime=0.0)
        fs.write("e/c", 1, mtime=0.0)
        assert fs.listdir("d") == ["d/a", "d/b"]


class TestVariableStore:
    def test_step_protocol(self):
        st = VariableStore("sim.bp")
        st.begin_step(1.0)
        st.put("u", [1, 2])
        assert st.end_step() == 0
        assert st.num_steps == 1
        assert st.read("u") == [1, 2]
        assert st.read("u", 0) == [1, 2]

    def test_double_begin_rejected(self):
        st = VariableStore("s")
        st.begin_step(0.0)
        with pytest.raises(StoreError):
            st.begin_step(1.0)

    def test_put_without_open_step_rejected(self):
        st = VariableStore("s")
        with pytest.raises(StoreError):
            st.put("x", 1)

    def test_open_step_invisible_to_readers(self):
        st = VariableStore("s")
        st.write_step(0.0, u=1)
        st.begin_step(1.0)
        st.put("u", 2)
        assert st.num_steps == 1
        assert st.read("u") == 1

    def test_missing_variable(self):
        st = VariableStore("s")
        st.write_step(0.0, u=1)
        with pytest.raises(StoreError):
            st.read("v")

    def test_read_empty_store(self):
        with pytest.raises(StoreError):
            VariableStore("s").read("u")

    def test_fs_marker_files(self):
        fs = SimFilesystem()
        st = VariableStore("gs.bp", filesystem=fs)
        st.write_step(3.0, u=1, v=2)
        st.write_step(4.0, u=3)
        markers = fs.scan("gs.bp.dir/step.*")
        assert len(markers) == 2
        assert markers[0].data == {"vars": ["u", "v"]}


class TestDataHub:
    def test_channel_get_or_create(self):
        hub = DataHub()
        ch = hub.channel("tau-iso")
        assert hub.channel("tau-iso") is ch
        assert hub.get_channel("tau-iso") is ch
        assert hub.has_channel("tau-iso")

    def test_missing_channel_raises(self):
        from repro.errors import StagingError

        with pytest.raises(StagingError):
            DataHub().get_channel("nope")

    def test_store_backed_by_hub_fs(self):
        hub = DataHub()
        st = hub.store("xgca.bp")
        st.write_step(1.0, nsteps=100)
        assert hub.filesystem.scan("xgca.bp.dir/step.*")
        assert hub.store("xgca.bp") is st

    def test_listings(self):
        hub = DataHub()
        hub.channel("b")
        hub.channel("a")
        hub.store("s")
        assert hub.channels() == ["a", "b"]
        assert hub.stores() == ["s"]
