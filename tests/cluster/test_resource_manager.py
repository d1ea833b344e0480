"""Tests for the in-allocation resource manager, incl. conservation invariant."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Allocation, ResourceManager, ResourceSet, summit
from repro.errors import AllocationError
from repro.resilience import NodeQuarantine, QuarantineSpec


def make_rm(num_nodes=4, machine=None):
    m = machine or summit(num_nodes)
    alloc = Allocation("a0", m, m.nodes, walltime_limit=1e6)
    return m, ResourceManager(alloc)


class TestPlacement:
    def test_pack_in_inventory_order(self):
        _m, rm = make_rm(2)
        rs = rm.plan_placement(50)
        assert rs.as_dict() == {"summit0000": 42, "summit0001": 8}

    def test_per_node_limit(self):
        _m, rm = make_rm(4)
        rs = rm.plan_placement(8, per_node_limit=2)
        assert rs.as_dict() == {f"summit{i:04d}": 2 for i in range(4)}

    def test_per_node_limit_infeasible(self):
        _m, rm = make_rm(2)
        with pytest.raises(AllocationError):
            rm.plan_placement(5, per_node_limit=2)

    def test_exclude_nodes(self):
        _m, rm = make_rm(3)
        rs = rm.plan_placement(42, exclude_nodes={"summit0000"})
        assert rs.node_ids == ["summit0001"]

    def test_failed_nodes_skipped(self):
        m, rm = make_rm(2)
        m.nodes[0].fail()
        rs = rm.plan_placement(10)
        assert rs.node_ids == ["summit0001"]

    def test_avoid_resources(self):
        _m, rm = make_rm(1)
        claimed = ResourceSet({"summit0000": 40})
        rs = rm.plan_placement(2, avoid=claimed)
        assert rs.total_cores == 2
        with pytest.raises(AllocationError):
            rm.plan_placement(3, avoid=claimed)

    def test_zero_request_rejected(self):
        _m, rm = make_rm(1)
        with pytest.raises(AllocationError):
            rm.plan_placement(0)


class TestAssignReleaseGrowShrink:
    def test_assign_then_free_count(self):
        _m, rm = make_rm(2)
        rm.assign("sim", 60)
        assert rm.free_cores() == 84 - 60
        rm.check_invariants()

    def test_double_assign_rejected(self):
        _m, rm = make_rm(2)
        rm.assign("sim", 10)
        with pytest.raises(AllocationError):
            rm.assign("sim", 5)

    def test_grow(self):
        _m, rm = make_rm(2)
        rm.assign("iso", 20, per_node_limit=10)
        added = rm.grow("iso", 20, per_node_limit=20)
        assert added.total_cores == 20
        assert rm.assignment("iso").total_cores == 40
        rm.check_invariants()

    def test_grow_unknown_owner_rejected(self):
        _m, rm = make_rm(1)
        with pytest.raises(AllocationError):
            rm.grow("ghost", 1)

    def test_shrink_returns_shed_set(self):
        _m, rm = make_rm(2)
        rm.assign("fft", 30)
        shed = rm.shrink("fft", 10)
        assert shed.total_cores == 10
        assert rm.assignment("fft").total_cores == 20
        rm.check_invariants()

    def test_shrink_all_removes_owner(self):
        _m, rm = make_rm(1)
        rm.assign("pdf", 6)
        rm.shrink("pdf", 6)
        assert "pdf" not in rm.owners()

    def test_shrink_too_much_rejected(self):
        _m, rm = make_rm(1)
        rm.assign("pdf", 6)
        with pytest.raises(AllocationError):
            rm.shrink("pdf", 7)

    def test_release(self):
        _m, rm = make_rm(1)
        rm.assign("a", 10)
        released = rm.release("a")
        assert released.total_cores == 10
        assert rm.free_cores() == 42
        with pytest.raises(AllocationError):
            rm.release("a")

    def test_release_if_held(self):
        _m, rm = make_rm(1)
        assert rm.release_if_held("ghost").total_cores == 0

    def test_noop_release_keeps_the_placement_epoch(self):
        """A task whose cores a node failure already stripped still exits
        through ``release_if_held``; nothing moves, so nothing that keys
        on the epoch may be invalidated."""
        m, rm = make_rm(2)
        rm.assign("gone", 10)  # node 0 only
        m.nodes[0].fail()
        rm.on_node_failure("summit0000")
        epoch = rm.placement_epoch()
        assert rm.release_if_held("gone").total_cores == 0
        assert rm.release_if_held("ghost").total_cores == 0
        assert rm.placement_epoch() == epoch
        rm.assign("a", 5)
        assert rm.placement_epoch() != epoch

    def test_assign_set_must_be_free(self):
        _m, rm = make_rm(1)
        rm.assign("a", 40)
        with pytest.raises(AllocationError):
            rm.assign_set("b", ResourceSet({"summit0000": 10}))


class TestFailureHandling:
    def test_node_failure_strips_assignments(self):
        m, rm = make_rm(2)
        rm.assign("sim", 50)  # spans both nodes
        rm.assign("ana", 10)  # node 1 only
        m.nodes[0].fail()
        affected = rm.on_node_failure("summit0000")
        assert affected == ["sim"]
        assert rm.assignment("sim").cores_on("summit0000") == 0
        rm.check_invariants()

    def test_owner_fully_on_failed_node_removed(self):
        m, rm = make_rm(1)
        rm.assign("only", 42)
        m.nodes[0].fail()
        assert rm.on_node_failure("summit0000") == ["only"]
        assert "only" not in rm.owners()

    def test_node_status(self):
        m, rm = make_rm(2)
        m.nodes[1].fail()
        assert rm.node_status() == {"summit0000": "up", "summit0001": "down"}


@st.composite
def op_sequences(draw):
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["assign", "grow", "shrink", "release", "fail", "recover", "quarantine"]
                ),
                st.sampled_from(["t1", "t2", "t3"]),
                st.integers(1, 30),
            ),
            max_size=30,
        )
    )


def recomputed_free(rm) -> ResourceSet:
    """The free pool from first principles: every owner's set, unioned."""
    assigned = ResourceSet.empty()
    for owner in rm.owners():
        assigned = assigned.union(rm.assignment(owner))
    healthy = {n.node_id for n in rm.allocation.healthy_nodes()}
    return rm.allocation.full_resources().subtract(assigned.restrict_to(healthy))


class TestConservationProperty:
    @settings(max_examples=120)
    @given(op_sequences())
    def test_invariant_after_arbitrary_ops(self, ops):
        """assigned + free == healthy capacity after any legal op mix, and
        the incrementally kept per-node totals behind ``free()`` and
        ``free_cores()`` agree with a recomputation — across node
        failure, recovery and quarantine too."""
        m = summit(3)
        alloc = Allocation("a0", m, m.nodes, walltime_limit=1e9)
        clock = [0.0]
        quarantine = NodeQuarantine(
            QuarantineSpec(failures=1, window=10.0, cooldown=3.0), lambda: clock[0]
        )
        rm = ResourceManager(alloc, quarantine=quarantine)
        for op, owner, n in ops:
            clock[0] += 1.0
            node = m.nodes[n % len(m.nodes)]
            try:
                if op == "assign":
                    rm.assign(owner, n)
                elif op == "grow":
                    rm.grow(owner, n)
                elif op == "shrink":
                    rm.shrink(owner, n)
                elif op == "release":
                    rm.release(owner)
                elif op == "fail":
                    if node.is_up:
                        node.fail()
                        # Between the node going down and the launcher's
                        # fix-up, free() already leaves the node out.
                        assert rm.free() == recomputed_free(rm)
                        rm.on_node_failure(node.node_id)
                elif op == "recover":
                    if not node.is_up:
                        node.recover()
                else:
                    quarantine.record_failure(node.node_id)
            except AllocationError:
                pass  # illegal op rejected; state must stay consistent
            rm.check_invariants()
            free = rm.free()
            assert free == recomputed_free(rm)
            assert rm.free_cores() == free.total_cores
            assert rm.assigned_total().total_cores + free.total_cores == alloc.total_cores
            open_nodes = set(free.node_ids) - rm.excluded_nodes()
            if open_nodes:
                assert set(rm.plan_placement(1).node_ids) <= open_nodes
            else:
                with pytest.raises(AllocationError):
                    rm.plan_placement(1)
