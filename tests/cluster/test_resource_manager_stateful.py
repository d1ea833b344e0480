"""The resource manager against a full scan, under every operation order.

A state machine drives one :class:`ResourceManager` over a small uneven
inventory through every mutation it offers — ``assign``, ``assign_set``,
``grow``, ``shrink``, ``release``, ``release_if_held``,
``on_node_failure`` — and through the changes that happen outside it:
nodes failing and recovering, and the circuit breaker quarantining a
node and letting it go.  It keeps its own model of who holds which
cores, built only from what each call returned, and after every step
requires that:

- ``check_invariants()`` passes;
- cores are conserved: what the owners hold plus what is free is the
  capacity of the healthy nodes, and each owner holds what the model says;
- the free index (free cores per node, and the inventory positions of
  the nodes with any) equals a full scan of the inventory;
- ``free()`` and ``free_cores()`` equal a recomputation from the model;
- ``plan_placement`` gives, for a grid of request shapes, the answer of
  :func:`place_cores` — the full inventory scan placement used to be —
  over that recomputed free pool, or both raise.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cluster import Allocation, ResourceManager, ResourceSet
from repro.cluster.machine import Machine
from repro.cluster.node import Node, NodeState
from repro.errors import AllocationError
from repro.resilience import NodeQuarantine, QuarantineSpec

CORES = (4, 6, 3, 5)
NODE_IDS = tuple(f"n{i}" for i in range(len(CORES)))
OWNERS = ("t1", "t2", "t3", "t4")
COOLDOWN = 3.0
LIMITS = st.sampled_from([None, 1, 2, 3])
EXCLUDES = st.sets(st.sampled_from(NODE_IDS), max_size=2)


def place_cores(free, nodes, ncores, per_node_limit=None, exclude_nodes=None):
    """The full-scan placement: walk the whole inventory in order, skip
    unhealthy and excluded nodes, take up to the per-node limit of each
    node's free cores."""
    if ncores <= 0:
        raise AllocationError(f"ncores must be > 0, got {ncores}")
    exclude = exclude_nodes or set()
    chosen = {}
    remaining = ncores
    for node in nodes:
        if remaining == 0:
            break
        if node.state != NodeState.UP or node.node_id in exclude:
            continue
        avail = free.cores_on(node.node_id)
        if per_node_limit is not None:
            avail = min(avail, per_node_limit)
        take = min(avail, remaining)
        if take > 0:
            chosen[node.node_id] = take
            remaining -= take
    if remaining > 0:
        raise AllocationError(f"cannot place {ncores} cores")
    return ResourceSet(chosen)


def outcome(fn, *args, **kwargs):
    """A call's answer, or ``AllocationError`` as a value."""
    try:
        return fn(*args, **kwargs)
    except AllocationError:
        return AllocationError


class ResourceManagerMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.nodes = [Node(node_id, cores) for node_id, cores in zip(NODE_IDS, CORES)]
        machine = Machine("uneven", self.nodes)
        self.clock = [0.0]
        self.quarantine = NodeQuarantine(
            QuarantineSpec(failures=1, window=10.0, cooldown=COOLDOWN), lambda: self.clock[0]
        )
        self.rm = ResourceManager(
            Allocation("a0", machine, self.nodes, walltime_limit=1e9),
            quarantine=self.quarantine,
        )
        #: owner -> node -> cores, built only from what the calls returned.
        self.model: dict[str, dict[str, int]] = {}

    # -- the oracle ------------------------------------------------------------------
    def scan(self) -> dict[str, int]:
        """Free cores of every node, health aside, from the model."""
        used: dict[str, int] = {}
        for held in self.model.values():
            for node_id, n in held.items():
                used[node_id] = used.get(node_id, 0) + n
        return {n.node_id: n.cores - used.get(n.node_id, 0) for n in self.nodes}

    def oracle_free(self) -> ResourceSet:
        scan = self.scan()
        return ResourceSet({n.node_id: scan[n.node_id] for n in self.nodes if n.is_up})

    def oracle_placement(self, ncores, per_node_limit=None, exclude_nodes=None, avoid=None):
        """What ``plan_placement`` answered when it was a full scan."""
        def scan():
            free = self.oracle_free()
            if avoid is not None:
                free = free.subtract(avoid)
            exclude = set(exclude_nodes or ()) | self.rm.excluded_nodes()
            return place_cores(free, self.nodes, ncores, per_node_limit, exclude)
        return outcome(scan)

    def _took(self, owner: str, rs: ResourceSet) -> None:
        held = self.model.setdefault(owner, {})
        for node_id, n in rs.items():
            held[node_id] = held.get(node_id, 0) + n

    # -- the manager's mutations ------------------------------------------------------
    @rule(owner=st.sampled_from(OWNERS), n=st.integers(0, 9), limit=LIMITS, exclude=EXCLUDES)
    def assign(self, owner, n, limit, exclude):
        expected = (AllocationError if owner in self.model
                    else self.oracle_placement(n, limit, exclude))
        got = outcome(self.rm.assign, owner, n, limit, exclude)
        assert got == expected
        if got is not AllocationError:
            self._took(owner, got)

    @rule(owner=st.sampled_from(OWNERS),
          cores=st.dictionaries(st.sampled_from(NODE_IDS), st.integers(0, 4), max_size=3))
    def assign_set(self, owner, cores):
        rs = ResourceSet(cores)
        fits = owner not in self.model and self.oracle_free().contains(rs)
        got = outcome(self.rm.assign_set, owner, rs)
        assert got == (rs if fits else AllocationError)
        if fits:
            self._took(owner, rs)

    @rule(owner=st.sampled_from(OWNERS), n=st.integers(0, 9), limit=LIMITS, exclude=EXCLUDES)
    def grow(self, owner, n, limit, exclude):
        expected = (self.oracle_placement(n, limit, exclude) if owner in self.model
                    else AllocationError)
        got = outcome(self.rm.grow, owner, n, limit, exclude)
        assert got == expected
        if got is not AllocationError:
            self._took(owner, got)

    @rule(owner=st.sampled_from(OWNERS), n=st.integers(0, 9))
    def shrink(self, owner, n):
        held = self.model.get(owner)
        got = outcome(self.rm.shrink, owner, n)
        if held is None or n <= 0 or n > sum(held.values()):
            assert got is AllocationError
            return
        assert got.total_cores == n
        for node_id, k in got.items():
            held[node_id] -= k
            assert held[node_id] >= 0
            if not held[node_id]:
                del held[node_id]
        if not held:
            del self.model[owner]

    @rule(owner=st.sampled_from(OWNERS))
    def release(self, owner):
        got = outcome(self.rm.release, owner)
        if owner not in self.model:
            assert got is AllocationError
        else:
            assert got == ResourceSet(self.model.pop(owner))

    @rule(owner=st.sampled_from(OWNERS))
    def release_if_held(self, owner):
        assert self.rm.release_if_held(owner) == ResourceSet(self.model.pop(owner, {}))

    @rule(node_id=st.sampled_from(NODE_IDS))
    def on_node_failure(self, node_id):
        losers = sorted(o for o, held in self.model.items() if held.get(node_id))
        assert self.rm.on_node_failure(node_id) == losers
        for owner in losers:
            del self.model[owner][node_id]
            if not self.model[owner]:
                del self.model[owner]

    # -- what changes outside it ---------------------------------------------------------
    @rule(i=st.integers(0, len(CORES) - 1))
    def fail_node(self, i):
        node = self.nodes[i]
        if not node.is_up:
            return
        node.fail()
        # Before the launcher's fix-up the failed node is already out.
        assert self.rm.free() == self.oracle_free()
        self.on_node_failure(node.node_id)

    @rule(i=st.integers(0, len(CORES) - 1))
    def recover_node(self, i):
        if not self.nodes[i].is_up:
            self.nodes[i].recover()

    @rule(node_id=st.sampled_from(NODE_IDS))
    def quarantine_node(self, node_id):
        self.quarantine.record_failure(node_id)

    @rule()
    def cooldowns_elapse(self):
        self.clock[0] += COOLDOWN

    # -- after every step ------------------------------------------------------------------
    @invariant()
    def bookkeeping_is_consistent(self):
        self.rm.check_invariants()

    @invariant()
    def cores_are_conserved(self):
        rm = self.rm
        assert {o: rm.assignment(o).as_dict() for o in rm.owners()} == self.model
        held = sum(sum(h.values()) for h in self.model.values())
        capacity = sum(n.cores for n in self.nodes if n.is_up)
        assert held + rm.free().total_cores == capacity
        assert rm.assigned_total().total_cores == held

    @invariant()
    def the_index_equals_a_full_scan(self):
        scan = self.scan()
        index = self.rm.free_index
        assert index.free == scan
        assert index.open == [p for p, node_id in enumerate(NODE_IDS) if scan[node_id] > 0]

    @invariant()
    def free_equals_a_recomputation(self):
        free = self.oracle_free()
        assert self.rm.free() == free
        assert list(self.rm.free().as_dict()) == list(free.as_dict())  # inventory order
        assert self.rm.free_cores() == free.total_cores

    @invariant()
    def placement_equals_the_full_scan(self):
        free = self.oracle_free()
        first = next(iter(free.as_dict()), None)
        avoids = [None]
        if first is not None:
            avoids += [ResourceSet({first: 1}), ResourceSet({first: free.cores_on(first) + 1})]
        for ncores in (1, 5, free.total_cores, free.total_cores + 1):
            for limit in (None, 2):
                for exclude in (None, {NODE_IDS[0]}):
                    for avoid in avoids:
                        got = outcome(self.rm.plan_placement, ncores, limit, exclude, avoid)
                        want = self.oracle_placement(ncores, limit, exclude, avoid)
                        assert got == want, (ncores, limit, exclude, avoid)
                        if got is not AllocationError:
                            assert list(got.as_dict()) == list(want.as_dict())


ResourceManagerMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, derandomize=True, deadline=None
)
TestResourceManagerAgainstAFullScan = ResourceManagerMachine.TestCase


def test_the_oracle_is_the_inventory_scan():
    """The copy kept here answers the pinned placement examples."""
    nodes = [Node(node_id, cores) for node_id, cores in zip(NODE_IDS, CORES)]
    free = ResourceSet({n.node_id: n.cores for n in nodes})
    assert place_cores(free, nodes, 7).as_dict() == {"n0": 4, "n1": 3}
    assert place_cores(free, nodes, 4, per_node_limit=1).as_dict() == {
        node_id: 1 for node_id in NODE_IDS
    }
    assert place_cores(free, nodes, 3, exclude_nodes={"n0"}).as_dict() == {"n1": 3}
    with pytest.raises(AllocationError):
        place_cores(free, nodes, 5, per_node_limit=1)
