"""In-allocation resource manager.

This is the service the paper's Arbitration stage keeps "recent information"
from (total allocated resources, resource health, current assignment) and
that Actuation drives through low-level operations.  It owns the invariant

    assigned(node) + free(node) == node.cores        for every healthy node
    assigned(node) == free(node) == 0                for every failed node

which the property-based tests check after arbitrary operation sequences.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterator

from repro.cluster.allocation import Allocation, ResourceSet
from repro.cluster.node import Node, NodeState
from repro.errors import AllocationError


class FreeIndex:
    """Free cores per node, and the inventory positions of the nodes that
    have any, in inventory order.

    Placement walks only ``open``, so a task start reads the nodes it may
    take cores from, not the whole inventory.  Node health and quarantine
    are not in the index: they change outside the resource manager, so
    :meth:`place` reads them live at lookup.
    """

    __slots__ = ("nodes", "pos", "free", "open")

    def __init__(self, nodes: list[Node]) -> None:
        self.nodes = nodes
        self.pos = {n.node_id: i for i, n in enumerate(nodes)}
        self.free = {n.node_id: n.cores for n in nodes}
        self.open = list(range(len(nodes)))

    def copy(self) -> "FreeIndex":
        """An independent index over the same inventory."""
        other = FreeIndex.__new__(FreeIndex)
        other.nodes, other.pos = self.nodes, self.pos
        other.free, other.open = dict(self.free), list(self.open)
        return other

    def add(self, rs: ResourceSet, sign: int) -> None:
        """Return *rs*'s cores to the free pool (``sign=+1``) or take them
        (``sign=-1``), keeping ``open`` to the nodes left with free cores."""
        free, open_, pos = self.free, self.open, self.pos
        for node_id, n in rs.as_dict().items():
            before = free[node_id]
            after = free[node_id] = before + sign * n
            if before <= 0 < after:
                insort(open_, pos[node_id])
            elif after <= 0 < before:
                del open_[bisect_left(open_, pos[node_id])]

    def place(
        self,
        ncores: int,
        per_node_limit: int | None,
        exclude: set[str] | frozenset[str],
        avoid: ResourceSet | None = None,
    ) -> ResourceSet:
        """Deterministically pick *ncores* free cores.

        Nodes with free cores are filled in inventory order, taking up to
        ``per_node_limit`` cores from each; unhealthy and *exclude*d nodes
        are skipped.  *avoid* is subtracted first and must be free.
        Raises :class:`AllocationError` when the request cannot be met.
        """
        if ncores <= 0:
            raise AllocationError(f"ncores must be > 0, got {ncores}")
        nodes, free, up = self.nodes, self.free, NodeState.UP
        held = avoid.as_dict() if avoid else {}
        for node_id, n in held.items():
            have = self.healthy_free(node_id)
            if n > have:
                raise AllocationError(
                    f"cannot subtract {n} cores on {node_id}: only {have} present"
                )
        chosen: dict[str, int] = {}
        remaining = ncores
        for p in self.open:
            node = nodes[p]
            node_id = node.node_id
            if node.state is not up or node_id in exclude:
                continue
            avail = free[node_id] - held.get(node_id, 0)
            if per_node_limit is not None and avail > per_node_limit:
                avail = per_node_limit
            if avail > 0:
                take = avail if avail < remaining else remaining
                chosen[node_id] = take
                remaining -= take
                if not remaining:
                    return ResourceSet(chosen)
        raise AllocationError(
            f"cannot place {ncores} cores"
            f"{f' (limit {per_node_limit}/node)' if per_node_limit else ''}: "
            f"{ncores - remaining} available under constraints"
        )

    def healthy(self) -> Iterator[tuple[str, int]]:
        """``(node id, free cores)`` of the healthy nodes with free cores,
        in inventory order."""
        nodes, free, up = self.nodes, self.free, NodeState.UP
        for p in self.open:
            node = nodes[p]
            if node.state is up:
                yield node.node_id, free[node.node_id]

    def healthy_free(self, node_id: str) -> int:
        """Free cores on *node_id*, or 0 for an unknown or unhealthy node."""
        p = self.pos.get(node_id)
        if p is None or self.nodes[p].state is not NodeState.UP:
            return 0
        return self.free[node_id]

    def check_free(self, rs: ResourceSet) -> None:
        """Raise :class:`AllocationError` unless every core of *rs* is free
        on a healthy node; reads only *rs*'s nodes."""
        for node_id, n in rs.as_dict().items():
            if n > self.healthy_free(node_id):
                raise AllocationError(f"resource set {rs!r} not free")


class ResourceManager:
    """Assigns cores of one allocation to named owners (workflow tasks).

    ``quarantine`` (a :class:`repro.resilience.NodeQuarantine`, optional)
    is the node circuit breaker: nodes it reports as quarantined are
    excluded from every placement even while the scheduler says UP.
    """

    def __init__(self, allocation: Allocation, quarantine=None) -> None:
        self.allocation = allocation
        self.quarantine = quarantine
        self._assigned: dict[str, ResourceSet] = {}
        #: The free cores :meth:`_account` keeps current; every placement
        #: reads it.  Arbitration's shadow places over a copy of it.
        self.free_index = FreeIndex(allocation.nodes)
        #: Bumped on every assignment mutation that moves a core; the
        #: first component of :meth:`placement_epoch`.
        self.version = 0

    def _account(self, rs: ResourceSet, sign: int) -> None:
        if not rs:
            return  # nothing moved: placement answers are unchanged
        self.version += 1
        self.free_index.add(rs, -sign)

    # -- views ----------------------------------------------------------------
    def owners(self) -> list[str]:
        return sorted(self._assigned)

    def assignment(self, owner: str) -> ResourceSet:
        """Current resources of *owner* (empty set if none)."""
        return self._assigned.get(owner, ResourceSet.empty())

    def assigned_total(self) -> ResourceSet:
        free = self.free_index.free
        return ResourceSet({n.node_id: n.cores - free[n.node_id] for n in self.allocation.nodes})

    def free(self) -> ResourceSet:
        """Unassigned cores on healthy nodes, read off the free index."""
        return ResourceSet(dict(self.free_index.healthy()))

    def free_cores(self) -> int:
        """``free().total_cores`` without building the set.

        Arbitration asks it on every idle tick that has a waiting queue.
        """
        return sum(n for _node_id, n in self.free_index.healthy())

    def healthy_node_ids(self) -> set[str]:
        return {n.node_id for n in self.allocation.healthy_nodes()}

    def node_status(self) -> dict[str, str]:
        """Health of every allocation node — `get_resource_status` plugin op."""
        status = {n.node_id: n.state.value for n in self.allocation.nodes}
        for node_id in self.excluded_nodes():
            if status.get(node_id) == NodeState.UP.value:
                status[node_id] = "quarantined"
        return status

    def excluded_nodes(self) -> set[str]:
        """Nodes the circuit breaker currently bars from placement."""
        return self.quarantine.active() if self.quarantine is not None else set()

    def placement_epoch(self) -> tuple:
        """Everything a placement answer depends on, as one comparable key.

        The assignment version, every node's health state and the set the
        circuit breaker bars: two equal epochs give every request shape
        the same answer.  Health and quarantine change outside this class,
        so they are read live; reading the quarantine releases cooldowns
        that have elapsed (:meth:`NodeQuarantine.active`).
        """
        return (
            self.version,
            tuple([n.state for n in self.allocation.nodes]),
            frozenset(self.excluded_nodes()),
        )

    # -- placement --------------------------------------------------------------
    def plan_placement(
        self,
        ncores: int,
        per_node_limit: int | None = None,
        exclude_nodes: set[str] | None = None,
        avoid: ResourceSet | None = None,
    ) -> ResourceSet:
        """Choose *ncores* free cores without committing them.

        Placement is deterministic: nodes are filled in inventory order,
        taking up to ``per_node_limit`` cores per node (the tables in the
        paper specify exactly this, e.g. "20 processes, 2 per node").
        ``exclude_nodes`` supports failure resilience — Arbitration
        "ensures the exclusion of problematic resources" (§4.5).
        ``avoid`` subtracts cores that an in-flight plan already claimed.

        Raises :class:`AllocationError` when the request cannot be met.
        """
        exclude = self.excluded_nodes()
        if exclude_nodes:
            exclude = exclude | set(exclude_nodes)
        return self.free_index.place(ncores, per_node_limit, exclude, avoid)

    # -- mutation ----------------------------------------------------------------
    def assign(
        self,
        owner: str,
        ncores: int,
        per_node_limit: int | None = None,
        exclude_nodes: set[str] | None = None,
    ) -> ResourceSet:
        """Assign *ncores* fresh cores to *owner* (must not hold any)."""
        if owner in self._assigned:
            raise AllocationError(f"owner {owner!r} already holds resources; use grow()")
        rs = self.plan_placement(ncores, per_node_limit, exclude_nodes)
        self._assigned[owner] = rs
        self._account(rs, +1)
        return rs

    def assign_set(self, owner: str, rs: ResourceSet) -> ResourceSet:
        """Assign an explicit, already-planned resource set to *owner*."""
        if owner in self._assigned:
            raise AllocationError(f"owner {owner!r} already holds resources")
        self.free_index.check_free(rs)
        self._assigned[owner] = rs
        self._account(rs, +1)
        return rs

    def grow(
        self,
        owner: str,
        ncores: int,
        per_node_limit: int | None = None,
        exclude_nodes: set[str] | None = None,
    ) -> ResourceSet:
        """Add *ncores* to an existing owner; returns the added set."""
        if owner not in self._assigned:
            raise AllocationError(f"owner {owner!r} holds no resources; use assign()")
        added = self.plan_placement(ncores, per_node_limit, exclude_nodes)
        self._assigned[owner] = self._assigned[owner].union(added)
        self._account(added, +1)
        return added

    def shrink(self, owner: str, ncores: int) -> ResourceSet:
        """Remove *ncores* from *owner* (released back to the free pool).

        Cores are shed from the highest-index nodes first so the remaining
        assignment stays packed — mirroring how RMCPU reduces the process
        count from the tail of the rank list.
        """
        current = self._assigned.get(owner)
        if current is None:
            raise AllocationError(f"owner {owner!r} holds no resources")
        if ncores <= 0:
            raise AllocationError(f"ncores must be > 0, got {ncores}")
        if ncores > current.total_cores:
            raise AllocationError(
                f"owner {owner!r} holds {current.total_cores} cores, cannot shed {ncores}"
            )
        shed: dict[str, int] = {}
        remaining = ncores
        for node_id, have in sorted(current.as_dict().items(), reverse=True):
            if remaining == 0:
                break
            take = min(have, remaining)
            shed[node_id] = take
            remaining -= take
        shed_rs = ResourceSet(shed)
        new_rs = current.subtract(shed_rs)
        if new_rs:
            self._assigned[owner] = new_rs
        else:
            del self._assigned[owner]
        self._account(shed_rs, -1)
        return shed_rs

    def release(self, owner: str) -> ResourceSet:
        """Release everything *owner* holds; returns the released set."""
        rs = self._assigned.pop(owner, None)
        if rs is None:
            raise AllocationError(f"owner {owner!r} holds no resources")
        self._account(rs, -1)
        return rs

    def release_if_held(self, owner: str) -> ResourceSet:
        """Like :meth:`release` but a no-op for unknown owners."""
        rs = self._assigned.pop(owner, ResourceSet.empty())
        self._account(rs, -1)
        return rs

    # -- failure handling ----------------------------------------------------------
    def on_node_failure(self, node_id: str) -> list[str]:
        """Strip a failed node's cores from every assignment.

        Returns the owners that lost cores — the launcher uses this to mark
        those tasks as failed.  (The node itself is marked DOWN by the
        failure injector; this method only fixes up the bookkeeping.)
        """
        affected = []
        for owner, rs in list(self._assigned.items()):
            lost = rs.cores_on(node_id)
            if lost > 0:
                affected.append(owner)
                stripped = ResourceSet({k: v for k, v in rs.as_dict().items() if k != node_id})
                if stripped:
                    self._assigned[owner] = stripped
                else:
                    del self._assigned[owner]
                self._account(ResourceSet({node_id: lost}), -1)
        return sorted(affected)

    def state_dict(self) -> dict:
        """Owner → per-node core map."""
        return {owner: rs.as_dict() for owner, rs in sorted(self._assigned.items())}

    # -- invariants ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise :class:`AllocationError` if bookkeeping is inconsistent,
        or if the free index differs from a full scan of the inventory."""
        per_node: dict[str, int] = {}
        for rs in self._assigned.values():
            for node_id, n in rs.items():
                per_node[node_id] = per_node.get(node_id, 0) + n
        index = self.free_index
        scan = {n.node_id: n.cores - per_node.get(n.node_id, 0) for n in self.allocation.nodes}
        if index.free != scan:
            raise AllocationError(f"free index {index.free} != scan {scan}")
        if index.open != [p for p, n in enumerate(self.allocation.nodes) if scan[n.node_id] > 0]:
            raise AllocationError(f"open nodes {index.open} != scan {scan}")
        for node in self.allocation.nodes:
            used = per_node.pop(node.node_id, 0)
            if node.state != NodeState.UP and used > 0:
                raise AllocationError(f"cores assigned on unhealthy node {node.node_id}")
            if used > node.cores:
                raise AllocationError(
                    f"node {node.node_id} oversubscribed: {used} > {node.cores}"
                )
        if per_node:
            raise AllocationError(f"assignments on unknown nodes: {sorted(per_node)}")
