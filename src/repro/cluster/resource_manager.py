"""In-allocation resource manager.

This is the service the paper's Arbitration stage keeps "recent information"
from (total allocated resources, resource health, current assignment) and
that Actuation drives through low-level operations.  It owns the invariant

    assigned(node) + free(node) == node.cores        for every healthy node
    assigned(node) == free(node) == 0                for every failed node

which the property-based tests check after arbitrary operation sequences.
"""

from __future__ import annotations

from repro.cluster.allocation import Allocation, ResourceSet
from repro.cluster.node import NodeState
from repro.errors import AllocationError


def place_cores(
    free: ResourceSet,
    nodes,
    ncores: int,
    per_node_limit: int | None = None,
    exclude_nodes: set[str] | None = None,
) -> ResourceSet:
    """Deterministically pick *ncores* from *free* over *nodes*.

    Standalone placement used both by the live resource manager and by
    Arbitration's shadow bookkeeping while it builds a plan.  Nodes are
    filled in inventory order; unhealthy and excluded nodes are skipped.
    Raises :class:`AllocationError` when the request cannot be met.
    """
    if ncores <= 0:
        raise AllocationError(f"ncores must be > 0, got {ncores}")
    exclude = exclude_nodes or set()
    chosen: dict[str, int] = {}
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
        raise AllocationError(
            f"cannot place {ncores} cores"
            f"{f' (limit {per_node_limit}/node)' if per_node_limit else ''}: "
            f"{ncores - remaining} available under constraints"
        )
    return ResourceSet(chosen)


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
        # Incremental per-node totals mirroring _assigned, so
        # assigned_total()/free() stay O(nodes) instead of unioning every
        # owner's set (O(owners x nodes) per call made task launch
        # quadratic at 10k tasks).
        self._per_node: dict[str, int] = {}
        #: Bumped on every assignment mutation that moves a core; the
        #: first component of :meth:`placement_epoch`.
        self.version = 0

    def _account(self, rs: ResourceSet, sign: int) -> None:
        if not rs:
            return  # nothing moved: placement answers are unchanged
        self.version += 1
        per_node = self._per_node
        for node_id, n in rs.as_dict().items():
            c = per_node.get(node_id, 0) + sign * n
            if c:
                per_node[node_id] = c
            else:
                per_node.pop(node_id, None)

    # -- views ----------------------------------------------------------------
    def owners(self) -> list[str]:
        return sorted(self._assigned)

    def assignment(self, owner: str) -> ResourceSet:
        """Current resources of *owner* (empty set if none)."""
        return self._assigned.get(owner, ResourceSet.empty())

    def assigned_total(self) -> ResourceSet:
        return ResourceSet(self._per_node)

    def free(self) -> ResourceSet:
        """Unassigned cores on healthy nodes.

        One pass over the inventory against the per-node totals that
        :meth:`_account` keeps current; node health is read live because
        nodes fail and recover outside this class.
        """
        used = self._per_node
        return ResourceSet({
            n.node_id: n.cores - used.get(n.node_id, 0)
            for n in self.allocation.nodes
            if n.state == NodeState.UP
        })

    def free_cores(self) -> int:
        """``free().total_cores`` without building the set.

        Arbitration asks it on every idle tick that has a waiting queue.
        """
        used = self._per_node
        up = NodeState.UP
        total = 0
        for n in self.allocation.nodes:
            if n.state is up:
                total += n.cores - used.get(n.node_id, 0)
        return total

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
        free = self.free()
        if avoid is not None:
            free = free.subtract(avoid)
        exclude = set(exclude_nodes) if exclude_nodes else set()
        exclude |= self.excluded_nodes()
        return place_cores(free, self.allocation.nodes, ncores, per_node_limit, exclude)

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
        if not self.free().contains(rs):
            raise AllocationError(f"resource set {rs!r} not free")
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
        """Raise :class:`AllocationError` if bookkeeping is inconsistent."""
        per_node: dict[str, int] = {}
        for rs in self._assigned.values():
            for node_id, n in rs.items():
                per_node[node_id] = per_node.get(node_id, 0) + n
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
