"""The exploration game solver: exact verdicts and trap synthesis.

Fix a finite-state deterministic algorithm ``A``, a footprint of ``n``
nodes and ``k < n`` robots. The interaction between robots and adversary
is a turn game on the finite product system (:mod:`.product`): each round
the adversary picks a present-edge set — and, under the semi-synchronous
scheduler, a non-empty activated-robot set — and the robots respond
deterministically. The adversary *wins* iff it can produce an infinite
play that is connected-over-time (at most one edge present only finitely
often, on a ring; none on a chain) and, under SSYNC, *fair* (every robot
activated infinitely often), while some node is visited only finitely
often.

**Decision criterion.** The adversary wins iff for some chirality vector,
some target node ``v`` and some strongly connected component ``S`` of the
``v``-avoiding subgraph of the reachable product graph, ``S`` has at least
one internal transition, the union ``U`` of present-edge labels over
*all* internal transitions of ``S`` misses at most ``budget`` footprint
edges (``budget`` = 1 ring / 0 chain) and — under SSYNC — the union of
activation labels over those transitions covers every robot.

*Soundness*: inside an SCC the adversary can realize a single closed walk
traversing every internal transition, and repeat it forever after a finite
prefix leading into ``S``; every edge in ``U`` then appears once per
period (recurrent), every edge outside ``U`` never appears again
(eventually missing, within budget), every robot is activated once per
period (fair), and ``v`` is never occupied after the prefix.

*Completeness*: in any winning play, after the last visit to ``v`` the
play stays in the ``v``-avoiding subgraph; the transitions it uses
infinitely often form a strongly connected sub-multigraph contained in
some SCC ``S``, the union of their edge labels is exactly the recurrent
edge set, and — the play being fair — the union of their activation
labels covers every robot; the full-``S`` unions can only enlarge both,
so ``S`` passes the criterion.

Symmetry reductions (all verdict-preserving, see
:func:`default_chirality_vectors` and
:func:`repro.graph.topology.canonical_placements`): seeds are reduced by
ring rotation; chirality vectors by robot permutation (robots are uniform
with identical initial states) and by ring reflection (which flips every
robot's chirality).

On a win the solver emits a :class:`~.certificates.TrapCertificate`
(prefix + cycle lasso; under SSYNC with per-step activation sets), which
is immediately re-validated by *simulator replay* —
:func:`repro.sim.engine.run_fsync` or
:func:`repro.sim.semi_sync.run_ssync` — so solver and engine check each
other under either scheduler.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Optional, Sequence

from repro.errors import VerificationError
from repro.graph.topology import Topology
from repro.robots.algorithms.base import Algorithm
from repro.types import Chirality, EdgeId, NodeId, RobotId
from repro.verification import batch_solver
from repro.verification.backends import resolve_backend
from repro.verification.certificates import TrapCertificate, validate_certificate
from repro.verification.kernel import (
    PackedKernel,
    PackedState,
    PackedTransition,
    check_scheduler,
)
from repro.verification.product import ProductSystem, SysState

#: A CSR-internal transition: (state index, label, successor index).
_CsrInternal = tuple[int, int, int]

#: Graphs with at most this many transitions skip the vector screen:
#: the list-based search over them is cheaper than the screen's setup.
_SCREEN_MIN_TRANSITIONS = 1 << 12

PROPERTIES = ("perpetual", "live")
"""Checkable exploration properties.

``"perpetual"`` is the paper's specification: every node is visited
infinitely often; the adversary wins iff some node is visited only
finitely often. ``"live"`` is the weaker one-shot specification of
Di Luna et al.'s live exploration: every node is visited at least once;
the adversary wins iff it can keep some node unvisited *from round 0*.
Every live trap is a perpetual trap (zero visits are finitely many), so
per-class trap tallies satisfy ``trapped_live <= trapped_perpetual``.
"""


def check_property(prop: str) -> str:
    """Validate an exploration-property name (shared with sweeps)."""
    if prop not in PROPERTIES:
        raise VerificationError(
            f"unknown exploration property {prop!r}; choose from {PROPERTIES}"
        )
    return prop


def default_chirality_vectors(k: int) -> tuple[tuple[Chirality, ...], ...]:
    """Chirality vectors to check, reduced by symmetry.

    Robots are uniform and start in identical states, so permuting robots
    (together with re-canonicalizing the seed placement) maps executions
    to executions: only the *multiset* of chiralities matters. Reflecting
    the ring maps chirality vector ``χ`` to its flip: a vector and its
    flip give mirror-isomorphic games. Representatives: ``i`` AGREE robots
    and ``k - i`` DISAGREE for ``ceil(k/2) <= i <= k``.
    """
    if k < 1:
        raise VerificationError(f"need at least one robot, got k={k}")
    vectors = []
    for agree_count in range(k, (k - 1) // 2, -1):
        vectors.append(
            (Chirality.AGREE,) * agree_count
            + (Chirality.DISAGREE,) * (k - agree_count)
        )
    return tuple(vectors)


@dataclass
class ExplorationVerdict:
    """The solver's answer for one (algorithm, footprint, k) instance."""

    algorithm_name: str
    topology: Topology
    k: int
    explorable: bool
    certificate: Optional[TrapCertificate]
    states_explored: int
    transitions_explored: int
    chirality_vectors: tuple[tuple[Chirality, ...], ...]
    scheduler: str = "fsync"

    @property
    def n(self) -> int:
        """Ring size."""
        return self.topology.n

    def summary(self) -> str:
        """One-line human summary for reports."""
        verdict = "EXPLORES" if self.explorable else "TRAPPED"
        tag = "" if self.scheduler == "fsync" else f" [{self.scheduler}]"
        detail = "" if self.certificate is None else f" — {self.certificate.summary()}"
        return (
            f"{self.algorithm_name} k={self.k} n={self.n}:{tag} {verdict} "
            f"({self.states_explored} states, {self.transitions_explored} "
            f"transitions){detail}"
        )


def verify_exploration(
    algorithm: Algorithm,
    topology: Topology,
    k: int,
    chirality_vectors: Optional[Sequence[Sequence[Chirality]]] = None,
    max_states: int = 2_000_000,
    validate: bool = True,
    placements: Optional[Sequence[Sequence[NodeId]]] = None,
    backend: str = "auto",
    certificates: bool = True,
    prop: str = "perpetual",
    scheduler: str = "fsync",
) -> ExplorationVerdict:
    """Decide an exploration property for a finite-state algorithm instance.

    Returns an :class:`ExplorationVerdict`; when the adversary wins, the
    verdict carries a simulator-validated :class:`TrapCertificate` (set
    ``validate=False`` to skip the replay, e.g. inside huge sweeps, or
    ``certificates=False`` to skip building the lasso altogether when
    only the verdict matters — sweeps counting verdicts do this).

    ``placements`` overrides the initial configurations to quantify over
    (default: every towerless placement, rotation-reduced on rings — the
    paper's well-initiated starts). Passing placements that contain
    towers asks the *ill-initiated* question instead — see experiment X6.

    ``prop`` selects the specification: ``"perpetual"`` (default, the
    paper's infinitely-often property) or ``"live"`` (at-least-once; see
    :data:`PROPERTIES`). For ``"live"`` the winning-SCC search runs on the
    subgraph reachable from target-avoiding seeds *through* target-avoiding
    states, so the exhibited lasso never visits the starved node at all —
    its certificate passes the same replay validation.

    ``backend`` picks how the reachable graph is *built*; the solve phase
    (attractor, iterative Tarjan, lasso extraction over one canonical
    CSR graph) is shared by all of them. ``"auto"`` (default) is
    ``"vector"``, which builds the graph breadth-first in NumPy at any
    size and screens every target with a vectorized SCC pass
    (:mod:`repro.verification.batch_solver`); ``"packed"`` builds it on
    the scalar integer kernel — verdicts *and* certificates are
    bit-identical to ``"vector"`` (same CSR, same state order);
    ``"object"`` steps :func:`repro.sim.engine.step_fsync` /
    :func:`repro.sim.semi_sync.step_ssync` per transition and constructs
    no compiled tables — the semantics oracle. All three agree on
    verdict, state count and transition count, and every certificate is
    deterministic and passes the same replay validation. The object CSR
    keeps the graph's discovery order rather than ascending packed
    order, so its certificate need not be bit-identical to vector's.

    ``scheduler`` picks the execution model the game is played under:
    ``"fsync"`` (default, the paper's setting) or ``"ssync"``, where the
    adversary also chooses a non-empty activated-robot subset each round
    and a winning SCC must additionally activate every robot (so the
    exhibited infinite play is fair). SSYNC trap certificates carry the
    per-step activation sets and replay through
    :func:`repro.sim.semi_sync.run_ssync`.
    """
    backend = resolve_backend(backend)
    check_property(prop)
    check_scheduler(scheduler)
    if chirality_vectors is None:
        vectors = default_chirality_vectors(k)
    else:
        vectors = tuple(tuple(vector) for vector in chirality_vectors)
        for vector in vectors:
            if len(vector) != k:
                raise VerificationError(
                    f"chirality vector {vector} has length {len(vector)}, want {k}"
                )
    total_states = 0
    total_transitions = 0
    for vector in vectors:
        # Build phase: the only backend-specific step, seed decoding
        # (``positions_of``) included.
        screen = csr = None
        if backend == "object":
            system = ProductSystem(
                topology, algorithm, vector, max_states=max_states,
                backend="object", scheduler=scheduler,
            )
            csr = _csr_from_object(system, system.initial_states(placements))
            positions_of = itemgetter(0)
        else:
            kernel = PackedKernel(
                topology, algorithm, vector, max_states=max_states,
                scheduler=scheduler,
            )
            positions_of = kernel.positions_of
            seeds = kernel.initial_states(placements)
            if backend == "vector" and batch_solver.fits_int64(kernel):
                arrays = batch_solver.reachable_csr(kernel, seeds)
                if arrays[2].size > _SCREEN_MIN_TRANSITIONS:
                    screen = batch_solver.WinningScreen(kernel, arrays)
            else:
                occupied: dict[PackedState, int] = {}
                graph = kernel.reachable(seeds, occupied_out=occupied)
                csr = _csr_from_packed(graph, occupied, seeds)
        if csr is None:
            total_states += arrays[0].size
            total_transitions += arrays[2].size
        else:
            total_states += len(csr.states)
            total_transitions += len(csr.labels)
        # Solve phase, shared by every backend.
        for target in topology.nodes:
            if screen is not None and not screen(target, prop):
                continue
            if csr is None:
                csr = _CsrGraph(*(array.tolist() for array in arrays))
            if prop == "live":
                allowed = _avoid_reachable_csr(csr, 1 << target)
                if not any(allowed):
                    continue
            else:
                allowed = None
            win = _winning_scc_csr(topology, k, scheduler, csr, target, allowed)
            if win is None:
                continue
            scc_states, internal = win
            if not certificates:
                certificate = None
            else:
                certificate = _extract_certificate_csr(
                    algorithm, topology, scheduler, vector, csr, positions_of,
                    target, scc_states, internal, allowed,
                )
                if validate:
                    validate_certificate(certificate, algorithm)
            return ExplorationVerdict(
                algorithm_name=algorithm.name,
                topology=topology,
                k=k,
                explorable=False,
                certificate=certificate,
                states_explored=total_states,
                transitions_explored=total_transitions,
                chirality_vectors=vectors,
                scheduler=scheduler,
            )
    return ExplorationVerdict(
        algorithm_name=algorithm.name,
        topology=topology,
        k=k,
        explorable=True,
        certificate=None,
        states_explored=total_states,
        transitions_explored=total_transitions,
        chirality_vectors=vectors,
        scheduler=scheduler,
    )


def synthesize_trap(
    algorithm: Algorithm,
    topology: Topology,
    k: int,
    chirality_vectors: Optional[Sequence[Sequence[Chirality]]] = None,
    max_states: int = 2_000_000,
    backend: str = "auto",
    prop: str = "perpetual",
    scheduler: str = "fsync",
) -> TrapCertificate:
    """Produce a validated trap for an instance known to be non-explorable.

    Raises :class:`VerificationError` when the instance is in fact
    explorable (no trap exists). ``backend`` is as for
    :func:`verify_exploration` (default ``auto``, i.e. ``vector``).
    """
    verdict = verify_exploration(
        algorithm, topology, k, chirality_vectors, max_states, validate=True,
        backend=backend, prop=prop, scheduler=scheduler,
    )
    if verdict.explorable or verdict.certificate is None:
        raise VerificationError(
            f"{algorithm.name!r} explores {topology!r} with k={k}: no trap exists"
        )
    return verdict.certificate


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
@dataclass
class _CsrGraph:
    """The CSR form of a reachable product graph, as the solve phase reads it.

    Transition ``t`` of state index ``i`` lives at flat position
    ``indptr[i] <= t < indptr[i + 1]`` with label ``labels[t]`` and
    successor *index* ``succs[t]``, in per-state move order. A label is a
    bitmask: edge ``e`` is bit ``e`` and, under SSYNC, activated robot
    ``r`` is bit ``m + r`` (the :class:`~.compiled.CompiledTables`
    convention). ``occ`` is the occupied-node bitmask per state index and
    ``seeds`` the seed indices in first-occurrence order. ``states``
    holds the backend's own states — ascending packed ints for packed
    and vector (the canonical order that makes their certificates
    bit-identical), object-level ``(positions, states)`` tuples in
    discovery order for the object oracle.
    """

    states: list
    indptr: list[int]
    labels: list[int]
    succs: list[int]
    occ: list[int]
    seeds: list[int]


def _csr_from_packed(
    graph: dict[PackedState, list[PackedTransition]],
    occupied: dict[PackedState, int],
    seeds: Sequence[PackedState],
) -> _CsrGraph:
    """Canonicalize a scalar-kernel graph dict into CSR: states ascending."""
    states = sorted(graph)
    index = {state: i for i, state in enumerate(states)}
    indptr = [0]
    labels: list[int] = []
    succs: list[int] = []
    for state in states:
        for mask, succ in graph[state]:
            labels.append(mask)
            succs.append(index[succ])
        indptr.append(len(labels))
    return _CsrGraph(
        states=states,
        indptr=indptr,
        labels=labels,
        succs=succs,
        occ=[occupied[state] for state in states],
        seeds=list(dict.fromkeys(index[seed] for seed in seeds)),
    )


def _csr_from_object(system: ProductSystem, seeds: Sequence[SysState]) -> _CsrGraph:
    """The object oracle's reachable graph as CSR, states in discovery order.

    Successors come only from :meth:`ProductSystem.reachable` (i.e. from
    ``step_fsync``/``step_ssync``); this merely encodes the edge sets
    (and SSYNC activation sets) of its labels as bitmasks.
    """
    graph = system.reachable(seeds)
    act_shift = system.topology.edge_count
    ssync = system.scheduler == "ssync"
    masks: dict = {}
    index = {state: i for i, state in enumerate(graph)}
    indptr = [0]
    labels: list[int] = []
    succs: list[int] = []
    occ: list[int] = []
    for state, out in graph.items():
        for label, succ in out:
            mask = masks.get(label)
            if mask is None:
                edges, active = label if ssync else (label, ())
                mask = 0
                for edge in edges:
                    mask |= 1 << edge
                for robot in active:
                    mask |= 1 << (act_shift + robot)
                masks[label] = mask
            labels.append(mask)
            succs.append(index[succ])
        indptr.append(len(labels))
        bits = 0
        for position in state[0]:
            bits |= 1 << position
        occ.append(bits)
    return _CsrGraph(
        states=list(graph),
        indptr=indptr,
        labels=labels,
        succs=succs,
        occ=occ,
        seeds=list(dict.fromkeys(index[seed] for seed in seeds)),
    )


def _avoid_reachable_csr(csr: _CsrGraph, target_bit: int) -> list[bool]:
    """States reachable from target-avoiding seeds via target-avoiding states.

    This is the live-exploration arena: any play confined to it keeps the
    target unvisited from round 0 onwards. Returns membership flags per
    state index.
    """
    occ = csr.occ
    indptr = csr.indptr
    succs = csr.succs
    allowed = [False] * len(csr.states)
    stack = []
    for seed in csr.seeds:
        if not occ[seed] & target_bit and not allowed[seed]:
            allowed[seed] = True
            stack.append(seed)
    while stack:
        state = stack.pop()
        for t in range(indptr[state], indptr[state + 1]):
            succ = succs[t]
            if not allowed[succ] and not occ[succ] & target_bit:
                allowed[succ] = True
                stack.append(succ)
    return allowed


def _winning_scc_csr(
    topology: Topology,
    k: int,
    scheduler: str,
    csr: _CsrGraph,
    target: NodeId,
    allowed: Optional[list[bool]] = None,
) -> Optional[tuple[set[int], list[_CsrInternal]]]:
    """Find an SCC of the target-avoiding subgraph within recurrence budget.

    ``allowed`` (live property) further restricts the arena to the states
    reachable while avoiding the target from round 0. Labels are
    bitmasks, so the recurrent-edge union is a running OR and the budget
    check a popcount; under SSYNC the same running OR accumulates the
    activation bits, and a winning SCC must activate every robot —
    otherwise no fair play can stay inside it forever. ``k`` and
    ``scheduler`` are deliberately required: defaulting either would let
    a caller disarm the fairness check silently. Tarjan
    (:func:`~repro.verification.batch_solver.csr_sccs`) runs iteratively
    with roots in state-index order and per-state transitions in move
    order — fully deterministic, so the same CSR always yields the same
    SCC first and the same certificate.
    """
    budget = 1 if topology.is_ring else 0
    act_shift = topology.edge_count
    full_mask = (1 << act_shift) - 1
    ssync = scheduler == "ssync"
    full_act = (1 << k) - 1
    target_bit = 1 << target
    count = len(csr.states)
    indptr = csr.indptr
    succs = csr.succs
    labels = csr.labels
    occ = csr.occ
    if allowed is not None:
        avoiding = allowed
    else:
        avoiding = [not occ[i] & target_bit for i in range(count)]
    if not any(avoiding):
        return None

    for component in batch_solver.csr_sccs(
        indptr, succs, range(count), avoiding
    ):
        component_set = set(component)
        internal: list[_CsrInternal] = []
        union = 0
        for state in component:
            for t in range(indptr[state], indptr[state + 1]):
                succ = succs[t]
                if succ in component_set:
                    internal.append((state, labels[t], succ))
                    union |= labels[t]
        if not internal:
            continue
        if (full_mask & ~union).bit_count() > budget:
            continue
        if ssync and union >> act_shift != full_act:
            continue
        return component_set, internal
    return None


def _extract_certificate_csr(
    algorithm: Algorithm,
    topology: Topology,
    scheduler: str,
    chiralities: tuple[Chirality, ...],
    csr: _CsrGraph,
    positions_of: Callable[[object], tuple[NodeId, ...]],
    target: NodeId,
    scc_states: set[int],
    internal: list[_CsrInternal],
    restrict: Optional[list[bool]] = None,
) -> TrapCertificate:
    """Build the lasso certificate for a winning SCC.

    The lasso (BFS prefix into the SCC, greedy cover of the recurrent
    edge union, connecting internal walks) is built entirely on flat
    indices and bit-packed labels; only the final prefix/cycle masks and
    the seed state are decoded — the seed through ``positions_of``, the
    one backend-specific step. Under SSYNC the labels carry the
    activation bits above the edge bits, so the very same greedy cover
    also guarantees every robot of the SCC's activation union is
    activated within one cycle — the fairness the criterion promised.
    """
    indptr = csr.indptr
    succs = csr.succs
    labels = csr.labels
    # --- prefix: BFS from the seeds into the SCC (within ``restrict``,
    # the target-avoiding arena, when the property demands it) -----------
    parent: dict[int, Optional[tuple[int, int]]] = {}
    queue: deque[int] = deque()
    entry: Optional[int] = None
    for seed in csr.seeds:
        if seed in parent or (restrict is not None and not restrict[seed]):
            continue
        parent[seed] = None
        queue.append(seed)
        if seed in scc_states:
            entry = seed
            break
    while queue and entry is None:
        state = queue.popleft()
        for t in range(indptr[state], indptr[state + 1]):
            succ = succs[t]
            if succ in parent:
                continue
            if restrict is not None and not restrict[succ]:
                continue
            parent[succ] = (state, labels[t])
            if succ in scc_states:
                entry = succ
                break
            queue.append(succ)
    if entry is None:  # pragma: no cover - SCC is reachable by construction
        raise VerificationError("winning SCC unreachable from seeds")

    prefix_masks: list[int] = []
    cursor = entry
    while parent[cursor] is not None:
        prev, mask = parent[cursor]  # type: ignore[misc]
        prefix_masks.append(mask)
        cursor = prev
    prefix_masks.reverse()
    seed_state = cursor

    # --- cycle: closed walk covering the SCC's recurrent edge union -----
    union = 0
    for _state, mask, _succ in internal:
        union |= mask
    remaining = union
    cover: list[_CsrInternal] = []
    while remaining:
        best = max(internal, key=lambda tr: (tr[1] & remaining).bit_count())
        gain = best[1] & remaining
        if not gain:  # pragma: no cover - remaining ⊆ union by construction
            raise VerificationError("cover construction stalled")
        cover.append(best)
        remaining &= ~gain
    if not cover:
        cover = [internal[0]]

    adjacency: dict[int, list[tuple[int, int]]] = {}
    for state, mask, succ in internal:
        adjacency.setdefault(state, []).append((mask, succ))

    def internal_path(src: int, dst: int) -> list[int]:
        """Masks of a shortest internal walk src → dst within the SCC."""
        if src == dst:
            return []
        back: dict[int, tuple[int, int]] = {}
        bfs: deque[int] = deque([src])
        seen = {src}
        while bfs:
            node = bfs.popleft()
            for mask, succ in adjacency.get(node, ()):
                if succ in seen:
                    continue
                seen.add(succ)
                back[succ] = (node, mask)
                if succ == dst:
                    bfs.clear()
                    break
                bfs.append(succ)
        if dst not in back:  # pragma: no cover - SCC is strongly connected
            raise VerificationError("SCC internal path missing")
        masks: list[int] = []
        node = dst
        while node != src:
            prev, mask = back[node]
            masks.append(mask)
            node = prev
        masks.reverse()
        return masks

    cycle_masks: list[int] = []
    cursor = entry
    for state, mask, succ in cover:
        cycle_masks.extend(internal_path(cursor, state))
        cycle_masks.append(mask)
        cursor = succ
    cycle_masks.extend(internal_path(cursor, entry))

    realized_union = 0
    for mask in cycle_masks:
        realized_union |= mask
    m = topology.edge_count

    def edges(mask: int) -> frozenset[EdgeId]:
        return frozenset(edge for edge in range(m) if mask >> edge & 1)

    if scheduler == "ssync":
        k = len(chiralities)

        def robots(mask: int) -> frozenset[RobotId]:
            return frozenset(r for r in range(k) if mask >> (m + r) & 1)

        prefix_activations = tuple(robots(mask) for mask in prefix_masks)
        cycle_activations = tuple(robots(mask) for mask in cycle_masks)
    else:
        prefix_activations = None
        cycle_activations = None
    return TrapCertificate(
        algorithm_name=algorithm.name,
        topology=topology,
        chiralities=chiralities,
        seed_positions=positions_of(csr.states[seed_state]),
        prefix=tuple(edges(mask) for mask in prefix_masks),
        cycle=tuple(edges(mask) for mask in cycle_masks),
        starved_node=target,
        eventually_missing=edges(~realized_union),
        prefix_activations=prefix_activations,
        cycle_activations=cycle_activations,
    )

__all__ = [
    "PROPERTIES",
    "check_property",
    "default_chirality_vectors",
    "ExplorationVerdict",
    "verify_exploration",
    "synthesize_trap",
]
