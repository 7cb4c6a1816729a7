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
from typing import Iterable, Optional, Sequence

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

_InternalTransition = tuple[SysState, object, SysState]
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
    backend: str = "packed",
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

    ``backend`` picks the exploration substrate: ``"packed"`` (default)
    runs entirely on the integer kernel — same verdict, same state and
    transition counts, ~an order of magnitude faster; ``"vector"``
    builds the reachable graph breadth-first in NumPy at any size and
    screens every target with a vectorized SCC pass
    (:mod:`repro.verification.batch_solver`), producing verdicts *and*
    certificates bit-identical to ``"packed"`` (both solve the same
    canonical CSR graph); ``"auto"`` is ``"vector"`` (NumPy is a
    required dependency); ``"object"`` is the original engine-driven
    path, kept as the semantics oracle. Certificates from the object backend satisfy the
    same replay validation, though the particular lasso exhibited may
    differ.

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
    if backend in ("packed", "vector"):
        return _verify_csr(
            algorithm, topology, k, vectors, max_states, validate, placements,
            certificates, prop, scheduler, backend,
        )
    total_states = 0
    total_transitions = 0
    for vector in vectors:
        system = ProductSystem(
            topology, algorithm, vector, max_states=max_states,
            backend="object", scheduler=scheduler,
        )
        seeds = system.initial_states(placements)
        graph = system.reachable(seeds)
        total_states += len(graph)
        total_transitions += sum(len(out) for out in graph.values())
        for target in topology.nodes:
            if prop == "live":
                allowed = _avoid_reachable(graph, seeds, target)
                if not allowed:
                    continue
            else:
                allowed = None
            win = _winning_scc(topology, graph, target, allowed, scheduler, k)
            if win is None:
                continue
            scc_states, internal = win
            if not certificates:
                certificate = None
            else:
                certificate = _extract_certificate(
                    topology, algorithm, vector, graph, seeds, target,
                    scc_states, internal, allowed, scheduler,
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


def _verify_csr(
    algorithm: Algorithm,
    topology: Topology,
    k: int,
    vectors: tuple[tuple[Chirality, ...], ...],
    max_states: int,
    validate: bool,
    placements: Optional[Sequence[Sequence[NodeId]]],
    certificates: bool,
    prop: str,
    scheduler: str,
    backend: str,
) -> ExplorationVerdict:
    """The packed/vector body of :func:`verify_exploration`.

    Both backends reduce the reachable graph to one *canonical CSR*
    form — states ascending, per-state transitions in kernel move order
    — and share the solve phase below (attractor, iterative Tarjan,
    lasso extraction, all in pure Python over flat lists). The packed
    path builds the CSR from ``PackedKernel.reachable``; the vector path
    builds the identical arrays sparsely in NumPy
    (:func:`repro.verification.batch_solver.reachable_csr`) and asks the
    vectorized :class:`~repro.verification.batch_solver.WinningScreen`
    first, so the list-based search runs only on a target it flags.
    Verdicts, counts *and certificates* agree bit-for-bit across the two.
    """
    total_states = 0
    total_transitions = 0
    for vector in vectors:
        kernel = PackedKernel(
            topology, algorithm, vector, max_states=max_states,
            scheduler=scheduler,
        )
        seeds = kernel.initial_states(placements)
        screen = csr = None
        if backend == "vector" and batch_solver.fits_int64(kernel):
            arrays = batch_solver.reachable_csr(kernel, seeds)
            states, transitions = arrays[0].size, arrays[2].size
            if transitions > _SCREEN_MIN_TRANSITIONS:
                screen = batch_solver.WinningScreen(kernel, arrays)
        else:
            occupied: dict[PackedState, int] = {}
            graph = kernel.reachable(seeds, occupied_out=occupied)
            csr = _csr_from_packed(graph, occupied, seeds)
            states, transitions = len(csr.states), len(csr.labels)
        total_states += states
        total_transitions += transitions
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
            win = _winning_scc_csr(kernel, csr, target, allowed)
            if win is None:
                continue
            scc_states, internal = win
            if not certificates:
                certificate = None
            else:
                certificate = _extract_certificate_csr(
                    kernel, vector, csr, target, scc_states, internal,
                    allowed,
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
    backend: str = "packed",
    prop: str = "perpetual",
    scheduler: str = "fsync",
) -> TrapCertificate:
    """Produce a validated trap for an instance known to be non-explorable.

    Raises :class:`VerificationError` when the instance is in fact
    explorable (no trap exists).
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
def _avoid_reachable(
    graph: dict[SysState, list[tuple[frozenset[EdgeId], SysState]]],
    seeds: Sequence[SysState],
    target: NodeId,
) -> set[SysState]:
    """States reachable from target-avoiding seeds via target-avoiding states.

    This is the live-exploration arena: any play confined to it keeps the
    target unvisited from round 0 onwards.
    """
    allowed = {seed for seed in seeds if target not in seed[0]}
    stack = list(allowed)
    while stack:
        state = stack.pop()
        for _label, succ in graph[state]:
            if succ not in allowed and target not in succ[0]:
                allowed.add(succ)
                stack.append(succ)
    return allowed


@dataclass
class _CsrGraph:
    """The canonical CSR form of a reachable packed graph.

    ``states`` ascending packed states; transition ``t`` of state index
    ``i`` lives at flat position ``indptr[i] <= t < indptr[i + 1]`` with
    label ``labels[t]`` and successor *index* ``succs[t]``, in the
    kernel's per-state move order. ``occ`` is the occupied-node bitmask
    per state index and ``seeds`` the seed indices in first-occurrence
    order. Both solver backends normalize to this exact shape, which is
    what makes their certificates bit-identical.
    """

    states: list[int]
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
    """Canonicalize a scalar-kernel graph dict into CSR arrays."""
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
    seed_idx: list[int] = []
    seen: set[int] = set()
    for seed in seeds:
        i = index[seed]
        if i not in seen:
            seen.add(i)
            seed_idx.append(i)
    return _CsrGraph(
        states=states,
        indptr=indptr,
        labels=labels,
        succs=succs,
        occ=[occupied[state] for state in states],
        seeds=seed_idx,
    )


def _avoid_reachable_csr(csr: _CsrGraph, target_bit: int) -> list[bool]:
    """CSR twin of :func:`_avoid_reachable`: membership flags per index."""
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


def _winning_scc(
    topology: Topology,
    graph: dict[SysState, list[tuple]],
    target: NodeId,
    allowed: Optional[set[SysState]],
    scheduler: str,
    k: int,
) -> Optional[tuple[set[SysState], list[_InternalTransition]]]:
    """Find an SCC of the target-avoiding subgraph within recurrence budget.

    ``allowed`` (live property) further restricts the arena to the states
    reachable while avoiding the target from round 0. Under SSYNC a
    winning SCC must also activate every robot across its internal
    transitions — otherwise no fair play can stay inside it forever.
    ``scheduler`` and ``k`` are deliberately required: defaulting either
    would let a caller disarm the fairness check silently (an empty
    ``all_robots`` rejects every SCC — a false EXPLORES).
    """
    budget = 1 if topology.is_ring else 0
    ssync = scheduler == "ssync"
    all_robots: frozenset[RobotId] = frozenset(range(k))
    if allowed is not None:
        avoiding = allowed
    else:
        avoiding = {state for state in graph if target not in state[0]}
    if not avoiding:
        return None

    successor_cache: dict[SysState, tuple[SysState, ...]] = {}

    def successors(state: SysState) -> tuple[SysState, ...]:
        cached = successor_cache.get(state)
        if cached is None:
            cached = tuple(
                {succ for _label, succ in graph[state] if succ in avoiding}
            )
            successor_cache[state] = cached
        return cached

    for component in _tarjan_sccs(avoiding, successors):
        component_set = set(component)
        internal: list[_InternalTransition] = []
        union: set[EdgeId] = set()
        act_union: set[RobotId] = set()
        for state in component:
            for label, succ in graph[state]:
                if succ in component_set:
                    internal.append((state, label, succ))
                    if ssync:
                        union.update(label[0])
                        act_union.update(label[1])
                    else:
                        union.update(label)
        if not internal:
            continue
        missing = topology.all_edges - union
        if len(missing) > budget:
            continue
        if ssync and act_union != all_robots:
            continue
        return component_set, internal
    return None


def _tarjan_sccs(
    nodes: Iterable[SysState],
    successors,
) -> Iterable[list[SysState]]:
    """Iterative Tarjan strongly-connected components."""
    index: dict[SysState, int] = {}
    low: dict[SysState, int] = {}
    on_stack: set[SysState] = set()
    stack: list[SysState] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work: list[tuple[SysState, Iterable]] = [(root, iter(successors(root)))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, child_iter = work[-1]
            advanced = False
            for child in child_iter:
                if child not in index:
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(successors(child))))
                    advanced = True
                    break
                if child in on_stack:
                    if index[child] < low[node]:
                        low[node] = index[child]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                yield component


def _winning_scc_csr(
    kernel: PackedKernel,
    csr: _CsrGraph,
    target: NodeId,
    allowed: Optional[list[bool]] = None,
) -> Optional[tuple[set[int], list[_CsrInternal]]]:
    """CSR twin of :func:`_winning_scc`, shared by packed and vector.

    Labels are bitmasks, so the recurrent-edge union is a running OR and
    the budget check a popcount; under SSYNC the same running OR
    accumulates the activation bits, making the fairness check one shift
    and compare. Tarjan (:func:`~repro.verification.batch_solver.csr_sccs`)
    runs iteratively over the CSR arrays with roots in ascending state
    order and per-state transitions in kernel move order — fully
    deterministic, so both backends emit the same SCC first and extract
    the same certificate.
    """
    budget = 1 if kernel.topology.is_ring else 0
    full_mask = kernel.full_mask
    ssync = kernel.scheduler == "ssync"
    act_shift = kernel.act_shift
    full_act = kernel.full_act
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
    kernel: PackedKernel,
    chiralities: tuple[Chirality, ...],
    csr: _CsrGraph,
    target: NodeId,
    scc_states: set[int],
    internal: list[_CsrInternal],
    restrict: Optional[list[bool]] = None,
) -> TrapCertificate:
    """CSR twin of :func:`_extract_certificate`, shared by packed/vector.

    The lasso (BFS prefix into the SCC, greedy cover of the recurrent
    edge union, connecting internal walks) is built entirely on flat
    indices and bit-packed labels; only the final prefix/cycle masks and
    the seed state are decoded. Under SSYNC the labels carry the
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
    missing_mask = kernel.full_mask & ~realized_union
    seed_positions, _seed_states = kernel.decode(csr.states[seed_state])

    if kernel.scheduler == "ssync":
        prefix_activations = tuple(
            kernel.move_activations(mask) for mask in prefix_masks
        )
        cycle_activations = tuple(
            kernel.move_activations(mask) for mask in cycle_masks
        )
    else:
        prefix_activations = None
        cycle_activations = None
    return TrapCertificate(
        algorithm_name=kernel.algorithm.name,
        topology=kernel.topology,
        chiralities=chiralities,
        seed_positions=seed_positions,
        prefix=tuple(kernel.move_edges(mask) for mask in prefix_masks),
        cycle=tuple(kernel.move_edges(mask) for mask in cycle_masks),
        starved_node=target,
        eventually_missing=kernel.mask_to_edges(missing_mask),
        prefix_activations=prefix_activations,
        cycle_activations=cycle_activations,
    )


def _extract_certificate(
    topology: Topology,
    algorithm: Algorithm,
    chiralities: tuple[Chirality, ...],
    graph: dict[SysState, list[tuple]],
    seeds: Sequence[SysState],
    target: NodeId,
    scc_states: set[SysState],
    internal: list[_InternalTransition],
    restrict: Optional[set[SysState]] = None,
    scheduler: str = "fsync",
) -> TrapCertificate:
    """Build the lasso certificate for a winning SCC.

    Under SSYNC each label is a ``(present-edges, activated-robots)``
    pair; the greedy cover then runs over the disjoint union of both
    parts, so the exhibited cycle both realizes the SCC's recurrent edge
    set and activates every robot of its activation union (fairness).
    """
    ssync = scheduler == "ssync"

    def cover_set(label) -> frozenset:
        if ssync:
            present, active = label
            return present | {("act", robot) for robot in active}
        return label
    # --- prefix: BFS from the seeds into the SCC (within ``restrict``,
    # the target-avoiding arena, when the property demands it) -----------
    parent: dict[SysState, Optional[tuple[SysState, frozenset[EdgeId]]]] = {}
    queue: deque[SysState] = deque()
    entry: Optional[SysState] = None
    for seed in seeds:
        if seed in parent or (restrict is not None and seed not in restrict):
            continue
        parent[seed] = None
        queue.append(seed)
        if seed in scc_states:
            entry = seed
            break
    while queue and entry is None:
        state = queue.popleft()
        for label, succ in graph[state]:
            if succ in parent:
                continue
            if restrict is not None and succ not in restrict:
                continue
            parent[succ] = (state, label)
            if succ in scc_states:
                entry = succ
                break
            queue.append(succ)
    if entry is None:  # pragma: no cover - SCC is reachable by construction
        raise VerificationError("winning SCC unreachable from seeds")

    prefix: list = []
    cursor = entry
    while parent[cursor] is not None:
        prev, label = parent[cursor]  # type: ignore[misc]
        prefix.append(label)
        cursor = prev
    prefix.reverse()
    seed_state = cursor

    # --- cycle: closed walk covering the SCC's recurrent edge union
    # (and, under SSYNC, its activation union) ---------------------------
    union: set = set()
    for _state, label, _succ in internal:
        union.update(cover_set(label))
    remaining = set(union)
    cover: list[_InternalTransition] = []
    pool = list(internal)
    while remaining:
        best = max(pool, key=lambda tr: len(cover_set(tr[1]) & remaining))
        gain = cover_set(best[1]) & remaining
        if not gain:  # pragma: no cover - remaining ⊆ union by construction
            raise VerificationError("cover construction stalled")
        cover.append(best)
        remaining -= gain
    if not cover:
        cover = [internal[0]]

    adjacency: dict[SysState, list[tuple]] = {}
    for state, label, succ in internal:
        adjacency.setdefault(state, []).append((label, succ))

    def internal_path(src: SysState, dst: SysState) -> list:
        """Labels of a shortest internal walk src → dst within the SCC."""
        if src == dst:
            return []
        back: dict[SysState, tuple] = {}
        bfs: deque[SysState] = deque([src])
        seen = {src}
        while bfs:
            node = bfs.popleft()
            for label, succ in adjacency.get(node, ()):
                if succ in seen:
                    continue
                seen.add(succ)
                back[succ] = (node, label)
                if succ == dst:
                    bfs.clear()
                    break
                bfs.append(succ)
        if dst not in back:  # pragma: no cover - SCC is strongly connected
            raise VerificationError("SCC internal path missing")
        labels: list = []
        node = dst
        while node != src:
            prev, label = back[node]
            labels.append(label)
            node = prev
        labels.reverse()
        return labels

    cycle: list = []
    cursor = entry
    for state, label, succ in cover:
        cycle.extend(internal_path(cursor, state))
        cycle.append(label)
        cursor = succ
    cycle.extend(internal_path(cursor, entry))

    if ssync:
        prefix_edges = tuple(label[0] for label in prefix)
        cycle_edges = tuple(label[0] for label in cycle)
        prefix_activations = tuple(label[1] for label in prefix)
        cycle_activations = tuple(label[1] for label in cycle)
    else:
        prefix_edges = tuple(prefix)
        cycle_edges = tuple(cycle)
        prefix_activations = None
        cycle_activations = None

    realized_union: set[EdgeId] = set()
    for step in cycle_edges:
        realized_union.update(step)
    missing = topology.all_edges - realized_union

    return TrapCertificate(
        algorithm_name=algorithm.name,
        topology=topology,
        chiralities=chiralities,
        seed_positions=seed_state[0],
        prefix=prefix_edges,
        cycle=cycle_edges,
        starved_node=target,
        eventually_missing=frozenset(missing),
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
