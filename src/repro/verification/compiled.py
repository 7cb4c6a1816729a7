"""The compiled-tables core: packed states and flat transition tables.

One compilation, two consumers. Everything that turns a
``(topology, algorithm, chirality-vector)`` triple into flat integer
tables lives here, shared by the two execution machines built on top:

* the **game solver** — :class:`~repro.verification.kernel.PackedKernel`
  subclasses :class:`CompiledTables` and adds adversarial move
  enumeration plus reachability (the exact path's fast backend);
* the **simulation runner** — :mod:`repro.scenarios.simulate` replays
  the flat tables (:meth:`CompiledTables.simulation_tables`) against a
  precompiled schedule's edge-bitmask array (the schedule-dynamics
  campaigns' fast backend).

The compilation itself, once per ``(topology, algorithm,
chirality-vector)``:

* a product state ``(positions, states)`` becomes a single ``int``: robot
  ``i`` contributes slot ``position * S + state_index`` at radix
  ``n * S`` (``S`` = size of the algorithm's reachable state table);
* a present-edge set becomes an edge *bitmask* (and an activated-robot
  set an activation bitmask above the edge bits, see
  :attr:`CompiledTables.act_shift`);
* the whole Look–Compute logic collapses into ``transitions[s * 8 +
  view_index]`` (for :class:`~repro.robots.algorithms.tables
  .TableAlgorithm` this is literally the raw table via
  :meth:`~repro.robots.algorithms.tables.TableAlgorithm.packed_tables`;
  for every other finite-state algorithm the table is built by closing
  ``Algorithm.compute`` over all 8 views);
* per (chirality, node) the local left/right port masks and per
  (chirality, node, dir-bit) the pointed-edge mask and landing node are
  precomputed, using the *same*
  :func:`repro.sim.engine.local_ports` helper the simulator's Look phase
  uses.

Algorithm-independent tables (per-node port masks, placements, seed
states, mask↔edge-set decodings) are cached process-wide: sweeps build
one compilation per table, and without the caches the per-table setup
would dominate the tiny per-table graphs.

``step_packed`` is differentially tested against both
``ProductSystem.step`` and ``step_fsync``/``step_ssync``
(``tests/test_packed_kernel.py``, ``tests/test_engine_ssync_consistency
.py``), so the "solver and simulator can never disagree" invariant spans
engine oracle → object product → compiled tables, and every consumer of
this module inherits it.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional, Sequence

from repro.errors import VerificationError
from repro.graph.topology import (
    RingTopology,
    Topology,
    canonical_placements,
    towerless_placements,
)
from repro.robots.algorithms.base import Algorithm
from repro.robots.algorithms.tables import TableAlgorithm
from repro.robots.view import ALL_VIEWS
from repro.sim import SCHEDULERS
from repro.sim.engine import local_ports
from repro.types import Chirality, Direction, EdgeId, NodeId, RobotId

PackedState = int
"""A product state packed into one integer (see module docstring)."""

PackedTransition = tuple[int, PackedState]
"""An adversary move label and the resulting packed state.

The label is an edge bitmask under FSYNC; under SSYNC it additionally
carries the activation bitmask above the edge bits (see module
docstring). :meth:`CompiledTables.split_move` decodes either."""


def check_scheduler(scheduler: str) -> str:
    """Validate a scheduler name (shared by kernel, product, game, sweeps)."""
    if scheduler not in SCHEDULERS:
        raise VerificationError(
            f"unknown scheduler {scheduler!r}; choose from {SCHEDULERS}"
        )
    return scheduler

SysState = tuple[tuple[NodeId, ...], tuple[Hashable, ...]]
"""Object-level product state, as in :mod:`repro.verification.product`."""

_DIR_BIT = {Direction.LEFT: 0, Direction.RIGHT: 1}
_BIT_DIR = (Direction.LEFT, Direction.RIGHT)

#: Hard cap on the per-robot state table built by the generic closure; a
#: "finite-state" algorithm whose closure exceeds this is refused rather
#: than ground through (the packed encoding would stop paying off anyway).
STATE_TABLE_LIMIT = 1 << 16

# ----------------------------------------------------------------------
# Process-wide caches for everything that does NOT depend on the
# algorithm. Sweeps build one compilation per table; without these caches
# the per-table setup would dominate the tiny per-table graphs.
# Topologies are immutable and hash by (type, n), so keys stay small and
# exact.
# ----------------------------------------------------------------------
_NodeTables = tuple[
    tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[NodeId, ...]
]
_node_table_cache: dict[tuple[Topology, Chirality], _NodeTables] = {}
_mask_edges_cache_by_topology: dict[Topology, dict[int, frozenset[EdgeId]]] = {}
_placement_cache: dict[tuple[Topology, int], tuple[tuple[NodeId, ...], ...]] = {}
_table_state_cache: dict[int, tuple[tuple[Hashable, ...], dict[Hashable, int]]] = {}
_seed_cache: dict[tuple[Topology, int, int, int], tuple[PackedState, ...]] = {}


def _node_tables(topology: Topology, chirality: Chirality) -> _NodeTables:
    """Per-(topology, chirality) node tables: local port masks and moves."""
    key = (topology, chirality)
    cached = _node_table_cache.get(key)
    if cached is not None:
        return cached
    left_masks: list[int] = []
    right_masks: list[int] = []
    move_masks: list[int] = []
    move_dests: list[NodeId] = []
    for node in range(topology.n):
        left_port, right_port = local_ports(topology, node, chirality)
        left_masks.append(0 if left_port is None else 1 << left_port)
        right_masks.append(0 if right_port is None else 1 << right_port)
        for dir_bit in (0, 1):
            global_dir = chirality.to_global(_BIT_DIR[dir_bit])
            port = topology.port(node, global_dir)
            landing = topology.neighbor(node, global_dir)
            move_masks.append(0 if port is None else 1 << port)
            move_dests.append(node if landing is None else landing)
    tables = (
        tuple(left_masks),
        tuple(right_masks),
        tuple(move_masks),
        tuple(move_dests),
    )
    _node_table_cache[key] = tables
    return tables


def _default_placements(
    topology: Topology, k: int
) -> tuple[tuple[NodeId, ...], ...]:
    """Memoized well-initiated placements (rotation-reduced on rings)."""
    key = (topology, k)
    cached = _placement_cache.get(key)
    if cached is None:
        if isinstance(topology, RingTopology):
            cached = tuple(canonical_placements(topology, k))
        else:
            cached = tuple(towerless_placements(topology, k))
        _placement_cache[key] = cached
    return cached


def _close_state_table(
    algorithm: Algorithm,
) -> tuple[tuple[Hashable, ...], dict[Hashable, int], tuple[int, ...], tuple[int, ...]]:
    """Close ``compute`` over all 8 views into flat integer tables.

    Returns ``(state_objects, state_index, transitions, dir_bits)`` with
    the initial state at index 0. For :class:`TableAlgorithm` the raw
    table is used directly — no recomputation, no interpretation drift.
    """
    if isinstance(algorithm, TableAlgorithm):
        state_count, transitions, dir_bits = algorithm.packed_tables()
        cached = _table_state_cache.get(state_count)
        if cached is None:
            objects = tuple(
                algorithm.state_for_index(s) for s in range(state_count)
            )
            index = {obj: s for s, obj in enumerate(objects)}
            _table_state_cache[state_count] = cached = (objects, index)
        objects, index = cached
        return objects, index, transitions, dir_bits

    initial = algorithm.initial_state()
    algorithm.check_state(initial)
    objects: list[Hashable] = [initial]
    index: dict[Hashable, int] = {initial: 0}
    rows: list[list[int]] = []
    cursor = 0
    while cursor < len(objects):
        state = objects[cursor]
        cursor += 1
        row = []
        for view in ALL_VIEWS:
            successor = algorithm.compute(state, view)
            s = index.get(successor)
            if s is None:
                algorithm.check_state(successor)
                s = len(objects)
                if s >= STATE_TABLE_LIMIT:
                    raise VerificationError(
                        f"state closure of {algorithm.name!r} exceeds "
                        f"{STATE_TABLE_LIMIT} states; not packable"
                    )
                index[successor] = s
                objects.append(successor)
            row.append(s)
        rows.append(row)
    transitions = tuple(value for row in rows for value in row)
    dir_bits = tuple(_DIR_BIT[getattr(state, "dir")] for state in objects)
    return tuple(objects), index, transitions, dir_bits


class CompiledTables:
    """One compiled (topology, algorithm, chirality-vector) footprint.

    The shared substrate of the packed execution machines: states are
    single ints, edge/activation sets are bitmasks, Look–Compute is a
    flat table lookup. This class performs *no* adversarial move
    enumeration and holds *no* game graph — it only answers "what does
    one round do" (:meth:`step_packed`, :meth:`simulation_tables`) and
    translates between the packed and object-level worlds
    (:meth:`encode`/:meth:`decode`, :meth:`edges_to_mask`/
    :meth:`mask_to_edges`, :meth:`split_move`).
    """

    def __init__(
        self,
        topology: Topology,
        algorithm: Algorithm,
        chiralities: Sequence[Chirality],
        max_states: int = 2_000_000,
        scheduler: str = "fsync",
    ) -> None:
        if not algorithm.is_finite_state:
            raise VerificationError(
                f"algorithm {algorithm.name!r} declares an infinite state space"
            )
        self.topology = topology
        self.algorithm = algorithm
        self.chiralities = tuple(chiralities)
        self.k = len(self.chiralities)
        if self.k < 1:
            raise VerificationError("need at least one robot")
        self.max_states = max_states
        self.scheduler = check_scheduler(scheduler)
        self.n = topology.n
        self.m = topology.edge_count
        self.full_mask = (1 << self.m) - 1
        #: Bit position of the activation mask inside an SSYNC move label.
        self.act_shift = self.m
        #: The everyone-active robot bitmask.
        self.full_act = (1 << self.k) - 1

        (
            self._state_objects,
            self._state_index,
            self._transitions,
            self._dir_bits,
        ) = _close_state_table(algorithm)
        self.state_count = len(self._state_objects)
        self._base = self.n * self.state_count

        # Per-chirality node tables; robots alias their chirality's tables.
        # All algorithm-independent tables are shared process-wide so that
        # sweeps (one compilation per table) pay the setup only once.
        self._robot_tables = tuple(
            _node_tables(topology, chirality) for chirality in self.chiralities
        )
        self._mask_edges_cache = _mask_edges_cache_by_topology.setdefault(
            topology, {}
        )
        self._batch_tables: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(self, state: SysState) -> PackedState:
        """Pack an object-level ``(positions, states)`` product state."""
        positions, states = state
        if len(positions) != self.k or len(states) != self.k:
            raise VerificationError(
                f"state arity {len(positions)}/{len(states)} != k={self.k}"
            )
        packed = 0
        for i in range(self.k - 1, -1, -1):
            s = self._state_index.get(states[i])
            if s is None:
                raise VerificationError(
                    f"robot state {states[i]!r} is outside the packed state "
                    f"table of {self.algorithm.name!r}"
                )
            packed = packed * self._base + positions[i] * self.state_count + s
        return packed

    def decode(self, packed: PackedState) -> SysState:
        """Unpack to the object-level ``(positions, states)`` form."""
        positions: list[NodeId] = []
        states: list[Hashable] = []
        for _ in range(self.k):
            packed, slot = divmod(packed, self._base)
            position, s = divmod(slot, self.state_count)
            positions.append(position)
            states.append(self._state_objects[s])
        return tuple(positions), tuple(states)

    def positions_of(self, packed: PackedState) -> tuple[NodeId, ...]:
        """Just the robot positions of a packed state."""
        positions: list[NodeId] = []
        for _ in range(self.k):
            packed, slot = divmod(packed, self._base)
            positions.append(slot // self.state_count)
        return tuple(positions)

    def occupied_mask(self, packed: PackedState) -> int:
        """Bitmask of nodes occupied in a packed state."""
        occupied = 0
        for _ in range(self.k):
            packed, slot = divmod(packed, self._base)
            occupied |= 1 << slot // self.state_count
        return occupied

    def edges_to_mask(self, edges: Iterable[EdgeId]) -> int:
        """Bitmask of an edge set."""
        mask = 0
        for edge in edges:
            self.topology.check_edge(edge)
            mask |= 1 << edge
        return mask

    def mask_to_edges(self, mask: int) -> frozenset[EdgeId]:
        """Edge set of a bitmask (memoized; masks repeat heavily)."""
        cached = self._mask_edges_cache.get(mask)
        if cached is None:
            cached = frozenset(
                edge for edge in range(self.m) if mask >> edge & 1
            )
            self._mask_edges_cache[mask] = cached
        return cached

    def split_move(self, label: int) -> tuple[int, int]:
        """The ``(edge-mask, activation-mask)`` parts of a transition label.

        Under FSYNC the label *is* the edge mask and the activation mask
        is constantly "everyone"; under SSYNC both parts are packed into
        the label (edges low, activations from :attr:`act_shift` up).
        """
        if self.scheduler == "ssync":
            return label & self.full_mask, label >> self.act_shift
        return label, self.full_act

    def move_edges(self, label: int) -> frozenset[EdgeId]:
        """The present-edge set of a transition label (either scheduler)."""
        return self.mask_to_edges(label & self.full_mask)

    def move_activations(self, label: int) -> frozenset[RobotId]:
        """The activated-robot set of a transition label (either scheduler)."""
        _edges, act = self.split_move(label)
        return frozenset(
            robot for robot in range(self.k) if act >> robot & 1
        )

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def _state_tables(
        self, state: PackedState
    ) -> tuple[list[int], int, list[tuple]]:
        """Mask-independent per-state tables, shared by the reachability
        loops of :class:`~repro.verification.kernel.PackedKernel` (runs
        once per state, never per move).

        Returns ``(idle_slots, occupied, per_robot)``: each robot's
        current ``position * S + state_index`` slot (what an inactive
        SSYNC robot contributes to the successor), the occupied-node
        bitmask, and — in robot index order — the per-robot move tuple
        ``(position, view row with the multiplicity bit folded in, left
        port mask, right port mask, pointer row, move masks, move
        dests)``.
        """
        base = self._base
        state_count = self.state_count
        positions: list[NodeId] = []
        idle_slots: list[int] = []
        rows: list[int] = []
        x = state
        for _ in range(self.k):
            x, slot = divmod(x, base)
            position, s = divmod(slot, state_count)
            positions.append(position)
            idle_slots.append(slot)
            rows.append(s * 8)
        occupied = 0
        towers = 0
        for position in positions:
            bit = 1 << position
            if occupied & bit:
                towers |= bit
            occupied |= bit
        per_robot: list[tuple] = []
        for i in range(self.k):
            position = positions[i]
            left_masks, right_masks, move_masks, move_dests = self._robot_tables[i]
            view = rows[i]
            if towers >> position & 1:
                view += 1
            per_robot.append(
                (
                    position,
                    view,
                    left_masks[position],
                    right_masks[position],
                    position * 2,
                    move_masks,
                    move_dests,
                )
            )
        return idle_slots, occupied, per_robot

    def step_packed(
        self,
        packed: PackedState,
        present_mask: int,
        act_mask: Optional[int] = None,
    ) -> tuple[PackedState, tuple[bool, ...]]:
        """One round on packed data; returns (successor, moved flags).

        ``act_mask`` is the activated-robot bitmask of a semi-synchronous
        round (``None`` = everyone, the FSYNC round). Inactive robots keep
        their position *and* state — they still count for multiplicity
        detection, exactly as in :func:`repro.sim.semi_sync.step_ssync`.
        """
        if act_mask is None:
            act_mask = self.full_act
        base = self._base
        state_count = self.state_count
        positions: list[NodeId] = []
        states_idx: list[int] = []
        x = packed
        for _ in range(self.k):
            x, slot = divmod(x, base)
            position, s = divmod(slot, state_count)
            positions.append(position)
            states_idx.append(s)
        occupied = 0
        towers = 0
        for position in positions:
            bit = 1 << position
            if occupied & bit:
                towers |= bit
            occupied |= bit
        transitions = self._transitions
        dir_bits = self._dir_bits
        successor = 0
        moved = [False] * self.k
        for i in range(self.k - 1, -1, -1):
            position = positions[i]
            if not act_mask >> i & 1:
                successor = successor * base + position * state_count + states_idx[i]
                continue
            left_masks, right_masks, move_masks, move_dests = self._robot_tables[i]
            view = states_idx[i] * 8
            if present_mask & left_masks[position]:
                view += 4
            if present_mask & right_masks[position]:
                view += 2
            if towers >> position & 1:
                view += 1
            new_state = transitions[view]
            pointer = position * 2 + dir_bits[new_state]
            if present_mask & move_masks[pointer]:
                landing = move_dests[pointer]
                moved[i] = True
            else:
                landing = position
            successor = successor * base + landing * state_count + new_state
        return successor, tuple(moved)

    def simulation_tables(
        self,
    ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[_NodeTables, ...], int]:
        """The flat tables a bounded simulation loop consumes directly.

        Returns ``(transitions, dir_bits, robot_tables, initial_index)``:
        the Look–Compute table (``transitions[s * 8 + view_index]``), the
        per-state direction bits, the per-robot ``(left port masks, right
        port masks, pointed-edge masks, landing nodes)`` node tables, and
        the initial state's index. A horizon-bounded runner
        (:mod:`repro.scenarios.simulate`) keeps per-robot position/state
        arrays in place and consults these tables per round — the same
        compiled data :meth:`step_packed` reads, without the packed
        encode/decode per step that a graph search needs and a linear
        replay does not.
        """
        return (
            self._transitions,
            self._dir_bits,
            self._robot_tables,
            self._state_index[self.algorithm.initial_state()],
        )

    def batch_tables(self) -> tuple:
        """ndarray views of the flat tables, for the vector backend.

        Returns ``(transitions, dir_bits, initial_index)`` with the two
        tables as int64 ndarrays — consumed by the vector game solver's
        single-instance path (:mod:`repro.verification.batch_solver`:
        one instance's next-slot tables, or its dense successor tensor).
        Whole chunks of table families skip per-table compilation: both
        vector chunk runners decode their stacks straight from the bit
        patterns (:func:`repro.verification.sweeps.family_stack`).
        Cached per instance like the scalar tables.
        """
        if self._batch_tables is None:
            from repro.verification import batch

            self._batch_tables = batch.as_batch_arrays(
                self._transitions,
                self._dir_bits,
                self._state_index[self.algorithm.initial_state()],
            )
        return self._batch_tables

    def step(
        self,
        state: SysState,
        present: frozenset[EdgeId],
        active: Optional[Iterable[RobotId]] = None,
    ) -> SysState:
        """Object-level convenience wrapper around :meth:`step_packed`."""
        if active is None:
            act_mask = None
        else:
            # OR, not sum: a duplicated robot id must be idempotent, not
            # silently activate a different robot.
            act_mask = 0
            for robot in active:
                act_mask |= 1 << robot
        successor, _moved = self.step_packed(
            self.encode(state), self.edges_to_mask(present), act_mask
        )
        return self.decode(successor)

    # ------------------------------------------------------------------
    # Initial states
    # ------------------------------------------------------------------
    def initial_states(
        self, placements: Optional[Iterable[Sequence[NodeId]]] = None
    ) -> list[PackedState]:
        """Packed well-initiated start states (γ_0 candidates).

        Same defaulting as :meth:`ProductSystem.initial_states`: every
        towerless placement, rotation-reduced on rings; robot states are
        the algorithm's initial state (index 0 in the packed table).
        """
        initial = self.algorithm.initial_state()
        initial_index = self._state_index[initial]
        base = self._base
        state_count = self.state_count
        if placements is None:
            # Seeds depend only on (topology, k, packing radix, initial
            # index) — identical for every table of a sweep family.
            key = (self.topology, self.k, base, initial_index)
            cached = _seed_cache.get(key)
            if cached is None:
                cached = tuple(
                    self._encode_placement(p, initial_index)
                    for p in _default_placements(self.topology, self.k)
                )
                _seed_cache[key] = cached
            return list(cached)
        seeds = []
        for placement in placements:
            seeds.append(self._encode_placement(placement, initial_index))
        return seeds

    def encode_placement(self, placement: Sequence[NodeId]) -> PackedState:
        """Pack one placement with every robot in the initial state."""
        initial_index = self._state_index[self.algorithm.initial_state()]
        return self._encode_placement(placement, initial_index)

    def _encode_placement(
        self, placement: Sequence[NodeId], initial_index: int
    ) -> PackedState:
        """Pack a placement with every robot in the initial state."""
        if len(placement) != self.k:
            raise VerificationError(
                f"placement {tuple(placement)} has arity {len(placement)}, "
                f"want k={self.k}"
            )
        packed = 0
        for position in reversed(tuple(placement)):
            packed = packed * self._base + position * self.state_count + initial_index
        return packed


__all__ = [
    "CompiledTables",
    "PackedState",
    "PackedTransition",
    "STATE_TABLE_LIMIT",
    "SysState",
    "check_scheduler",
]
