"""The packed-state verification kernel: the solver's fast path.

The object-level product system (:mod:`repro.verification.product`) drives
:func:`repro.sim.engine.step_fsync` per transition, allocating a
``Configuration``, a tuple of ``LocalView`` objects and several frozensets
per successor. That is the right *oracle*, but millions of transitions per
sweep make it the wrong hot loop.

The packed machinery is split in two. The *compilation* — packed-state
encoding, flat Look–Compute transition tables, per-(chirality, node)
port/edge masks, SSYNC identity handling — lives in
:mod:`repro.verification.compiled` (:class:`CompiledTables`), where the
simulation chunk runner (:mod:`repro.scenarios.simulate`) shares it.
This module is the *game-solver consumer* of that compilation:
:class:`PackedKernel` subclasses :class:`CompiledTables` and adds what
only the exact solver needs — adversarial move enumeration
(:meth:`~PackedKernel.moves_for_occupied`) and labeled reachability
(:meth:`~PackedKernel.reachable`), entirely on ints with zero
per-transition object allocation. The kernel is differentially tested
against both ``ProductSystem.step`` and ``step_fsync``
(``tests/test_packed_kernel.py``) so the "solver and simulator can never
disagree" invariant spans three mutually-checking implementations:
engine oracle → object product → packed kernel.

Move enumeration mirrors the object path's normalization exactly (all
edges not adjacent to an occupied node are always present; adjacent edges
range over all subsets, in the same order), so
``ProductSystem(backend="packed").reachable()`` decodes to a graph
*identical* to the object backend's — same states, same per-state
transition order.

**Schedulers.** The adversary move is really a *(edge-mask,
activation-mask)* pair. Under ``scheduler="fsync"`` (the default) the
activation mask is constantly "everyone", so it is not materialized and
transition labels are bare edge bitmasks — bit-for-bit the historical
tables. Under ``scheduler="ssync"`` the adversary also picks which
non-empty robot subset performs its atomic Look–Compute–Move cycle this
round (the semi-synchronous model of Di Luna et al.); a transition label
packs both choices into one int, edge bits low, activation bits at
:attr:`CompiledTables.act_shift`. Inactive robots contribute identity
transitions (position and state unchanged); *fairness* — every robot
activated infinitely often — is not a per-move constraint but a property
of infinite plays, enforced by the game solver's winning-SCC criterion
(:mod:`repro.verification.game`). Use :meth:`CompiledTables.split_move` /
:meth:`~CompiledTables.move_edges` /
:meth:`~CompiledTables.move_activations` to read a label without caring
which scheduler produced it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import VerificationError
from repro.graph.topology import Topology
from repro.verification.compiled import (
    STATE_TABLE_LIMIT,
    CompiledTables,
    PackedState,
    PackedTransition,
    SysState,
    check_scheduler,
)

# Per-topology cache of normalized adversary move sets. Like the
# compilation caches, moves depend only on (topology, occupied mask), so
# every kernel of a sweep shares one dict.
_moves_cache_by_topology: dict[Topology, dict[int, tuple[int, ...]]] = {}


class PackedKernel(CompiledTables):
    """Packed transition system for one (topology, algorithm, chirality).

    Semantically equivalent to
    :class:`~repro.verification.product.ProductSystem` restricted to the
    same chirality vector; representationally, states are ints and moves
    are bit-packed ``(edge-mask, activation-mask)`` pairs (the activation
    part exists only under ``scheduler="ssync"``). The encoding, the
    round semantics and the object-level translation are inherited from
    :class:`~repro.verification.compiled.CompiledTables`; this class adds
    the game side — adversary move enumeration and labeled reachability.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._moves_cache = _moves_cache_by_topology.setdefault(
            self.topology, {}
        )

    # ------------------------------------------------------------------
    # Adversary moves
    # ------------------------------------------------------------------
    def moves_for_occupied(self, occupied: int) -> tuple[int, ...]:
        """Normalized present-edge masks for an occupied-node bitmask.

        Same normalization, same enumeration order as
        :meth:`ProductSystem.adversary_moves`: non-adjacent edges always
        present, adjacent edges over all subsets (relevant edges collected
        node-ascending, (CCW, CW) per node).
        """
        cached = self._moves_cache.get(occupied)
        if cached is not None:
            return cached
        relevant: list[int] = []
        seen = 0
        for node in range(self.n):
            if not occupied >> node & 1:
                continue
            for edge in self.topology.incident_edges(node):
                if edge is not None:
                    bit = 1 << edge
                    if not seen & bit:
                        seen |= bit
                        relevant.append(bit)
        base = self.full_mask & ~seen
        count = len(relevant)
        moves = []
        for choice in range(1 << count):
            present = base
            for i in range(count):
                if choice >> i & 1:
                    present |= relevant[i]
            moves.append(present)
        result = tuple(moves)
        self._moves_cache[occupied] = result
        return result

    def padded_moves(self, occupied_values: Sequence[int]) -> tuple:
        """Padded ndarray view of the adversary move enumeration.

        The vector solver's counterpart of
        :meth:`CompiledTables.batch_tables`: row ``p`` holds
        :meth:`moves_for_occupied` of ``occupied_values[p]`` padded to
        the longest enumeration by repeating move 0 — the always-valid
        all-non-adjacent-edges mask, so the padding duplicates a real
        transition and stays harmless for reachability and label unions.
        Returns ``(moves_pad, mcount)``: the int64 ``(len, width)`` table
        and each row's unpadded length (the valid prefix, for CSR
        extraction).
        """
        import numpy as np

        rows = [self.moves_for_occupied(occ) for occ in occupied_values]
        width = max(len(row) for row in rows)
        moves_pad = np.empty((len(rows), width), dtype=np.int64)
        mcount = np.empty(len(rows), dtype=np.int64)
        for p, row in enumerate(rows):
            count = len(row)
            moves_pad[p, :count] = row
            if count < width:
                moves_pad[p, count:] = row[0]
            mcount[p] = count
        return moves_pad, mcount

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------
    def reachable(
        self,
        seeds: Optional[list[PackedState]] = None,
        occupied_out: Optional[dict[PackedState, int]] = None,
    ) -> dict[PackedState, list[PackedTransition]]:
        """The reachable labeled transition graph, entirely on ints.

        Traversal order, per-state move order and the ``max_states`` guard
        all match the object path exactly, so the decoded graph is
        indistinguishable from ``ProductSystem.reachable``'s. Pass a dict
        as ``occupied_out`` to also collect each state's occupied-node
        bitmask (computed here anyway; the solver needs it per target).
        """
        if seeds is None:
            seeds = self.initial_states()
        graph: dict[PackedState, list[PackedTransition]] = {}
        frontier: list[PackedState] = []
        for seed in seeds:
            if seed not in graph:
                graph[seed] = []
                frontier.append(seed)
        if self.scheduler == "ssync":
            return self._reachable_ssync(graph, frontier, occupied_out)
        if self.k == 1:
            return self._reachable_k1(graph, frontier, occupied_out)

        base = self._base
        state_count = self.state_count
        transitions = self._transitions
        dir_bits = self._dir_bits
        max_states = self.max_states
        moves_cache = self._moves_cache
        moves_for_occupied = self.moves_for_occupied
        state_tables = self._state_tables

        while frontier:
            state = frontier.pop()
            out = graph[state]
            # Everything mask-independent is hoisted out of the move loop
            # (reversed: the successor is composed high slot first).
            _idle_slots, occupied, per_robot_fwd = state_tables(state)
            per_robot = per_robot_fwd[::-1]
            if occupied_out is not None:
                occupied_out[state] = occupied
            moves = moves_cache.get(occupied)
            if moves is None:
                moves = moves_for_occupied(occupied)
            for mask in moves:
                successor = 0
                for position, view, lmask, rmask, pointer_row, mm, md in per_robot:
                    if mask & lmask:
                        view += 4
                    if mask & rmask:
                        view += 2
                    new_state = transitions[view]
                    pointer = pointer_row + dir_bits[new_state]
                    if mask & mm[pointer]:
                        landing = md[pointer]
                    else:
                        landing = position
                    successor = successor * base + landing * state_count + new_state
                out.append((mask, successor))
                if successor not in graph:
                    if len(graph) >= max_states:
                        raise VerificationError(
                            f"reachable state space exceeds {max_states} states "
                            f"for {self.algorithm.name!r} on {self.topology!r}"
                        )
                    graph[successor] = []
                    frontier.append(successor)
        return graph

    def _reachable_ssync(
        self,
        graph: dict[PackedState, list[PackedTransition]],
        frontier: list[PackedState],
        occupied_out: Optional[dict[PackedState, int]],
    ) -> dict[PackedState, list[PackedTransition]]:
        """Semi-synchronous body of :meth:`reachable`.

        Per state the move loop is the FSYNC edge-mask enumeration crossed
        with every non-empty activation subset, in ascending activation-
        mask order. The per-robot Look–Compute–Move outcome depends only
        on the edge mask, so it is computed once per (state, edge mask)
        and activation subsets merely select between the active landing
        slot and the robot's untouched current slot.
        """
        k = self.k
        base = self._base
        state_count = self.state_count
        transitions = self._transitions
        dir_bits = self._dir_bits
        max_states = self.max_states
        moves_cache = self._moves_cache
        moves_for_occupied = self.moves_for_occupied
        act_shift = self.act_shift
        full_act = self.full_act
        state_tables = self._state_tables
        robot_range = tuple(range(k - 1, -1, -1))

        while frontier:
            state = frontier.pop()
            out = graph[state]
            idle_slots, occupied, per_robot = state_tables(state)
            if occupied_out is not None:
                occupied_out[state] = occupied
            moves = moves_cache.get(occupied)
            if moves is None:
                moves = moves_for_occupied(occupied)
            for mask in moves:
                active_slots: list[int] = []
                for position, view, lmask, rmask, pointer_row, mm, md in per_robot:
                    if mask & lmask:
                        view += 4
                    if mask & rmask:
                        view += 2
                    new_state = transitions[view]
                    pointer = pointer_row + dir_bits[new_state]
                    if mask & mm[pointer]:
                        landing = md[pointer]
                    else:
                        landing = position
                    active_slots.append(landing * state_count + new_state)
                for act in range(1, full_act + 1):
                    successor = 0
                    for i in robot_range:
                        slot = (
                            active_slots[i]
                            if act >> i & 1
                            else idle_slots[i]
                        )
                        successor = successor * base + slot
                    out.append((mask | act << act_shift, successor))
                    if successor not in graph:
                        if len(graph) >= max_states:
                            raise VerificationError(
                                f"reachable state space exceeds {max_states} "
                                f"states for {self.algorithm.name!r} on "
                                f"{self.topology!r}"
                            )
                        graph[successor] = []
                        frontier.append(successor)
        return graph

    def _reachable_k1(
        self,
        graph: dict[PackedState, list[PackedTransition]],
        frontier: list[PackedState],
        occupied_out: Optional[dict[PackedState, int]],
    ) -> dict[PackedState, list[PackedTransition]]:
        """Single-robot body of :meth:`reachable`.

        With k = 1 a packed state is just ``position * S + state_index``,
        multiplicity never fires and there is no per-robot loop — worth a
        dedicated loop because single-robot sweeps run it 256 times per
        ring size.
        """
        state_count = self.state_count
        transitions = self._transitions
        dir_bits = self._dir_bits
        left_masks, right_masks, move_masks, move_dests = self._robot_tables[0]
        max_states = self.max_states
        moves_cache = self._moves_cache
        moves_for_occupied = self.moves_for_occupied

        while frontier:
            state = frontier.pop()
            out = graph[state]
            position, s = divmod(state, state_count)
            occupied = 1 << position
            if occupied_out is not None:
                occupied_out[state] = occupied
            row = s * 8
            lmask = left_masks[position]
            rmask = right_masks[position]
            pointer_row = position * 2
            landing_base = position * state_count
            moves = moves_cache.get(occupied)
            if moves is None:
                moves = moves_for_occupied(occupied)
            for mask in moves:
                view = row
                if mask & lmask:
                    view += 4
                if mask & rmask:
                    view += 2
                new_state = transitions[view]
                pointer = pointer_row + dir_bits[new_state]
                if mask & move_masks[pointer]:
                    successor = move_dests[pointer] * state_count + new_state
                else:
                    successor = landing_base + new_state
                out.append((mask, successor))
                if successor not in graph:
                    if len(graph) >= max_states:
                        raise VerificationError(
                            f"reachable state space exceeds {max_states} states "
                            f"for {self.algorithm.name!r} on {self.topology!r}"
                        )
                    graph[successor] = []
                    frontier.append(successor)
        return graph

    def decode_graph(
        self, graph: dict[PackedState, list[PackedTransition]]
    ) -> dict[SysState, list[tuple]]:
        """Decode a packed graph into the object-level representation.

        FSYNC labels decode to present-edge frozensets; SSYNC labels to
        ``(present-edges, activated-robots)`` pairs — matching the object
        backend's label shape under either scheduler.
        """
        decoded = {state: self.decode(state) for state in graph}
        result: dict[SysState, list[tuple]] = {}
        if self.scheduler == "ssync":
            for state, out in graph.items():
                result[decoded[state]] = [
                    (
                        (self.move_edges(label), self.move_activations(label)),
                        decoded[successor],
                    )
                    for label, successor in out
                ]
            return result
        for state, out in graph.items():
            result[decoded[state]] = [
                (self.mask_to_edges(mask), decoded[successor])
                for mask, successor in out
            ]
        return result


__all__ = [
    "PackedState",
    "PackedTransition",
    "PackedKernel",
    "STATE_TABLE_LIMIT",
    "check_scheduler",
]
