"""The simulation chunk runner: schedule-dynamics campaigns, table by table.

The exact game solver quantifies over *every* connected-over-time
adversary (``dynamics="highly-dynamic"``). The restricted dynamicity
classes of the paper's related work — periodic rings (Ilcinkas–Wade),
T-interval-connected rings (Kuhn–Lynch–Oshman; Di Luna et al.), random
presence — are a different kind of question: one *fixed* evolving graph,
pinned by the spec's family + params + seed, against which every table of
a robot class is **simulated** over a bounded horizon. This module is the
execution path for those workloads, shaped exactly like
:func:`repro.verification.sweeps.sweep_chunk` so the campaign store,
resume, dedup and report machinery apply unchanged:

* :func:`simulate_chunk` — verify one chunk of table bit-patterns against
  the spec's schedule; returns the same ``(total, trapped, explorers,
  states)`` tally tuple the verification path checkpoints (``states``
  counts simulated rounds — the work proxy of this path);
* one table is **trapped** when *some* chirality vector of the family's
  fallback plan and *some* start placement fails the bounded-horizon
  exploration check — the same universal quantification the solver
  applies, evaluated on the concrete schedule;
* the bounded-horizon check mirrors the two game properties:
  ``prop="live"`` demands every node visited at least once within the
  horizon; ``prop="perpetual"`` demands every node visited in *both*
  halves of the horizon (a finite recurrence proxy: visits that stop
  after the first half fail it).

**Backends.** Like the exact path, the simulation path has multiple
execution substrates with one semantics:

* ``backend="vector"`` (the fastest, on NumPy — a required
  dependency) decodes the chunk's bit patterns straight into one table
  stack, folds each distinct schedule mask into a slot-transition table
  and steps all (table, chirality-vector, placement) runs of a chunk in
  NumPy lockstep — structure-of-arrays rows, one gather per robot row
  per round, per-row done masks with periodic compaction
  (:mod:`repro.verification.batch`);
* ``backend="packed"`` compiles each table once per
  chirality vector into flat integer tables
  (:class:`~repro.verification.compiled.CompiledTables` — the same
  compilation the game solver's :class:`~repro.verification.kernel
  .PackedKernel` consumes), precompiles the schedule into an edge-bitmask
  array (:func:`~repro.scenarios.dynamics.schedule_masks`) and the SSYNC
  round-robin activations into an activation-mask array, and runs the
  bounded-horizon check on packed occupancy bitsets;
* ``backend="object"`` drives :func:`repro.sim.engine.step_fsync` /
  :func:`repro.sim.semi_sync.step_ssync` per round — the semantics
  oracle, kept as the differential reference.

All backends produce byte-identical tallies (differentially tested in
``tests/test_simulate.py`` and ``tests/test_batch.py``), so the backend
is an execution detail, never part of a scenario's identity: scenario
hashes, chunk records and campaign report bytes are backend-independent,
and a campaign checkpointed under one backend resumes cleanly under any
other. ``backend="auto"`` (the default) is ``vector``; the backend
registry (:mod:`repro.verification.backends`) is the single source of
the choice set shared with the CLI and the campaign runner.

Start placements are **not** rotation-reduced here: a concrete schedule
names absolute edges at absolute times, so ring rotations are *not*
execution-isomorphic (unlike under the universally-quantified adversary).
``starts="well"`` expands to every ordered towerless placement,
``starts="arbitrary"`` to every ordered placement, towers included.

Determinism: a chunk worker rebuilds the schedule from the spec (seeded
families reproduce their draws exactly — see
:mod:`repro.scenarios.dynamics`), precomputes the horizon's present-edge
sets once, and runs each table from round 0 — so a chunk's tally is a
pure function of ``(spec, chunk)``: identical across worker counts,
backends, interrupts and hosts, which is what makes simulation campaign
reports byte-identical under resume.

Under ``scheduler="ssync"`` each round activates exactly one robot,
round-robin (``t mod k``) — a deterministic, fair activation schedule
(every robot acts every ``k`` rounds), the oblivious counterpart of the
solver's adversarial activation subsets.
"""

from __future__ import annotations

import itertools
import time
from typing import Optional, Sequence

from repro import telemetry
from repro.graph.topology import RingTopology, towerless_placements
from repro.scenarios import faults
from repro.robots.algorithms.base import Algorithm
from repro.scenarios.dynamics import build_schedule, schedule_masks
from repro.scenarios.spec import ScenarioSpec
from repro.sim.engine import make_initial_configuration, step_fsync
from repro.sim.semi_sync import step_ssync
from repro.types import Chirality, EdgeId, NodeId, RobotId
from repro.verification.backends import resolve_backend
from repro.verification.compiled import CompiledTables
from repro.verification.sweeps import family_maker, family_plan, family_stack

_ChunkOutcome = tuple[int, int, list[str], int]
"""(total, trapped, explorer names in input order, rounds simulated)."""


def simulation_placements(
    starts: str, topology: RingTopology, k: int
) -> list[tuple[NodeId, ...]]:
    """Every start placement a simulated table must survive.

    Rotation reduction is deliberately absent (see the module docstring):
    ``"well"`` is all ordered towerless placements, ``"arbitrary"`` all
    ordered placements including towers.
    """
    if starts == "well":
        return list(towerless_placements(topology, k))
    return list(itertools.product(topology.nodes, repeat=k))


def _bounded_explores(
    topology: RingTopology,
    algorithm: Algorithm,
    steps: Sequence[frozenset[EdgeId]],
    activations: Optional[Sequence[frozenset[RobotId]]],
    placement: Sequence[NodeId],
    chiralities: Sequence[Chirality],
    prop: str,
) -> tuple[bool, int]:
    """One bounded run on the object engines; returns ``(explored, rounds)``.

    Early exits keep trapped tables cheap: a ``live`` run stops the round
    every node has been seen, and a ``perpetual`` run fails at mid-horizon
    if the first window already missed a node (the second window cannot
    repair it) and succeeds the round the second window completes.
    """
    configuration = make_initial_configuration(
        topology, algorithm, placement, chiralities
    )
    nodes = frozenset(topology.nodes)
    horizon = len(steps)
    mid = horizon // 2
    seen = set(configuration.positions)
    late: set[NodeId] = set()
    if prop == "live" and seen == nodes:
        return True, 0
    for t in range(horizon):
        if activations is None:
            configuration, _views, _moved = step_fsync(
                topology, algorithm, configuration, steps[t]
            )
        else:
            configuration, _views, _moved = step_ssync(
                topology, algorithm, configuration, steps[t], activations[t]
            )
        if t < mid:
            seen.update(configuration.positions)
        else:
            late.update(configuration.positions)
        if prop == "live":
            if seen | late == nodes:
                return True, t + 1
        else:
            if t + 1 == mid and seen != nodes:
                # The first window already starved a node: recurrence
                # within the horizon is unachievable, stop here.
                return False, t + 1
            if seen == nodes and late == nodes:
                return True, t + 1
    if prop == "live":
        return seen | late == nodes, horizon
    return seen == nodes and late == nodes, horizon


def _bounded_explores_packed(
    tables: CompiledTables,
    masks: Sequence[int],
    ssync: bool,
    placement: Sequence[NodeId],
    prop: str,
    full_nodes: int,
) -> tuple[bool, int]:
    """The packed twin of :func:`_bounded_explores`.

    Identical early-exit structure, identical round counts — ``seen`` and
    ``late`` are occupancy bitsets instead of node sets, and each round
    consults the compiled flat tables
    (:meth:`CompiledTables.simulation_tables`) on in-place per-robot
    position/state arrays instead of stepping an engine over frozensets.
    A robot's view reads only its own slot plus the precomputed
    multiplicity bits, so slots update in place mid-round without
    perturbing the simultaneous Look — the same order-independence
    ``step_packed`` relies on.
    """
    transitions, dir_bits, robot_tables, initial_index = (
        tables.simulation_tables()
    )
    k = tables.k
    all_robots = tuple(range(k))
    horizon = len(masks)
    mid = horizon // 2
    positions = list(placement)
    states = [initial_index] * k
    seen = 0
    for position in positions:
        seen |= 1 << position
    late = 0
    if prop == "live" and seen == full_nodes:
        return True, 0
    live = prop == "live"
    for t in range(horizon):
        mask = masks[t]
        occupied = 0
        towers = 0
        for position in positions:
            bit = 1 << position
            if occupied & bit:
                towers |= bit
            occupied |= bit
        occupancy = 0
        if ssync:
            # Round-robin SSYNC: exactly robot t mod k acts this round.
            active = (t % k,)
        else:
            active = all_robots
        for i in active:
            left_masks, right_masks, move_masks, move_dests = robot_tables[i]
            position = positions[i]
            view = states[i] * 8
            if mask & left_masks[position]:
                view += 4
            if mask & right_masks[position]:
                view += 2
            if towers >> position & 1:
                view += 1
            new_state = transitions[view]
            pointer = position * 2 + dir_bits[new_state]
            if mask & move_masks[pointer]:
                positions[i] = move_dests[pointer]
            states[i] = new_state
        for position in positions:
            occupancy |= 1 << position
        if t < mid:
            seen |= occupancy
        else:
            late |= occupancy
        if live:
            if seen | late == full_nodes:
                return True, t + 1
        else:
            if t + 1 == mid and seen != full_nodes:
                return False, t + 1
            if seen == full_nodes and late == full_nodes:
                return True, t + 1
    if live:
        return seen | late == full_nodes, horizon
    return seen == full_nodes and late == full_nodes, horizon


def simulate_chunk(
    spec: ScenarioSpec, bits_chunk: Sequence[int], backend: str = "auto"
) -> _ChunkOutcome:
    """Simulate one chunk of table bit-patterns against the spec's schedule.

    The simulation twin of :func:`repro.verification.sweeps.sweep_chunk`
    and the unit of work the campaign runner checkpoints for
    schedule-dynamics scenarios. Deterministic for a fixed
    ``(spec, bits_chunk)`` pair — re-runnable on any backend, worker,
    process or host with an identical tally. ``backend`` picks the
    execution substrate (``"vector"``/``"packed"``/``"object"``; see the
    module docstring); ``"auto"`` is ``"vector"``
    (:func:`repro.verification.backends.resolve_backend`).
    """
    backend = resolve_backend(backend)
    topology = RingTopology(spec.n)
    schedule = build_schedule(
        spec.dynamics, spec.dynamics_params, spec.dynamics_seed, topology
    )
    assert spec.horizon is not None  # guaranteed by spec validation
    k = spec.robots.k
    placements = simulation_placements(spec.starts, topology, k)
    maker = family_maker(spec.robots.family)
    vectors = [
        tuple(vector)
        for stage in family_plan(spec.robots.family)
        for vector in stage
    ]
    total = trapped = rounds = 0
    explorers: list[str] = []
    faults.fault_point("simulate-entry")
    midpoint = len(bits_chunk) // 2

    # Phase accounting, armed-gated so the untraced hot loop pays one
    # boolean. Compile time is accumulated around the explicit
    # compilation work (schedule masks / step precompute, per-table
    # CompiledTables construction, or the vector path's decoded table
    # stack and slot tables); simulate time is the chunk remainder.
    # Emitted once per chunk as phase.* spans — purely observational, the
    # tally below never depends on it.
    traced = telemetry.armed()
    compile_s = 0.0
    chunk_start = time.perf_counter() if traced else 0.0

    def _emit_phases() -> None:
        if not traced:
            return
        simulate_s = max(0.0, time.perf_counter() - chunk_start - compile_s)
        telemetry.phase("compile", compile_s, tables=len(bits_chunk))
        telemetry.phase("simulate", simulate_s, tables=len(bits_chunk))

    if backend == "vector":
        # The NumPy lockstep kernel: decode the chunk's bit patterns
        # straight into one table stack, then step all
        # (table, chirality-vector, placement) runs at once. The kernel
        # reproduces the scalar first-failure accounting exactly
        # (see repro.verification.batch), so the tally below is
        # byte-identical to the packed path's.
        from repro.verification import batch

        mark = time.perf_counter()
        masks = schedule_masks(schedule, spec.horizon)
        stack = family_stack(spec.robots.family, bits_chunk)
        compile_s = time.perf_counter() - mark
        if midpoint:
            faults.fault_point("simulate-mid")
        trapped_flags, rounds, timings = batch.simulate_batch(
            topology,
            stack,
            vectors,
            placements,
            masks,
            spec.scheduler == "ssync",
            spec.prop,
        )
        total = len(bits_chunk)
        trapped = sum(trapped_flags)
        explorers = [
            maker(bits).name
            for bits, hit in zip(bits_chunk, trapped_flags)
            if not hit
        ]
        if traced:
            telemetry.phase(
                "compile", compile_s + timings["compile"], tables=total
            )
            telemetry.phase("gather", timings["gather"], tables=total)
            telemetry.phase("compact", timings["compact"], tables=total)
        return total, trapped, explorers, rounds

    if backend == "packed":
        # One schedule compilation per chunk: the horizon's present-edge
        # sets become a flat edge-bitmask array; under SSYNC the
        # round-robin activation is folded into the round body.
        if traced:
            mark = time.perf_counter()
        masks = schedule_masks(schedule, spec.horizon)
        if traced:
            compile_s += time.perf_counter() - mark
        ssync = spec.scheduler == "ssync"
        full_nodes = (1 << spec.n) - 1
        for position, bits in enumerate(bits_chunk):
            if position == midpoint and position:
                faults.fault_point("simulate-mid")
            algorithm = maker(bits)
            hit = False
            for chiralities in vectors:
                if traced:
                    mark = time.perf_counter()
                tables = CompiledTables(
                    topology, algorithm, chiralities, scheduler=spec.scheduler
                )
                if traced:
                    compile_s += time.perf_counter() - mark
                for placement in placements:
                    explored, executed = _bounded_explores_packed(
                        tables, masks, ssync, placement, spec.prop, full_nodes
                    )
                    rounds += executed
                    if not explored:
                        hit = True
                        break
                if hit:
                    break
            total += 1
            if hit:
                trapped += 1
            else:
                explorers.append(algorithm.name)
        _emit_phases()
        return total, trapped, explorers, rounds

    if traced:
        mark = time.perf_counter()
    steps = [schedule.present_edges(t) for t in range(spec.horizon)]
    activations = (
        None
        if spec.scheduler == "fsync"
        else [frozenset({t % k}) for t in range(spec.horizon)]
    )
    if traced:
        compile_s += time.perf_counter() - mark
    for position, bits in enumerate(bits_chunk):
        if position == midpoint and position:
            faults.fault_point("simulate-mid")
        algorithm = maker(bits)
        hit = False
        for chiralities in vectors:
            for placement in placements:
                explored, executed = _bounded_explores(
                    topology,
                    algorithm,
                    steps,
                    activations,
                    placement,
                    chiralities,
                    spec.prop,
                )
                rounds += executed
                if not explored:
                    hit = True
                    break
            if hit:
                break
        total += 1
        if hit:
            trapped += 1
        else:
            explorers.append(algorithm.name)
    _emit_phases()
    return total, trapped, explorers, rounds


__all__ = [
    "simulate_chunk",
    "simulation_placements",
]
