"""The parallel sweep engine: sharded algorithm-class verification.

A sweep discharges a universally quantified impossibility claim by
verifying every member of a finite algorithm class. Members are
independent, so the work shards perfectly: this module splits a sequence
of table bit-patterns into contiguous chunks, verifies each chunk in a
worker (in-process for ``jobs=1``, a ``multiprocessing`` pool otherwise)
and merges the per-chunk tallies *in chunk order* — so the resulting
:class:`SweepResult` (totals, explorer names and their order, state
counts) is byte-identical for any worker count, and for every
verification backend (``vector``, ``packed``, ``object`` — ``auto``,
the default, is ``vector``). ``jobs=None`` uses every available core.

Workers rebuild their :class:`~repro.robots.algorithms.tables
.TableAlgorithm` from the bit pattern (a chunk pickles as a tuple of
ints), verify with the requested backend, and apply the same
chirality-fallback plan as the serial path: cheap vectors first, the
expensive mixed vectors only for tables that survive.

The public entry points remain in :mod:`repro.verification.enumeration`;
this module is the engine underneath them.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro import telemetry
from repro.errors import VerificationError
from repro.graph.topology import RingTopology, arbitrary_placements
from repro.robots.algorithms.base import Algorithm
from repro.robots.algorithms.tables import (
    memory2_table_from_bits,
    memoryless_single_robot_table_from_bits,
    memoryless_table_from_bits,
    table_space_size,
)
from repro.types import Chirality, NodeId
from repro.verification.backends import resolve_backend
from repro.verification.game import check_property, verify_exploration
from repro.verification.kernel import PackedKernel
from repro.verification.product import check_scheduler


@dataclass
class SweepResult:
    """Aggregate outcome of an algorithm-class sweep."""

    description: str
    n: int
    k: int
    total: int
    trapped: int
    explorers: list[str] = field(default_factory=list)
    states_explored: int = 0

    @property
    def all_trapped(self) -> bool:
        """Whether every member of the class failed (the theorems' claim)."""
        return self.trapped == self.total and not self.explorers

    def summary(self) -> str:
        """One-line human summary for reports."""
        status = "ALL TRAPPED" if self.all_trapped else (
            f"{len(self.explorers)} UNEXPECTED EXPLORERS: {self.explorers[:5]}"
        )
        return (
            f"{self.description} (n={self.n}, k={self.k}): "
            f"{self.trapped}/{self.total} trapped — {status}"
        )


#: Table family name → (k, table constructor, chirality fallback plan).
#: The plan is a sequence of chirality-vector lists tried in order; a
#: table counts as trapped as soon as any stage returns non-explorable.
_TWO_ROBOT_PLAN = (
    ((Chirality.AGREE, Chirality.AGREE),),
    ((Chirality.AGREE, Chirality.DISAGREE),),
)
_FAMILIES: dict[str, tuple[int, object, tuple, int]] = {
    "single": (
        1,
        memoryless_single_robot_table_from_bits,
        (((Chirality.AGREE,),),),
        1 << 8,
    ),
    "two": (
        2,
        memoryless_table_from_bits,
        _TWO_ROBOT_PLAN,
        1 << 16,
    ),
    "two-m2": (
        2,
        memory2_table_from_bits,
        _TWO_ROBOT_PLAN,
        table_space_size(2),
    ),
}

#: Table family name → (state count S, bits per entry, bit offset of each
#: of the S·8 flat-table entries): how a family's constructor lays a bit
#: pattern out as its ``packed_tables`` transitions, so that a whole chunk
#: decodes in NumPy (:func:`family_stack`) without building one
#: :class:`~repro.robots.algorithms.tables.TableAlgorithm` per table.
_LAYOUTS: dict[str, tuple[int, int, tuple[int, ...]]] = {
    # Bit ``dir·4 + left·2 + right`` serves both multiplicity views.
    "single": (2, 1, tuple(entry >> 1 for entry in range(16))),
    "two": (2, 1, tuple(range(16))),
    # Base-4 digits: two bits per entry.
    "two-m2": (4, 2, tuple(2 * entry for entry in range(32))),
}

TABLE_FAMILIES = tuple(sorted(_FAMILIES))
"""Registered table-family names (the robot-class axis of a scenario)."""

START_POLICIES = ("well", "arbitrary")
"""Initial-placement policies: the paper's well-initiated towerless starts
vs the self-stabilizing quantifier over every placement, towers included
(Bournat–Datta–Dubois 2017)."""

_ChunkOutcome = tuple[int, int, list[str], int]
"""(total, trapped, explorer names in input order, states explored)."""


def family_k(family: str) -> int:
    """Robot count of a table family."""
    _check_family(family)
    return _FAMILIES[family][0]


def family_plan(family: str) -> tuple:
    """The chirality fallback plan of a table family (for extra tables)."""
    _check_family(family)
    return _FAMILIES[family][2]


def family_maker(family: str):
    """The bits → :class:`TableAlgorithm` constructor of a table family."""
    _check_family(family)
    return _FAMILIES[family][1]


def family_space(family: str) -> int:
    """Number of distinct tables in a family (its bit-pattern domain)."""
    _check_family(family)
    return _FAMILIES[family][3]


def family_stack(family: str, bits_chunk: Sequence[int]) -> tuple:
    """A chunk of bit patterns decoded straight into a table stack.

    Returns ``(S, trans, dirs)``: the family's state count, the
    ``(B, S·8)`` int64 successor tables (row ``b`` is the transitions of
    ``family_maker(family)(bits_chunk[b]).packed_tables()``) and the
    ``(S,)`` direction bits every table of a family shares (``s & 1``).
    The initial state is index 0, as for every
    :class:`~repro.robots.algorithms.tables.TableAlgorithm`. Both vector
    paths consume this instead of per-table objects; memory-2 patterns
    reach 2^64, so decoding runs on uint64.
    """
    import numpy as np

    _check_family(family)
    state_count, width, offsets = _LAYOUTS[family]
    if bits_chunk:
        space = _FAMILIES[family][3]
        for bits in (min(bits_chunk), max(bits_chunk)):
            if not 0 <= bits < space:
                family_maker(family)(bits)  # raises the family's own error
    patterns = np.array(bits_chunk, dtype=np.uint64).reshape(-1, 1)
    digits = (patterns >> np.array(offsets, dtype=np.uint64)) & np.uint64(
        (1 << width) - 1
    )
    dirs = np.arange(state_count, dtype=np.int64) & 1
    return state_count, digits.astype(np.int64), dirs


def _check_family(family: str) -> None:
    if family not in _FAMILIES:
        raise VerificationError(
            f"unknown table family {family!r}; choose from {sorted(_FAMILIES)}"
        )


def check_start_policy(starts: str) -> str:
    """Validate a start-policy name."""
    if starts not in START_POLICIES:
        raise VerificationError(
            f"unknown start policy {starts!r}; choose from {START_POLICIES}"
        )
    return starts


def start_placements(
    starts: str, topology: RingTopology, k: int
) -> Optional[list[tuple[NodeId, ...]]]:
    """The verifier seed placements of a start policy.

    ``None`` means the verifier default (well-initiated towerless starts,
    rotation-reduced); the ``"arbitrary"`` policy quantifies over every
    placement, towers included.
    """
    check_start_policy(starts)
    if starts == "well":
        return None
    return arbitrary_placements(topology, k)


def check_algorithm_class(
    algorithm: Algorithm,
    topology: RingTopology,
    k: int,
    vector_plan: Sequence[Sequence[Sequence[Chirality]]],
    backend: str,
    validate: bool,
    placements: Optional[Sequence[Sequence[NodeId]]] = None,
    prop: str = "perpetual",
    scheduler: str = "fsync",
) -> tuple[bool, int]:
    """Verify one table under a chirality fallback plan.

    Returns ``(trapped, states_explored)``; the table fails the spec as
    soon as any stage of the plan finds a trap. ``placements``, ``prop``
    and ``scheduler`` select the start policy, the exploration property
    and the execution scheduler, as in
    :func:`~repro.verification.game.verify_exploration`.
    """
    states = 0
    for vectors in vector_plan:
        # A sweep only tallies verdicts: lasso extraction is skipped
        # entirely unless certificate replay validation was requested.
        verdict = verify_exploration(
            algorithm,
            topology,
            k=k,
            chirality_vectors=vectors,
            validate=validate,
            backend=backend,
            certificates=validate,
            placements=placements,
            prop=prop,
            scheduler=scheduler,
        )
        states += verdict.states_explored
        if not verdict.explorable:
            return True, states
    return False, states


def sweep_chunk(
    family: str,
    n: int,
    bits_chunk: Sequence[int],
    backend: str = "auto",
    validate: bool = False,
    starts: str = "well",
    prop: str = "perpetual",
    scheduler: str = "fsync",
) -> _ChunkOutcome:
    """Verify one chunk of table bit-patterns, in-process.

    The unit of work of both the parallel sweep engine and the campaign
    runner's checkpointing: deterministic for a fixed argument tuple, so a
    chunk can be re-run anywhere (another worker, another process, another
    machine) and tally identically, whatever the ``backend`` (``auto``,
    the default, is ``vector``).
    """
    # Imported here, not at module level: the scenarios package imports
    # this module while initializing, so a top-level import would cycle.
    from repro.scenarios import faults

    _check_family(family)
    backend = resolve_backend(backend)
    if backend == "vector" and not validate:
        # Whole-chunk dense solve; None means the space is not dense-
        # eligible and the per-table loop below takes over (it still
        # vectorizes each table's reachability when eligible).
        outcome = _sweep_chunk_vector(
            family, n, bits_chunk, starts, prop, scheduler
        )
        if outcome is not None:
            return outcome
    k, maker, plan, _space = _FAMILIES[family]
    # Phase accounting when telemetry is armed (one boolean otherwise).
    # Setup — placement expansion and table construction inputs — is the
    # "compile" phase; the verification loop is "simulate" (the solver
    # folds its own kernel compilation into solving, so the split is
    # coarser than the simulation runner's — see docs/observability.md).
    traced = telemetry.armed()
    mark = time.perf_counter() if traced else 0.0
    topology = RingTopology(n)
    placements = start_placements(starts, topology, k)
    if traced:
        compile_s = time.perf_counter() - mark
        mark = time.perf_counter()
    total = trapped = states = 0
    explorers: list[str] = []
    faults.fault_point("sweep-entry")
    midpoint = len(bits_chunk) // 2
    for position, bits in enumerate(bits_chunk):
        if position == midpoint and position:
            faults.fault_point("sweep-mid")
        algorithm = maker(bits)
        hit, explored = check_algorithm_class(
            algorithm, topology, k, plan, backend, validate,
            placements=placements, prop=prop, scheduler=scheduler,
        )
        total += 1
        states += explored
        if hit:
            trapped += 1
        else:
            explorers.append(algorithm.name)
    if traced:
        telemetry.phase("compile", compile_s, tables=len(bits_chunk))
        telemetry.phase(
            "simulate", time.perf_counter() - mark, tables=len(bits_chunk)
        )
    return total, trapped, explorers, states


def _sweep_chunk_vector(
    family: str,
    n: int,
    bits_chunk: Sequence[int],
    starts: str,
    prop: str,
    scheduler: str,
) -> Optional[_ChunkOutcome]:
    """Solve a whole chunk of tables in NumPy lockstep.

    The vector backend's fast path: every table of the chunk marches
    through the chirality fallback plan together
    (:func:`repro.verification.batch_solver.solve_tables`), tables drop
    out of later stages the moment a stage traps them, and the tallies —
    totals, explorer names in input order, states explored — are
    bit-identical to the per-table loop. Returns ``None`` when the
    product space is not dense-eligible; the caller then falls back to
    the per-table path.
    """
    from repro.scenarios import faults
    from repro.verification import batch_solver

    if not bits_chunk:
        return None
    k, maker, plan, _space = _FAMILIES[family]
    topology = RingTopology(n)
    mark = time.perf_counter()
    # One probe decides eligibility, and its algorithm stands in for the
    # whole family afterwards: the dense geometry and the seed states are
    # table-independent (every table starts in state 0).
    probe = maker(bits_chunk[0])
    kernel = PackedKernel(topology, probe, plan[0][0], scheduler=scheduler)
    if not batch_solver.dense_eligible(kernel):
        return None
    traced = telemetry.armed()
    placements = start_placements(starts, topology, k)
    state_count, trans, dirs = family_stack(family, bits_chunk)
    timings: dict = {"compile": time.perf_counter() - mark}
    faults.fault_point("sweep-entry")
    midpoint = len(bits_chunk) // 2
    trapped_flags = [False] * len(bits_chunk)
    states = [0] * len(bits_chunk)
    pending = list(range(len(bits_chunk)))
    fired_mid = False
    for vectors in plan:
        for vector in vectors:
            if not pending:
                break
            kernel = PackedKernel(topology, probe, vector, scheduler=scheduler)
            seeds = kernel.initial_states(placements)
            hit, reached = batch_solver.solve_tables(
                kernel,
                (state_count, trans[pending], dirs),
                seeds,
                prop,
                timings=timings,
            )
            still: list[int] = []
            for index, trap, explored in zip(pending, hit, reached):
                states[index] += explored
                if trap:
                    trapped_flags[index] = True
                else:
                    still.append(index)
            pending = still
            # The chunk is atomic either way, so mid-chunk means
            # "between lockstep solves" here rather than between tables.
            if not fired_mid and midpoint:
                fired_mid = True
                faults.fault_point("sweep-mid")
    total = len(bits_chunk)
    explorers = [
        maker(bits).name
        for bits, hit in zip(bits_chunk, trapped_flags)
        if not hit
    ]
    if traced:
        for name in ("compile", "frontier", "scc"):
            telemetry.phase(name, timings.get(name, 0.0), tables=total)
    return total, sum(trapped_flags), explorers, sum(states)


def _sweep_chunk(
    payload: tuple[str, int, tuple[int, ...], str, bool, str, str, str]
) -> _ChunkOutcome:
    """Tuple-payload wrapper of :func:`sweep_chunk` (worker body).

    Top-level by necessity: chunks are shipped to ``multiprocessing``
    workers, so both the function and its payload must pickle.
    """
    family, n, bits_chunk, backend, validate, starts, prop, scheduler = payload
    return sweep_chunk(
        family, n, bits_chunk, backend, validate, starts, prop, scheduler
    )


def available_cpus() -> int:
    """CPUs actually available to this process.

    Respects CPU affinity and cgroup-style restrictions where the
    platform exposes them (``os.process_cpu_count`` on Python ≥ 3.13,
    ``os.sched_getaffinity`` elsewhere on Linux), falling back to the
    raw ``os.cpu_count``. Sizing pools by the raw count oversubscribes
    pinned/containerized runs.
    """
    process_cpu_count = getattr(os, "process_cpu_count", None)
    if process_cpu_count is not None:
        return process_cpu_count() or 1
    sched_getaffinity = getattr(os, "sched_getaffinity", None)
    if sched_getaffinity is not None:
        try:
            return len(sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic platform
            pass
    return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a jobs request (``None`` → all *available* cores; floor 1)."""
    if jobs is None:
        return available_cpus()
    if jobs < 1:
        raise VerificationError(f"jobs must be >= 1, got {jobs}")
    return jobs


#: The NumPy kernels a chunk worker runs (solver and simulation).
KERNEL_MODULES = ("repro.verification.batch_solver", "repro.verification.batch")


def preload_kernels(
    ctx: multiprocessing.context.BaseContext, worker_module: str
) -> None:
    """Load :data:`KERNEL_MODULES` once, where ``ctx``'s workers inherit them.

    Under ``fork`` they are imported here, before the first worker
    starts; under ``forkserver`` the server imports them (with
    ``worker_module``, the home of the worker body) and every worker
    forks from it. ``spawn`` workers start from a fresh interpreter and
    import them at first use. Callers invoke this only when there is
    work to hand out, so a run with nothing pending never loads them.
    """
    method = ctx.get_start_method()
    if method == "fork":
        for name in KERNEL_MODULES:
            importlib.import_module(name)
    elif method == "forkserver":
        ctx.set_forkserver_preload(["__main__", worker_module, *KERNEL_MODULES])


def _chunked(patterns: Sequence[int], jobs: int) -> list[tuple[int, ...]]:
    """Split into contiguous chunks (~4 per worker for load balance).

    Contiguity plus in-order merging is what makes the sweep outcome
    independent of both the chunk size and the pool's scheduling.
    """
    if not patterns:
        return []
    pieces = max(1, min(len(patterns), jobs * 4))
    size = -(-len(patterns) // pieces)
    return [tuple(patterns[i : i + size]) for i in range(0, len(patterns), size)]


def run_table_sweep(
    result: SweepResult,
    family: str,
    bit_patterns: Sequence[int],
    backend: str = "auto",
    validate: bool = False,
    jobs: Optional[int] = 1,
    starts: str = "well",
    prop: str = "perpetual",
    scheduler: str = "fsync",
) -> SweepResult:
    """Verify every bit pattern and fold the tallies into ``result``.

    Deterministic by construction: ``pool.map`` preserves chunk order and
    chunks are contiguous, so explorers arrive in input order whatever
    ``jobs`` is. ``starts``, ``prop`` and ``scheduler`` select the start
    policy, the exploration property and the execution scheduler for
    every member; ``backend`` the verification substrate (``auto``, the
    default, is ``vector``).
    """
    _check_family(family)
    backend = resolve_backend(backend)
    check_start_policy(starts)
    check_property(prop)
    check_scheduler(scheduler)
    jobs = resolve_jobs(jobs)
    payloads = [
        (family, result.n, chunk, backend, validate, starts, prop, scheduler)
        for chunk in _chunked(bit_patterns, jobs)
    ]
    if jobs <= 1 or len(payloads) <= 1:
        outcomes = [_sweep_chunk(payload) for payload in payloads]
    else:
        ctx = multiprocessing.get_context()
        preload_kernels(ctx, __name__)
        with ctx.Pool(processes=jobs) as pool:
            outcomes = pool.map(_sweep_chunk, payloads)
    for total, trapped, explorers, states in outcomes:
        result.total += total
        result.trapped += trapped
        result.explorers.extend(explorers)
        result.states_explored += states
    return result


__all__ = [
    "START_POLICIES",
    "TABLE_FAMILIES",
    "KERNEL_MODULES",
    "SweepResult",
    "available_cpus",
    "check_algorithm_class",
    "check_start_policy",
    "family_k",
    "family_maker",
    "family_plan",
    "family_space",
    "family_stack",
    "preload_kernels",
    "resolve_jobs",
    "run_table_sweep",
    "start_placements",
    "sweep_chunk",
]
