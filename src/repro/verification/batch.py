"""The vector backend: whole chunks of tables simulated in NumPy lockstep.

The scalar packed simulation loop
(:func:`repro.scenarios.simulate._bounded_explores_packed`) runs one
``(table, chirality-vector, placement)`` run at a time — pure-Python int
arithmetic, ~1,200–2,200 tables/s at n=4. But every run of a chunk
shares the topology, the schedule's edge-bitmask array and the
activation discipline, and the runs are *independent*: nothing one run
computes feeds another. So this module simulates **all of them at
once** as structure-of-arrays NumPy state:

* one *run* per ``(table, chirality-vector, placement)`` triple —
  ``runs = tables × vectors × placements``, a few thousand for a
  192-table chunk at n=4 — and per robot one row of ``(k, runs)``
  columns, so a robot's rows (under SSYNC, the active robot's) are one
  contiguous slice;
* the chunk arrives as one decoded table stack
  (:func:`repro.verification.sweeps.family_stack`: ``(B, S·8)``
  transitions straight from the bit patterns, no per-table objects),
  folded to ``successor·2 + dir_bit``;
* a robot's *slot* is ``position·S + state``, and for every distinct
  mask the schedule uses, one vectorized pass builds a
  **slot-transition table** ``F[mask][(table, chirality, tower_bit,
  slot)] → next slot`` — edge view, Look–Compute and Move of a round in
  one entry. Each row keeps a cursor into its ``(table, chirality)``
  block (entries hold next cursors), so a round is one gather per
  stepped row plus the multiplicity offset, and a ``slot → node bit``
  lookup feeds the towers, occupancy and the ``seen``/``late``
  bitsets (narrow unsigned ints: uint8 up to n = 8);
* per-run done masks give the live/perpetual early exits, and finished
  runs are **compacted** away (boolean-filter of the state columns)
  whenever enough of the batch has settled, so a chunk whose tables
  mostly trap early costs little more than the scalar early-exit path;
* under SSYNC only the active robot's row is stepped — the round-robin
  discipline becomes a slice, not a mask.

**Exact tally reproduction.** The scalar path breaks out of the
chirality/placement loops at a table's *first failing run* and counts
only the rounds it actually executed. Simulating the skipped runs is
semantically harmless (runs are independent) but would change the
``rounds`` tally, which must stay byte-identical across backends. The
kernel therefore simulates everything and reproduces the scalar
accounting *post hoc*: per table, runs are ordered exactly as the
scalar loops nest (chirality-vector major, placement minor), the first
failed run is located, and only the executed-round counts up to and
including it are summed. Trapped flags and round totals match the
scalar path exactly — differentially tested in ``tests/test_batch.py``.

NumPy is a required dependency, and ``backend="auto"`` resolves to this
backend (:mod:`repro.verification.backends`).
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.errors import VerificationError
from repro.graph.topology import Topology
from repro.types import Chirality, NodeId
from repro.verification.compiled import _node_tables

#: Compact the row arrays once the finished fraction reaches this.
COMPACT_THRESHOLD = 0.5

BatchTables = tuple
"""``(transitions, dir_bits, initial_index)`` — see :func:`as_batch_arrays`."""

# Per-(topology, chirality) ndarray twins of the compiled node tables,
# cached process-wide like the scalar tables they mirror.
_np_node_cache: dict = {}


def as_batch_arrays(
    transitions: Sequence[int], dir_bits: Sequence[int], initial_index: int
) -> BatchTables:
    """ndarray views of one table's flat Look–Compute tables.

    The conversion behind
    :meth:`~repro.verification.compiled.CompiledTables.batch_tables`
    (which caches the result per instance, like the scalar tables).
    """
    return (
        np.array(transitions, dtype=np.int64),
        np.array(dir_bits, dtype=np.int64),
        initial_index,
    )


def _np_node_tables(topology: Topology, chirality: Chirality) -> tuple:
    """ndarray node tables per (topology, chirality), process-cached.

    ``(left_masks, right_masks, move_masks, move_dests)``, mirroring
    :func:`repro.verification.compiled._node_tables`.
    """
    key = (topology, chirality)
    cached = _np_node_cache.get(key)
    if cached is None:
        cached = tuple(
            np.array(part, dtype=np.int64)
            for part in _node_tables(topology, chirality)
        )
        _np_node_cache[key] = cached
    return cached


def _slot_tables(
    topology: Topology,
    folded: "object",
    blocks: Sequence[Chirality],
    state_count: int,
    masks: "object",
) -> "object":
    """The per-mask slot-transition tables of a table stack.

    A robot's *slot* is ``position·S + state``. Entry ``e`` of mask row
    ``m`` of the returned ``(M, B·C·2·n·S)`` intp array belongs to table
    ``b``, chirality block ``c`` (one per distinct chirality of the
    run's vectors), multiplicity bit ``tower`` and slot, at
    ``e = ((b·C + c)·2 + tower)·n·S + slot``; it holds the robot's next
    slot under edge mask ``masks[m]`` — Look, Compute and Move of one
    round folded into one entry — as the flat entry of that slot in the
    same ``(b, c)`` block with ``tower = 0``. Values are therefore the
    next round's indices as they stand: a row's cursor only needs its
    multiplicity bit added (``+ n·S``) before the next gather.
    ``folded`` is the ``(B, S·8)`` stack with each value
    ``successor·2 + dir_bit``. Built in one vectorized pass: a gather of
    the folded stack at each entry's view index, then a gather of a
    small per-``(mask, block, slot, folded value)`` landing table.
    """
    n = topology.n
    slots = n * state_count
    out = 2 * state_count
    node = np.arange(slots) // state_count
    tables = [_np_node_tables(topology, chirality) for chirality in blocks]
    left, right, move_masks, move_dests = (
        np.stack(part) for part in zip(*tables)
    )
    mask = masks[:, None, None]
    # View index per (mask, block, tower, slot): state row + edge view +
    # the multiplicity bit.
    edges = ((mask & left) != 0) * 4 + ((mask & right) != 0) * 2
    view = (
        (np.arange(slots) % state_count) * 8
        + edges[:, :, None, node]
        + np.arange(2)[:, None]
    )
    # Landing slot per (mask, block, slot, folded value): the pointed
    # edge's far end when present, the robot's own node otherwise.
    pointer = node[:, None] * 2 + (np.arange(out) & 1)
    moved = (mask[..., None] & move_masks[:, pointer]) != 0
    landing = np.where(moved, move_dests[:, pointer], node[:, None])
    landing = (landing * state_count + (np.arange(out) >> 1)).ravel()
    blocks_n = len(blocks)
    lookup = (
        np.arange(masks.size * blocks_n * slots).reshape(
            masks.size, blocks_n, 1, slots
        )
        * out
    )
    step = landing[lookup + np.take(folded, view, axis=1)]
    batch = folded.shape[0]
    step += (np.arange(batch * blocks_n) * (2 * slots)).reshape(
        batch, 1, blocks_n, 1, 1
    )
    return np.ascontiguousarray(step.swapaxes(0, 1)).reshape(
        masks.size, batch * blocks_n * 2 * slots
    )


def simulate_batch(
    topology: Topology,
    stack: tuple,
    vectors: Sequence[Sequence[Chirality]],
    placements: Sequence[Sequence[NodeId]],
    masks: Sequence[int],
    ssync: bool,
    prop: str,
) -> tuple[list[bool], int, dict[str, float]]:
    """Run every (table, chirality-vector, placement) run in lockstep.

    ``stack`` is a decoded ``(S, trans (B, S·8), dirs (S,))`` table stack
    (:func:`repro.verification.sweeps.family_stack`); every table starts
    in state 0. Returns ``(trapped, rounds, timings)``: per-table trapped
    flags in input order, the total executed-round count under the
    scalar path's first-failure accounting (see the module docstring),
    and wall-clock seconds per kernel phase (``compile``/``gather``/
    ``compact`` — the caller decides whether to emit them as telemetry).
    """
    timings = {"compile": 0.0, "gather": 0.0, "compact": 0.0}
    state_count, trans, dirs = stack
    if trans.shape[1] != state_count * 8:
        raise VerificationError(
            "vector backend needs a uniform state count per batch; "
            f"got {trans.shape[1] // 8} and {state_count}"
        )
    batch = trans.shape[0]
    if not batch:
        return [], 0, timings

    start = time.perf_counter()
    n = topology.n
    k = len(vectors[0])
    n_vectors = len(vectors)
    n_placements = len(placements)
    runs_per_table = n_vectors * n_placements
    slots = n * state_count
    # Node bitsets in the narrowest dtype that holds them (uint8 up to
    # n = 8): the per-round OR/compare passes are memory-bound.
    bit_dtype = np.min_scalar_type((1 << n) - 1)
    full = bit_dtype.type((1 << n) - 1)

    # -- compile: one slot-transition table per distinct schedule mask.
    # transitions[s*8+view] and dir_bits[s] fold into successor*2 +
    # dir_bit, and the slot tables fold in the edge view and the move.
    blocks = list(dict.fromkeys(c for vector in vectors for c in vector))
    distinct, mask_of_round = np.unique(
        np.array(masks, dtype=np.int64), return_inverse=True
    )
    step_tables = _slot_tables(
        topology, trans * 2 + dirs[trans], blocks, state_count, distinct
    )
    # Entry → node bit of its slot, over the whole flat table.
    node_bits = np.tile(
        (1 << (np.arange(slots) // state_count)).astype(bit_dtype),
        batch * len(blocks) * 2,
    )

    # Run layout: run = table * runs_per_table + vector * placements +
    # placement — exactly the scalar loop nesting, which the post-hoc
    # first-failure accounting below depends on. Row i of the (k, runs)
    # columns is robot i; its cursor is the flat slot-table entry of its
    # slot within its (table, chirality) block.
    runs = batch * runs_per_table
    vec_of_run = np.tile(
        np.repeat(np.arange(n_vectors, dtype=np.intp), n_placements), batch
    )
    table_of_run = np.repeat(np.arange(batch, dtype=np.intp), runs_per_table)
    block_of = np.array(
        [[blocks.index(vector[i]) for vector in vectors] for i in range(k)],
        dtype=np.intp,
    )
    place2 = np.array(placements, dtype=np.intp)  # (P, k)
    cursor = (
        table_of_run * len(blocks) + block_of[:, vec_of_run]
    ) * (2 * slots) + np.tile(place2.T, batch * n_vectors) * state_count
    bits = np.take(node_bits, cursor)

    seen = np.bitwise_or.reduce(bits, axis=0)
    late = np.zeros(runs, dtype=bit_dtype)
    explored = np.zeros(runs, dtype=bool)
    executed = np.zeros(runs, dtype=np.int64)
    orig = np.arange(runs, dtype=np.int64)
    timings["compile"] = time.perf_counter() - start

    horizon = len(masks)
    mid = horizon // 2
    live = prop == "live"

    def compact(keep) -> None:
        nonlocal cursor, bits, seen, late, orig
        mark = time.perf_counter()
        cursor = cursor[:, keep]
        bits = bits[:, keep]
        seen = seen[keep]
        late = late[keep]
        orig = orig[keep]
        timings["compact"] += time.perf_counter() - mark

    if live:
        # The scalar pre-check: a placement that already covers the ring
        # satisfies "live" in 0 rounds.
        done = seen == full
        if done.any():
            explored[orig[done]] = True
            compact(~done)

    mark = time.perf_counter()
    # Runs already decided but not yet compacted away: their tally was
    # written the round they finished; they keep stepping harmlessly
    # (runs are independent) until the next compaction drops them.
    pending = np.zeros(orig.size, dtype=bool)
    for t in range(horizon):
        if orig.size == 0:
            break
        step = step_tables[mask_of_round[t]]

        # A robot on a tower reads the tower half of its block.
        if k == 1:
            lift = None
        elif k == 2:
            lift = (bits[0] == bits[1]) * slots
        else:
            occupied = bits[0]
            towers = np.zeros_like(occupied)
            for i in range(1, k):
                towers |= occupied & bits[i]
                occupied = occupied | bits[i]
            lift = ((towers & bits) != 0) * slots

        if ssync:
            # Round-robin SSYNC: exactly robot t mod k acts this round.
            i = t % k
            index = cursor[i]
            if lift is not None:
                index = index + (lift if k == 2 else lift[i])
            cursor[i] = np.take(step, index)
            bits[i] = np.take(node_bits, cursor[i])
        else:
            cursor = np.take(step, cursor if lift is None else cursor + lift)
            bits = np.take(node_bits, cursor)

        occupancy = bits[0]
        for i in range(1, k):
            occupancy = occupancy | bits[i]
        if t < mid:
            seen |= occupancy
        else:
            late |= occupancy

        if live:
            done = (seen | late) == full
            won = None
        elif t + 1 < mid:
            # Nothing can finish before the mid-horizon gate: the
            # perpetual predicate needs the late window, which is empty.
            continue
        elif t + 1 == mid:
            # The perpetual mid-horizon gate: a run whose first window
            # starved a node fails now (the second window cannot repair
            # it); one that already covered both windows succeeds now.
            covered = seen == full
            won = covered & (late == full)
            done = ~covered | won
        else:
            done = (seen == full) & (late == full)
            won = None
        fresh = done & ~pending
        if fresh.any():
            rows = orig[fresh]
            executed[rows] = t + 1
            if won is None:
                explored[rows] = True
            else:
                explored[orig[won & fresh]] = True
            pending |= fresh
            # Compaction is a full copy of the state columns — only
            # worth it once enough runs settled; finished runs keep
            # stepping in place meanwhile (harmless: runs are
            # independent, and their tally is already written).
            if np.count_nonzero(pending) >= COMPACT_THRESHOLD * orig.size:
                timings["gather"] += time.perf_counter() - mark
                compact(~pending)
                pending = np.zeros(orig.size, dtype=bool)
                mark = time.perf_counter()
    timings["gather"] += time.perf_counter() - mark

    alive = ~pending
    if alive.any():
        rows = orig[alive]
        executed[rows] = horizon
        if live:
            explored[rows] = ((seen | late) == full)[alive]
        else:
            explored[rows] = ((seen == full) & (late == full))[alive]

    # -- post-hoc scalar accounting: first failing run per table --------
    explored2 = explored.reshape(batch, runs_per_table)
    executed2 = executed.reshape(batch, runs_per_table)
    fail = ~explored2
    trapped = fail.any(axis=1)
    first_fail = fail.argmax(axis=1)
    cumulative = executed2.cumsum(axis=1)
    counted = np.where(
        trapped,
        cumulative[np.arange(batch), first_fail],
        cumulative[:, -1],
    )
    return (
        [bool(flag) for flag in trapped],
        int(counted.sum()),
        timings,
    )


__all__ = [
    "as_batch_arrays",
    "simulate_batch",
    "COMPACT_THRESHOLD",
]
