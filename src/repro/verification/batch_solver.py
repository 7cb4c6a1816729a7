"""The vector solver backend: whole-chunk NumPy game solving.

:mod:`repro.verification.batch` vectorized the *simulation* half; this
module does the same for the exact game solver. The enabling observation
is that the solver's product spaces are *dense and tiny*: a packed state
is ``Σ slot_i · base^i`` with ``base = n · S``, every integer in
``[0, base^k)`` decodes to a valid ``(positions, states)`` tuple, and for
the sweep families ``base^k`` is at most a few hundred. Nothing about the
decoding — positions, multiplicity bits, adversary move sets, port masks
— depends on the algorithm; only the Look–Compute table
``transitions[view]`` does. So the *geometry* of the space is compiled
once per ``(topology, chirality vector, S, scheduler)``
(:class:`DenseSpace`, process-cached) and a whole chunk of tables is
solved in lockstep:

* **expand** — one folded gather per robot turns a ``(B, S·8)`` stack of
  Look–Compute tables into the full dense successor tensor
  ``succ[b, p, j]`` over every state ``p`` and adversary move ``j``
  (FSYNC edge masks; SSYNC edge×activation moves packed above
  ``act_shift``, mirroring ``PackedKernel._reachable_ssync``'s
  mask-major / activation-minor order);
* **frontier** — reachability is breadth-first over boolean ``(B, P)``
  bitmaps: each level scatter-marks all successors of the whole frontier
  of the whole batch at once;
* **scc** — per target node, the avoiding arena's transitive closure is
  computed by a bit-parallel Floyd–Warshall over uint64 bit-row words
  (``P`` vector steps instead of a per-state Tarjan), mutual
  reachability partitions into SCCs, and the winning criterion — an SCC
  with an internal transition whose label union misses at most *budget*
  edges and, under SSYNC, activates every robot — is a masked OR-reduce
  plus popcount per component. Tables proven trapped at a target drop
  out of the remaining targets, exactly like the scalar early exit.

Single instances — ``verify``, and sweep chunks whose space is not
dense-eligible or that validate certificates — take the per-instance
path, which beyond the dense cap scales with the reachable graph rather
than the ``(n·S)^k`` space:

* :func:`reachable_csr` — breadth-first over an int64 frontier
  deduplicated against a sorted ``visited`` array (or, for a
  dense-eligible space, over its cached :class:`DenseSpace`), emitting
  the canonical CSR that :mod:`repro.verification.game` solves: states
  ascending, per-state transitions in the scalar kernel's move order —
  the *same* graph the packed backend builds, so vector and packed
  verdicts and certificates are bit-identical by construction;
* :class:`WinningScreen` — a yes/no winning-SCC test per target
  (peeling plus Tarjan over deduplicated successor pairs, label unions
  as one ``np.bitwise_or.at``), so the list-based search and the
  certificate run only for the target it flags.

NumPy is a required dependency and ``backend="auto"`` resolves to this
backend. Chunks that are not :func:`dense_eligible` go per table through
the sparse path (identical tallies either way); only packed states
beyond int64 (:func:`fits_int64`) leave NumPy for the scalar kernel.
"""

from __future__ import annotations

import time
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.errors import VerificationError
from repro.verification.kernel import PackedKernel

#: Hard cap on a dense space's state count (beyond it, fall back to the
#: scalar per-table path — the dense tensors would stop paying off).
MAX_DENSE_STATES = 1 << 12

#: Hard cap on one table's dense successor tensor (states × branches).
MAX_DENSE_CELLS = 1 << 21

#: Target element count for one batched successor tensor; chunks larger
#: than this are solved in sub-batches. Tuned low on purpose: the dense
#: tensors of a sub-batch should sit in cache, not in main memory —
#: larger sub-batches measure *slower* despite the amortized call
#: overhead.
BATCH_CELL_TARGET = 1 << 18

#: Cap on the (U, P, P) mutual-reachability tensor per sub-batch.
BATCH_PAIR_TARGET = 1 << 20

#: Bits per uint64 word of a reachability bit-row.
_BITS = 64

_space_cache: dict = {}


def _branch_bound(kernel: PackedKernel) -> int:
    """Upper bound on per-state branching (moves × activations)."""
    moves = 1 << min(2 * kernel.k, kernel.m)
    if kernel.scheduler == "ssync":
        return moves * kernel.full_act
    return moves


def dense_eligible(kernel: PackedKernel) -> bool:
    """Whether this instance's product space fits the dense solver.

    False — too many dense states, or too large a successor tensor —
    means the caller should run the sparse per-instance path instead;
    the verdicts are identical either way.
    """
    space = kernel._base ** kernel.k
    if space > MAX_DENSE_STATES:
        return False
    return space * _branch_bound(kernel) <= MAX_DENSE_CELLS


def _decode(states: "object", base: int, S: int, k: int) -> tuple:
    """Decode packed states: ``(slots, positions, occupied, towers)``.

    ``slots``/``positions`` are per-robot int64 arrays; ``occupied`` and
    ``towers`` the occupied-node and multiplicity bitmasks per state.
    """
    slots = [(states // base**i) % base for i in range(k)]
    pos = [slot // S for slot in slots]
    occ = np.zeros(states.shape, dtype=np.int64)
    tow = np.zeros(states.shape, dtype=np.int64)
    for p in pos:
        bit = np.int64(1) << p
        tow |= occ & bit
        occ |= bit
    return slots, pos, occ, tow


class DenseSpace:
    """The table-independent geometry of one dense product space.

    Everything here depends only on ``(topology, chirality vector, S,
    scheduler)`` — decoded positions, multiplicity bits, padded adversary
    move tables, per-robot view rows and landing slots, transition
    labels. Instances are process-cached (:func:`dense_space`), so a
    sweep pays the construction once per chirality stage.
    """

    def __init__(self, kernel: PackedKernel) -> None:
        self.topology = kernel.topology
        self.scheduler = kernel.scheduler
        self.k = kernel.k
        self.n = kernel.n
        self.m = kernel.m
        self.S = kernel.state_count
        self.base = kernel._base
        self.space = self.base ** self.k
        self.full_mask = kernel.full_mask
        self.act_shift = kernel.act_shift
        self.full_act = kernel.full_act
        space, S, k = self.space, self.S, self.k

        slots, pos, occ, tow = _decode(
            np.arange(space, dtype=np.int64), self.base, S, k
        )
        self.occ = occ

        moves_pad, mcount = kernel.padded_moves(occ.tolist())
        self.moves_pad = moves_pad
        self.mcount = mcount
        self.max_moves = moves_pad.shape[1]

        # Per robot: the full view row (state row + multiplicity + left/
        # right occupancy bits per move) and the landing slot for either
        # direction bit of the computed state — all table-independent.
        # int16 throughout: every value is a state/slot/row index below
        # 2^15 (the dense caps guarantee it), and the expansion tensors
        # are memory-bound.
        self.robots = []
        for i in range(k):
            left, right, mm, md = kernel._robot_tables[i]
            left = np.asarray(left, dtype=np.int64)[pos[i]]
            right = np.asarray(right, dtype=np.int64)[pos[i]]
            mm = np.asarray(mm, dtype=np.int64)
            md = np.asarray(md, dtype=np.int64)
            view = (slots[i] % S) * 8 + ((tow >> pos[i]) & 1)
            view = (
                view[:, None]
                + 4 * ((moves_pad & left[:, None]) != 0)
                + 2 * ((moves_pad & right[:, None]) != 0)
            ).astype(np.int16)
            slot_for_dir = []
            for dir_bit in (0, 1):
                pointer = pos[i] * 2 + dir_bit
                moved = (moves_pad & mm[pointer][:, None]) != 0
                landing = np.where(moved, md[pointer][:, None], pos[i][:, None])
                slot_for_dir.append((landing * S).astype(np.int16))
            self.robots.append(
                (view, slot_for_dir[0], slot_for_dir[1], slots[i].astype(np.int16))
            )

        # Narrowest integer dtype that holds a full transition label —
        # the label-union reductions are the solve loop's biggest tensors.
        label_bits = self.act_shift + k if self.scheduler == "ssync" else self.m
        label_dtype = (
            np.int16 if label_bits < 15 else
            np.int32 if label_bits < 31 else np.int64
        )
        if self.scheduler == "ssync":
            acts = np.arange(1, self.full_act + 1, dtype=np.int64)
            self.labels = (
                (moves_pad[:, :, None] | (acts << self.act_shift))
                .reshape(space, -1)
                .astype(label_dtype)
            )
            self.deg = mcount * self.full_act
        else:
            self.labels = moves_pad.astype(label_dtype)
            self.deg = mcount
        self.branch = self.labels.shape[1]
        self.pop = np.array(
            [bin(x).count("1") for x in range(1 << self.m)], dtype=np.int64
        )
        # State-index → bit-row word/bit, for the Warshall closure.
        self.words = (space + _BITS - 1) // _BITS
        self.word_of = np.arange(space, dtype=np.int64) // _BITS
        self.bit_of = (np.arange(space) % _BITS).astype(np.uint64)
        self.bitval = np.array(
            [1 << (s % _BITS) for s in range(space)], dtype=np.uint64
        )
        self.eye = np.eye(space, dtype=bool)
        self._target_cache: dict = {}

    def target_view(self, target: int) -> tuple:
        """Cached per-target geometry of the avoiding arena.

        Returns ``(avoid, avoid_mask, sel, labels_sel)``: the boolean
        does-not-occupy-``target`` state mask, the same mask packed into
        bit-row words, the avoiding state indices and the label rows
        restricted to them. Everything downstream of the arena — Warshall
        vias, internal-transition rows, candidate SCC roots — only ever
        ranges over these states, a batch-uniform restriction.
        """
        cached = self._target_cache.get(target)
        if cached is None:
            avoid = ((self.occ >> target) & 1) == 0
            sel = np.nonzero(avoid)[0]
            avoid_mask = np.zeros(self.words, dtype=np.uint64)
            for s in sel.tolist():
                avoid_mask[s // _BITS] |= np.uint64(1 << (s % _BITS))
            eye_sel = np.eye(sel.size, dtype=np.uint8)
            cached = (avoid, avoid_mask, sel, self.labels[sel], eye_sel)
            self._target_cache[target] = cached
        return cached


def dense_space(kernel: PackedKernel) -> DenseSpace:
    """The (process-cached) dense geometry for a kernel's instance."""
    key = (
        kernel.topology,
        kernel.chiralities,
        kernel.state_count,
        kernel.scheduler,
    )
    cached = _space_cache.get(key)
    if cached is None:
        cached = DenseSpace(kernel)
        _space_cache[key] = cached
    return cached


def _expand(sp: DenseSpace, trans: "object", dirs: "object") -> "object":
    """The dense successor tensor ``(B, space, branch)`` of a table stack.

    ``trans``/``dirs`` are ``(B, S·8)`` / ``(B, S)`` int stacks (a
    ``(1, S)`` ``dirs`` row broadcasts over the batch). Per
    robot one gather folds Look–Compute and direction into
    ``new_state·2 + dir_bit``; the landing slot is then a select between
    the two precompiled per-direction slot tables plus the new state.
    """
    td = (trans * 2 + np.take_along_axis(dirs, trans, axis=1)).astype(np.int16)
    slots = []
    for view, slot0, slot1, _idle in sp.robots:
        t = td[:, view]
        slot = np.where((t & 1).astype(bool), slot1, slot0) + (t >> 1)
        slots.append(slot)
    if sp.scheduler != "ssync":
        succ = slots[sp.k - 1]
        for i in range(sp.k - 2, -1, -1):
            succ = succ * sp.base + slots[i]
        return succ
    parts = []
    for act in range(1, sp.full_act + 1):
        succ = None
        for i in range(sp.k - 1, -1, -1):
            part = (
                slots[i]
                if act >> i & 1
                else sp.robots[i][3][None, :, None]
            )
            succ = part if succ is None else succ * sp.base + part
        parts.append(np.broadcast_to(succ, slots[0].shape))
    batch = slots[0].shape[0]
    return np.stack(parts, axis=-1).reshape(batch, sp.space, -1)


def _unpack(rows: "object", count: int, as_bool: bool = True) -> "object":
    """Bit-rows ``(..., words)`` uint64 → ``(..., count)`` flags.

    ``as_bool=False`` returns the raw 0/1 uint8 plane (one copy fewer)
    for consumers that only mask or reduce it.
    """
    if np.little_endian:
        flat = np.unpackbits(
            np.ascontiguousarray(rows).view(np.uint8),
            axis=-1,
            bitorder="little",
        )[..., :count]
        return flat.astype(bool) if as_bool else flat
    word_of = np.arange(count, dtype=np.int64) // _BITS
    bit_of = (np.arange(count) % _BITS).astype(np.uint64)
    bits = (rows[..., word_of] >> bit_of) & np.uint64(1)
    return bits.astype(bool) if as_bool else bits.astype(np.uint8)


def _adjacency(sp: DenseSpace, succ: "object") -> "object":
    """Per-state successor bitmasks ``(B, P, words)`` of a batch."""
    tbits = sp.bitval[succ]
    if sp.words == 1:
        return np.bitwise_or.reduce(tbits, axis=2)[:, :, None]
    tword = sp.word_of[succ]
    adj = np.empty(succ.shape[:2] + (sp.words,), dtype=np.uint64)
    for w in range(sp.words):
        adj[:, :, w] = np.bitwise_or.reduce(
            np.where(tword == w, tbits, 0), axis=2
        )
    return adj


def _reachable(
    sp: DenseSpace, adj: "object", seeds: Sequence[int]
) -> tuple:
    """Lockstep BFS over successor bitmasks.

    Each level ORs the adjacency rows of the whole frontier of the whole
    batch — no per-state scatter. Returns ``(visited, vis_mask)``: the
    boolean ``(B, P)`` bitmap and its packed ``(B, words)`` form.
    """
    batch = adj.shape[0]
    seed_mask = np.zeros(sp.words, dtype=np.uint64)
    for s in set(int(s) for s in seeds):
        seed_mask[s // _BITS] |= np.uint64(1 << (s % _BITS))
    vis_mask = np.broadcast_to(seed_mask, (batch, sp.words)).copy()
    frontier = vis_mask
    while True:
        hot = _unpack(frontier, sp.space, as_bool=False)
        nxt = np.bitwise_or.reduce(
            np.where(hot[:, :, None], adj, 0), axis=1
        )
        nxt &= ~vis_mask
        if not nxt.any():
            break
        vis_mask |= nxt
        frontier = nxt
    return _unpack(vis_mask, sp.space), vis_mask


def _solve(
    sp: DenseSpace,
    succ: "object",
    adj_full: "object",
    visited: "object",
    vis_mask: "object",
    seeds: Sequence[int],
    prop: str,
) -> "object":
    """Trapped flags ``(B,)`` for one expanded, explored table stack.

    Implements exactly the scalar winning criterion per target node:
    SCCs of the target-avoiding arena (live: restricted to the
    avoiding-from-round-0 region), at least one internal transition,
    label union missing at most *budget* edges, SSYNC activation union
    covering every robot. Tables trapped at a target drop out of the
    later targets, mirroring the scalar first-winning-target exit.

    All reachability state lives in uint64 bit-rows: the arena is the
    visited bitmask AND the target-avoiding mask, its adjacency is the
    full-space successor bitmasks masked to the arena, and the
    bit-parallel Floyd–Warshall only iterates vias over avoiding states
    present in some table's arena.
    """
    batch = succ.shape[0]
    budget = 1 if sp.topology.is_ring else 0
    ssync = sp.scheduler == "ssync"
    seed_idx = np.array(sorted(set(int(s) for s in seeds)), dtype=np.int64)
    trapped = np.zeros(batch, dtype=bool)
    undecided = np.arange(batch)
    for target in range(sp.n):
        if undecided.size == 0:
            break
        avoid, avoid_mask, sel, labels_sel, eye_sel = sp.target_view(target)
        count = undecided.size
        if count == batch:
            vis_u, mask_u, adj_u, succ_u = visited, vis_mask, adj_full, succ
        else:
            vis_u = visited[undecided]
            mask_u = vis_mask[undecided]
            adj_u = adj_full[undecided]
            succ_u = succ[undecided]
        arena = vis_u & avoid[None, :]
        arena_mask = mask_u & avoid_mask[None, :]
        # Arena adjacency bit-rows: successor masks clipped to the arena,
        # rows of non-arena states zeroed; then bit-parallel
        # Floyd–Warshall — after the loop, bit v of reach[u, s] says
        # "v reachable from s via a non-empty arena path of table u".
        reach = np.where(
            arena[:, :, None],
            adj_u & arena_mask[:, None, :],
            np.uint64(0),
        )
        vias = sel[arena.any(axis=0)[sel]].tolist()
        if sp.words == 1:
            flat = reach[:, :, 0]
            for via in vias:
                hot = (flat >> np.uint64(via)) & np.uint64(1)
                flat |= np.where(hot, flat[:, via][:, None], np.uint64(0))
        else:
            for via in vias:
                has = reach[:, :, via // _BITS] >> np.uint64(via % _BITS)
                reach |= np.where(
                    (has & np.uint64(1)).astype(bool)[:, :, None],
                    reach[:, via, :][:, None, :],
                    np.uint64(0),
                )
        if prop == "live":
            # The live arena: states reachable from target-avoiding seeds
            # through target-avoiding states. Forward-closed within the
            # arena, so SCC membership filtering reproduces the scalar
            # allowed-set restriction exactly.
            seed_ok = arena[:, seed_idx]
            rows = np.bitwise_or.reduce(
                np.where(seed_ok[:, :, None], reach[:, seed_idx, :], 0),
                axis=1,
            )
            member = _unpack(rows, sp.space)
            member[:, seed_idx] |= seed_ok
            member &= arena
        else:
            member = arena
        # SCCs over the avoiding states only: mutual reachability among
        # sel rows/columns, component id = position of the first mutual
        # partner (scattered back to full-space ids so successor lookups
        # work; non-avoiding states get -1, masked by membership).
        forward = _unpack(reach[:, sel, :], sp.space, as_bool=False)[:, :, sel]
        mutual = forward & forward.transpose(0, 2, 1)
        mutual |= eye_sel
        csrc = np.argmax(mutual, axis=2).astype(np.int16)
        comp = np.full((count, sp.space), -1, dtype=np.int16)
        comp[:, sel] = csrc
        # Internal transitions, rows restricted to the avoiding states:
        # both endpoints in the member set and in the same component.
        # Sentinel trick: non-member sources get comp -2 and non-member
        # successors comp -1, so one equality test covers membership of
        # both endpoints and the same-component condition at once.
        sub = succ_u[:, sel]
        uidx = np.arange(count)[:, None, None]
        msrc = member[:, sel]
        mcomp = np.where(member, comp, np.int16(-1))
        mcsrc = np.where(msrc, csrc, np.int16(-2))
        internal = mcsrc[:, :, None] == mcomp[uidx, sub]
        state_union = np.bitwise_or.reduce(
            np.where(internal, labels_sel[None], 0), axis=2
        )
        has_internal = internal.any(axis=2)
        win = np.zeros(count, dtype=bool)
        for root in range(sel.size):
            members = (csrc == root) & msrc
            if not members.any():
                continue
            union = np.bitwise_or.reduce(
                np.where(members, state_union, 0), axis=1
            )
            ok = (members & has_internal).any(axis=1)
            ok &= sp.pop[(~union) & sp.full_mask] <= budget
            if ssync:
                ok &= (union >> sp.act_shift) == sp.full_act
            win |= ok
        trapped[undecided[win]] = True
        undecided = undecided[~win]
    return trapped


def _sub_batch(sp: DenseSpace) -> int:
    """Tables per sub-batch, bounding the dense tensors' footprint."""
    per_table = sp.space * sp.branch
    limit = min(
        BATCH_CELL_TARGET // per_table,
        BATCH_PAIR_TARGET // (sp.space * sp.space),
    )
    # Floor: below ~64 tables the per-call overhead dominates the math.
    return max(64, limit)


def solve_tables(
    kernel: PackedKernel,
    stack: tuple,
    seeds: Sequence[int],
    prop: str,
    max_states: int = 2_000_000,
    timings: Optional[dict] = None,
) -> tuple[list[bool], list[int]]:
    """Solve a whole stack of tables under one chirality vector.

    ``kernel`` supplies the geometry (any member of the family works —
    the dense space is table-independent); ``stack`` is a decoded
    ``(state_count, trans (B, S·8), dirs (S,))`` table stack as produced
    by :func:`repro.verification.sweeps.family_stack`. Returns per-table
    ``(trapped, states_explored)`` lists matching the scalar
    :func:`~repro.verification.game.verify_exploration` tallies
    bit-for-bit. ``timings`` (optional dict) accumulates
    ``compile`` / ``frontier`` / ``scc`` phase seconds.
    """
    sp = dense_space(kernel)
    mark = time.perf_counter()
    state_count, trans, dirs = stack
    if state_count != sp.S:
        raise VerificationError(
            f"table state count {state_count} != family state count {sp.S}"
        )
    dirs = dirs[None, :]
    seed_list = [int(s) for s in seeds]
    if timings is not None:
        timings["compile"] = timings.get("compile", 0.0) + (
            time.perf_counter() - mark
        )
    trapped: list[bool] = []
    explored: list[int] = []
    step = _sub_batch(sp)
    for start in range(0, trans.shape[0], step):
        mark = time.perf_counter()
        succ = _expand(sp, trans[start : start + step], dirs)
        adj_full = _adjacency(sp, succ)
        visited, vis_mask = _reachable(sp, adj_full, seed_list)
        counts = visited.sum(axis=1)
        if timings is not None:
            timings["frontier"] = timings.get("frontier", 0.0) + (
                time.perf_counter() - mark
            )
        if sp.space > max_states and (counts > max_states).any():
            index = int(np.nonzero(counts > max_states)[0][0])
            raise VerificationError(
                f"reachable state space exceeds {max_states} states for "
                f"table {start + index} on {sp.topology!r}"
            )
        mark = time.perf_counter()
        hits = _solve(sp, succ, adj_full, visited, vis_mask, seed_list, prop)
        if timings is not None:
            timings["scc"] = timings.get("scc", 0.0) + (
                time.perf_counter() - mark
            )
        trapped.extend(bool(h) for h in hits)
        explored.extend(int(c) for c in counts)
    return trapped, explored


#: Largest packed-state radix power the int64 frontier can represent.
_INT64_SPACE = 1 << 62


def fits_int64(kernel: PackedKernel) -> bool:
    """Whether the instance's packed states fit the int64 frontier.

    Every ``(n·S)^k`` below 2^62 does; beyond it (double-digit robot
    counts) the caller runs the scalar kernel, whose states are Python
    ints.
    """
    return kernel._base ** kernel.k < _INT64_SPACE


def _unique(values: "object") -> "object":
    """Sorted distinct values of an int64 array.

    Sort plus neighbour compare: several times faster on large int64
    arrays than ``np.unique``, which hashes.
    """
    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _ranges(indptr: "object", rows: "object") -> "object":
    """Flat positions of the CSR blocks of ``rows``, in ``rows`` order."""
    start = indptr[rows]
    count = indptr[rows + 1] - start
    offset = np.cumsum(count) - count
    return np.repeat(start - offset, count) + np.arange(int(count.sum()))


_geometry_cache: dict = {}


def _sparse_geometry(kernel: PackedKernel) -> list:
    """Table-independent per-robot geometry of the sparse solver.

    Per robot, over every slot ``position·S + state`` and every
    ``(tower, left port present, right port present)`` combination
    (index ``slot·8 + tower·4 + left·2 + right``): the Look–Compute view
    row, the pointer-row base, an edge mask with exactly those ports
    present, and the robot's position — plus the left/right port masks
    per node. A robot's landing depends on the adversary's move only
    through its two ports (its pointed edge is one of them), so these
    eight combinations cover every move. Process-cached per
    ``(topology, chirality, S)``: robots of equal chirality share one
    entry.
    """
    out = []
    for chirality, tables in zip(kernel.chiralities, kernel._robot_tables):
        key = (kernel.topology, chirality, kernel.state_count)
        cached = _geometry_cache.get(key)
        if cached is None:
            S = kernel.state_count
            slot = np.arange(kernel._base, dtype=np.int64)[:, None]
            pos, state = slot // S, slot % S
            combo = np.arange(8, dtype=np.int64)[None, :]
            tower, left_on, right_on = combo >> 2, combo >> 1 & 1, combo & 1
            left, right, mm, md = (
                np.asarray(table, dtype=np.int64) for table in tables
            )
            cached = (
                left, right, mm, md,
                state * 8 + tower + 4 * left_on + 2 * right_on,
                pos * 2,
                left[pos] * left_on | right[pos] * right_on,
                pos,
            )
            _geometry_cache[key] = cached
        out.append(cached)
    return out


def _landing_tables(kernel: PackedKernel) -> list:
    """Per robot, the next-slot table of one instance.

    Indexed like :func:`_sparse_geometry`'s combinations; it folds the
    instance's Look–Compute table, direction bits and the move into one
    gather per robot and transition.
    """
    trans, dirs, _initial = kernel.batch_tables()
    S = kernel.state_count
    geometries = _sparse_geometry(kernel)
    by_geometry: dict = {}
    for geometry in geometries:
        if id(geometry) not in by_geometry:
            _l, _r, mm, md, view, row, ports, pos = geometry
            new = trans[view]
            pointer = row + dirs[new]
            landing = np.where((ports & mm[pointer]) != 0, md[pointer], pos)
            by_geometry[id(geometry)] = (landing * S + new).ravel()
    return [by_geometry[id(geometry)] for geometry in geometries]


def _grid(kernel: PackedKernel, states: "object") -> tuple:
    """The table-independent half of expanding ``states``.

    Returns ``(occ, deg, labels, valid, rows, slots)``: occupied masks,
    out-degrees and flat transition labels — state-major in kernel move
    order, the normalized edge masks of
    :meth:`PackedKernel.moves_for_occupied` crossed under SSYNC with
    every non-empty activation mask (mask-major, activation-minor),
    exactly the scalar kernel's per-state order — plus the padded
    ``(state, move)`` grid's valid-prefix mask, each robot's
    next-slot-table index per grid cell and each robot's current slot.
    """
    k, base, S = kernel.k, kernel._base, kernel.state_count
    slots, pos, occ, tow = _decode(states, base, S, k)
    uocc, inv = np.unique(occ, return_inverse=True)
    moves_pad, mcount = kernel.padded_moves(uocc.tolist())
    deg = mcount[inv]
    moves = moves_pad[inv]
    valid = np.arange(moves.shape[1]) < deg[:, None]
    rows = []
    for i, geometry in enumerate(_sparse_geometry(kernel)):
        left, right = geometry[0][pos[i]], geometry[1][pos[i]]
        row = slots[i] * 8 + ((tow >> pos[i]) & 1) * 4
        rows.append(
            row[:, None]
            + 2 * ((moves & left[:, None]) != 0)
            + ((moves & right[:, None]) != 0)
        )
    labels = moves[valid]
    if kernel.scheduler == "ssync":
        acts = np.arange(1, kernel.full_act + 1, dtype=np.int64)
        labels = (labels[:, None] | (acts << kernel.act_shift)).ravel()
        deg = deg * kernel.full_act
    return occ, deg, labels, valid, rows, slots


def _successors(kernel: PackedKernel, grid: tuple, tables: list) -> "object":
    """The table-dependent half: successors on the padded grid.

    Shape ``(states, moves)``, or ``(states, moves, activations)`` under
    SSYNC; indexing with the grid's ``valid`` mask and flattening aligns
    it with the grid's labels. Padding cells repeat move 0, a real
    transition, so the padded form is safe for reachability as is.
    """
    _occ, _deg, _labels, _valid, rows, slots = grid
    k, base = kernel.k, kernel._base
    landed = [table[row] for table, row in zip(tables, rows)]
    if kernel.scheduler != "ssync":
        succ = landed[k - 1]
        for i in range(k - 2, -1, -1):
            succ = succ * base + landed[i]
        return succ
    per_act = []
    for act in range(1, kernel.full_act + 1):
        succ = 0
        for i in range(k - 1, -1, -1):
            part = landed[i] if act >> i & 1 else slots[i][:, None]
            succ = succ * base + part
        per_act.append(np.broadcast_to(succ, landed[0].shape))
    return np.stack(per_act, axis=-1)


def _overflow(kernel: PackedKernel) -> VerificationError:
    """The scalar kernel's ``max_states`` error, word for word."""
    return VerificationError(
        f"reachable state space exceeds {kernel.max_states} states "
        f"for {kernel.algorithm.name!r} on {kernel.topology!r}"
    )


def _reach_dense(kernel: PackedKernel, seeds: "object") -> tuple:
    """Reachability over the cached :class:`DenseSpace` (small spaces).

    The successors of every state of the space come from one
    :func:`_expand` call; each BFS level is then a gather and a scatter
    into a boolean mask. Returns ``(visited, occ, deg, labels, succ)``,
    rows in ``visited`` order.
    """
    sp = dense_space(kernel)
    trans, dirs, _initial = kernel.batch_tables()
    succ = _expand(sp, trans[None, :], dirs[None, :])[0]
    seen = np.zeros(sp.space, dtype=bool)
    seen[seeds] = True
    frontier = np.flatnonzero(seen)
    while frontier.size:
        fresh = np.zeros_like(seen)
        fresh[succ[frontier]] = True
        fresh &= ~seen
        seen |= fresh
        frontier = np.flatnonzero(fresh)
    visited = np.flatnonzero(seen)
    if visited.size > kernel.max_states:
        raise _overflow(kernel)
    deg = sp.deg[visited]
    valid = np.arange(sp.branch) < deg[:, None]
    return (
        visited, sp.occ[visited], deg,
        sp.labels[visited][valid].astype(np.int64),
        succ[visited][valid].astype(np.int64),
    )


def _reach_levels(kernel: PackedKernel, seeds: "object") -> tuple:
    """Level-by-level reachability over an int64 frontier.

    Each level expands every transition of the frontier at once and
    deduplicates the successors against the sorted ``visited`` array
    with a sort + ``searchsorted``; each level's transitions are kept,
    so no state is expanded twice. Returns ``(visited, occ, deg,
    labels, succ)``, rows in ``visited`` order.
    """
    tables = _landing_tables(kernel)
    frontier = visited = _unique(seeds)
    levels = []
    while frontier.size:
        grid = _grid(kernel, frontier)
        succ = _successors(kernel, grid, tables)[grid[3]].ravel()
        levels.append((frontier,) + grid[:3] + (succ,))
        cand = _unique(succ)
        at = np.searchsorted(visited, cand)
        fresh = visited[np.minimum(at, visited.size - 1)] != cand
        frontier = cand[fresh]
        if not frontier.size:
            break
        visited = np.sort(np.concatenate((visited, frontier)))
        if visited.size > kernel.max_states:
            raise _overflow(kernel)
    if not levels:
        empty = np.zeros(0, dtype=np.int64)
        return (empty,) * 5
    level_states, occ, deg, labels, succ = (
        np.concatenate(parts) for parts in zip(*levels)
    )
    # Levels are disjoint, so sorting their states yields ``visited``;
    # the transition blocks follow their states into ascending order.
    order = np.argsort(level_states, kind="stable")
    level_ptr = np.zeros(order.size + 1, dtype=np.int64)
    np.cumsum(deg, out=level_ptr[1:])
    flat = _ranges(level_ptr, order)
    return visited, occ[order], deg[order], labels[flat], succ[flat]


def reachable_csr(kernel: PackedKernel, seeds: Sequence[int]) -> tuple:
    """One table's reachable graph in canonical CSR form, sparsely.

    Breadth-first over an int64 frontier (:func:`_reach_levels`): only
    reached states are expanded, so the cost follows the reachable
    graph, not the ``(n·S)^k`` space. Spaces that are
    :func:`dense_eligible` instead gather from their process-cached
    :class:`DenseSpace` (:func:`_reach_dense`): they are many BFS levels
    of a few states each, where per-level expansion overhead dominates.

    Returns ``(states, indptr, labels, succs, occ, seed_idx)`` as int64
    ndarrays: reached packed states ascending, per-state transitions in
    the scalar kernel's move order, occupied-node bitmask per state and
    seed indices in first-occurrence order — exactly the CSR the packed
    backend builds from ``PackedKernel.reachable``, so the shared solve
    phase in :mod:`repro.verification.game` produces bit-identical
    verdicts and certificates. Raises :class:`VerificationError` on the
    same ``max_states`` overflow the scalar path reports.
    """
    seed_arr = np.asarray(list(seeds), dtype=np.int64)
    reach = _reach_dense if dense_eligible(kernel) else _reach_levels
    visited, occ, deg, labels, succ = reach(kernel, seed_arr)
    indptr = np.zeros(visited.size + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    seed_rank = np.searchsorted(visited, seed_arr)
    _ranks, first = np.unique(seed_rank, return_index=True)
    return (
        visited,
        indptr,
        labels,
        np.searchsorted(visited, succ),
        occ,
        seed_rank[np.sort(first)],
    )


def csr_sccs(
    ptr: Sequence[int],
    dst: Sequence[int],
    roots: Iterable[int],
    allowed: Sequence[bool],
) -> Iterator[list[int]]:
    """Iterative Tarjan over CSR successor lists, within ``allowed``.

    Starts from ``roots`` in order (skipping disallowed and already
    visited ones), follows node ``v``'s successors
    ``dst[ptr[v]:ptr[v + 1]]`` in list order, ignores successors outside
    ``allowed`` and yields each strongly-connected component as soon as
    it is complete — its members in stack-pop order. Pure Python: the
    list-based winning-SCC search of :mod:`repro.verification.game`
    (which stops at the first winning component) and
    :class:`WinningScreen` share it.
    """
    count = len(allowed)
    index = [-1] * count
    low = [0] * count
    on_stack = [False] * count
    stack: list[int] = []
    counter = 0
    for root in roots:
        if not allowed[root] or index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, ptr[root])]
        while work:
            node, cursor = work[-1]
            end = ptr[node + 1]
            advanced = False
            while cursor < end:
                child = dst[cursor]
                cursor += 1
                if not allowed[child]:
                    continue
                if index[child] < 0:
                    work[-1] = (node, cursor)
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack[child] = True
                    work.append((child, ptr[child]))
                    advanced = True
                    break
                if on_stack[child] and index[child] < low[node]:
                    low[node] = index[child]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
            if low[node] != index[node]:
                continue
            component = []
            while True:
                member = stack.pop()
                on_stack[member] = False
                component.append(member)
                if member == node:
                    break
            yield component


def _peel(alive: "object", rows: "object", ptr: "object", nbr: "object") -> None:
    """Peel, in place, the ``alive`` nodes no alive ``rows`` edge enters.

    ``(ptr, nbr)`` is the CSR of the same loop-free edge list whose
    tails are ``rows``. Kahn-style: each round drops the nodes whose
    in-degree from alive nodes fell to zero and decrements their heads,
    so the whole peel touches every edge once.
    """
    live = alive[rows] & alive[nbr]
    deg = np.bincount(nbr[live], minlength=alive.size)
    peel = np.flatnonzero(alive & (deg == 0))
    while peel.size:
        alive[peel] = False
        heads = nbr[_ranges(ptr, peel)]
        heads, hits = np.unique(heads[alive[heads]], return_counts=True)
        deg[heads] -= hits
        peel = heads[deg[heads] == 0]


def _rotation_closed(kernel: PackedKernel, states: "object") -> bool:
    """Whether rotating every robot one node on maps ``states`` into itself."""
    k, base, S, n = kernel.k, kernel._base, kernel.state_count, kernel.n
    if not states.size:
        return True
    slots, pos, _occ, _tow = _decode(states, base, S, k)
    rotated = 0
    for i in range(k - 1, -1, -1):
        rotated = rotated * base + (pos[i] + 1) % n * S + slots[i] % S
    at = np.minimum(np.searchsorted(states, rotated), states.size - 1)
    return bool((states[at] == rotated).all())


class WinningScreen:
    """A vectorized yes/no winning-SCC test over one reachable CSR graph.

    ``screen(target, prop)`` is True iff
    :func:`repro.verification.game._winning_scc_csr` finds a winning SCC
    for ``target`` — same arena (target-avoiding states; under ``live``
    only those reachable from target-avoiding seeds through avoiding
    states), same criterion — but it only answers yes or no, which frees
    it from the canonical search order:

    * parallel transitions collapse into successor *pairs* once per graph
      (several times fewer edges than transitions);
    * arena nodes that no other arena node enters, or that enter none,
      are peeled off first (:func:`_peel`, both directions, self-loops
      ignored) — each is a singleton SCC whose only possible internal
      transitions are self-loops;
    * Tarjan (:func:`csr_sccs`) runs over the remaining core only;
    * per-component label unions are one ``np.bitwise_or.at`` over the
      internal transitions, then the budget and SSYNC-activation tests;
    * on a ring whose reachable set is closed under rotation, the
      ``perpetual`` verdict is the same for every target — rotating by
      one node maps the graph onto itself and target ``v``'s arena onto
      target ``v + 1``'s, preserving SCCs, label popcounts and
      activations — so it is computed once. (``live`` arenas also
      depend on the rotation-reduced seeds, so they are not shared.)

    The caller runs the exact list-based search, which also yields the
    SCC and its certificate, only for a target the screen flags.
    """

    def __init__(self, kernel: PackedKernel, csr: tuple) -> None:
        states, indptr, labels, succs, self.occ, self.seeds = csr
        count = self.occ.size
        self.symmetric = kernel.topology.is_ring and _rotation_closed(
            kernel, states
        )
        self._verdicts: dict = {}
        # Successor pairs, each with the OR of its parallel transitions'
        # labels: a pair is internal to a component exactly when its
        # transitions are, so unions over pairs equal unions over
        # transitions.
        key = np.repeat(np.arange(count), np.diff(indptr)) * count + succs
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.flatnonzero(np.diff(key, prepend=-1))
        self.pair_label = np.bitwise_or.reduceat(labels[order], first)
        key = key[first]
        pair_src, pair_dst = key // count, key % count
        self.pair_src, self.pair_dst = pair_src, pair_dst
        self.pair_ptr = np.searchsorted(pair_src, np.arange(count + 1))
        # The loop-free pairs, by tail and by head, for peeling.
        loop_free = pair_src != pair_dst
        fwd_src, fwd_dst = pair_src[loop_free], pair_dst[loop_free]
        order = np.argsort(fwd_dst, kind="stable")
        self.forward = (
            fwd_src, np.searchsorted(fwd_src, np.arange(count + 1)), fwd_dst
        )
        bwd_dst = fwd_dst[order]
        self.backward = (
            bwd_dst, np.searchsorted(bwd_dst, np.arange(count + 1)),
            fwd_src[order],
        )
        self.budget = 1 if kernel.topology.is_ring else 0
        self.full_mask = kernel.full_mask
        self.ssync = kernel.scheduler == "ssync"
        self.act_shift = kernel.act_shift
        self.full_act = kernel.full_act

    def arena(self, target: int, prop: str) -> "object":
        """The boolean arena mask of ``target`` under ``prop``."""
        avoid = (self.occ >> target & 1) == 0
        if prop != "live":
            return avoid
        allowed = np.zeros(avoid.size, dtype=bool)
        frontier = _unique(self.seeds[avoid[self.seeds]])
        allowed[frontier] = True
        while frontier.size:
            nxt = _unique(self.pair_dst[_ranges(self.pair_ptr, frontier)])
            frontier = nxt[avoid[nxt] & ~allowed[nxt]]
            allowed[frontier] = True
        return allowed

    def __call__(self, target: int, prop: str) -> bool:
        if prop == "perpetual" and self.symmetric:
            target = 0
        key = (target, prop)
        if key not in self._verdicts:
            self._verdicts[key] = self._wins(target, prop)
        return self._verdicts[key]

    def _wins(self, target: int, prop: str) -> bool:
        arena = self.arena(target, prop)
        core = arena.copy()
        _peel(core, *self.forward)
        _peel(core, *self.backward)
        src, ptr, dst = self.forward
        keep = core[src] & core[dst]
        comp = [-1] * core.size
        ncomp = 0
        for component in csr_sccs(
            np.searchsorted(src[keep], np.arange(core.size + 1)).tolist(),
            dst[keep].tolist(),
            np.flatnonzero(core).tolist(),
            core.tolist(),
        ):
            for member in component:
                comp[member] = ncomp
            ncomp += 1
        comp = np.array(comp, dtype=np.int64)
        single = np.flatnonzero(arena & ~core)
        comp[single] = ncomp + np.arange(single.size)
        ncomp += single.size
        owner = comp[self.pair_src]
        internal = (owner >= 0) & (owner == comp[self.pair_dst])
        owner = owner[internal]
        union = np.zeros(ncomp, dtype=np.int64)
        np.bitwise_or.at(union, owner, self.pair_label[internal])
        union = union[np.bincount(owner, minlength=ncomp) > 0]
        missing = ~union & self.full_mask
        if self.budget:
            ok = (missing & (missing - 1)) == 0
        else:
            ok = missing == 0
        if self.ssync:
            ok &= (union >> self.act_shift) == self.full_act
        return bool(ok.any())


__all__ = [
    "MAX_DENSE_STATES",
    "MAX_DENSE_CELLS",
    "DenseSpace",
    "WinningScreen",
    "dense_eligible",
    "dense_space",
    "fits_int64",
    "reachable_csr",
    "solve_tables",
]
