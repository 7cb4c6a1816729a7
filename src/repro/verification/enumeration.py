"""Exhaustive and sampled sweeps over whole algorithm classes.

The paper's impossibility theorems quantify over *all* deterministic
algorithms. For bounded-memory classes this is a finite quantifier, and we
can discharge it by brute force:

* :func:`sweep_single_robot_memoryless` — all ``2**8`` memoryless
  single-robot algorithms on an ``n >= 3`` ring. With one robot,
  chirality is a relabeling of left/right, and the enumerated class is
  closed under that relabeling, so checking one chirality per table
  covers the class-level claim. Theorem 5.1 predicts: all of them fail.
* :func:`sweep_two_robot_memoryless` — the ``2**16`` memoryless two-robot
  algorithms on an ``n >= 4`` ring (exhaustive or uniformly sampled).
  The enumerated class is closed under the left/right relabeling too, so
  the all-AGREE chirality vector is checked first and mixed vectors only
  as a fallback. Theorem 4.1 predicts: all fail.

Both sweeps run on the parallel engine of
:mod:`repro.verification.sweeps`: pass ``backend`` to pick the
substrate (``auto``, the default, is the NumPy ``vector`` solver;
``packed`` is the scalar kernel, ``object`` the semantics oracle),
``jobs`` to shard the
table class across a process pool (``None`` = all cores), and
``scheduler`` to play the game under FSYNC (default) or SSYNC (the
semi-synchronous adversary of Di Luna et al., where an all-trapped sweep
machine-checks their impossibility over the class). The result is
identical — bit for bit, explorer order included — for every
(backend, jobs) combination; the full 65,536-table Theorem 4.1 sweep is
a routine operation on the vector and packed backends.

A sweep's value is the *shape* of its result: ``trapped == total`` is an
exhaustive finite-domain confirmation of the paper's universally
quantified claim, something no sampling of schedules could give.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional

from repro.errors import VerificationError
from repro.graph.topology import RingTopology
from repro.robots.algorithms.tables import TableAlgorithm, table_space_size
from repro.verification.sweeps import (
    SweepResult,
    check_algorithm_class,
    family_plan,
    run_table_sweep,
)


def sample_table_patterns(space: int, sample: int, seed: int) -> list[int]:
    """``sample`` distinct table patterns drawn uniformly from ``0..space-1``.

    Deterministic for a fixed ``(space, sample, seed)`` triple — the same
    draw on every machine, worker count and Python ≥ 3.11 build — which is
    what lets sampled campaigns checkpoint and resume. Works on spaces far
    past enumeration (``random.sample`` indexes the range lazily), e.g.
    the ``2**64`` memory-2 two-robot class.
    """
    if not 1 <= sample <= space:
        raise VerificationError(
            f"sample must be in 1..{space}, got {sample}"
        )
    rng = random.Random(seed)
    if space <= (1 << 63) - 1:
        # The historical draw (kept bit-for-bit for existing artifacts).
        return rng.sample(range(space), sample)
    # ``random.sample`` needs len(population) to fit a C ssize_t; past
    # that, rejection-sample distinct values. At sane sample sizes the
    # collision probability is ~sample²/space, so retries are vanishing.
    seen: set[int] = set()
    draws: list[int] = []
    while len(draws) < sample:
        value = rng.randrange(space)
        if value not in seen:
            seen.add(value)
            draws.append(value)
    return draws


def _sweep_description(base: str, scheduler: str) -> str:
    """Human description of a sweep; tagged under non-FSYNC schedulers."""
    return base if scheduler == "fsync" else f"{base} [{scheduler}]"


def sweep_single_robot_memoryless(
    n: int,
    validate_certificates: bool = False,
    backend: str = "auto",
    jobs: Optional[int] = 1,
    scheduler: str = "fsync",
) -> SweepResult:
    """Check all 256 memoryless single-robot algorithms on the ``n``-ring.

    Theorem 5.1 says every one of them must be trappable for ``n >= 3``;
    under ``scheduler="ssync"`` the same conclusion is an instance of the
    Di Luna et al. semi-synchronous impossibility (with one robot SSYNC
    adds only the degenerate everyone-active choice, so the two sweeps
    must tally identically).
    """
    if n < 3:
        raise VerificationError(
            f"Theorem 5.1 concerns rings of size >= 3, got n={n}"
        )
    result = SweepResult(
        description=_sweep_description(
            "all memoryless 1-robot algorithms", scheduler
        ),
        n=n,
        k=1,
        total=0,
        trapped=0,
    )
    return run_table_sweep(
        result,
        family="single",
        bit_patterns=range(1 << 8),
        backend=backend,
        validate=validate_certificates,
        jobs=jobs,
        scheduler=scheduler,
    )


def sweep_two_robot_memoryless(
    n: int,
    sample: Optional[int] = 2048,
    seed: int = 20170605,
    validate_certificates: bool = False,
    extra_tables: Iterable[TableAlgorithm] = (),
    backend: str = "auto",
    jobs: Optional[int] = 1,
    scheduler: str = "fsync",
) -> SweepResult:
    """Check memoryless two-robot algorithms on the ``n``-ring.

    ``sample=None`` sweeps all 65536 tables (seconds on the vector and
    packed backends, minutes on the object path); an integer draws that many
    distinct tables uniformly (plus any ``extra_tables``, e.g. the
    structured baselines). Theorem 4.1 says every member must be
    trappable for ``n >= 4``; under ``scheduler="ssync"`` the all-trapped
    outcome reproduces the Di Luna et al. semi-synchronous impossibility
    over this class (every FSYNC trap is in particular a fair SSYNC one).

    For each table the all-AGREE chirality vector is tried first; only if
    the table survives it are the remaining vectors checked (an algorithm
    fails the spec if *any* well-initiated execution — any chirality
    assignment — is trappable).
    """
    if n < 4:
        raise VerificationError(
            f"Theorem 4.1 concerns rings of size >= 4, got n={n}"
        )
    if sample is None:
        bit_patterns: list[int] = list(range(1 << 16))
        total_hint = 1 << 16
    else:
        if not 1 <= sample <= 1 << 16:
            raise VerificationError(f"sample must be in 1..65536, got {sample}")
        bit_patterns = sample_table_patterns(1 << 16, sample, seed)
        total_hint = sample
    description = _sweep_description(
        "all memoryless 2-robot algorithms"
        if sample is None
        else f"{total_hint} sampled memoryless 2-robot algorithms",
        scheduler,
    )
    result = SweepResult(description=description, n=n, k=2, total=0, trapped=0)
    run_table_sweep(
        result,
        family="two",
        bit_patterns=bit_patterns,
        backend=backend,
        validate=validate_certificates,
        jobs=jobs,
        scheduler=scheduler,
    )

    # Structured extras (a handful at most) are checked in-process, after
    # the table family, preserving the historical result ordering.
    topology = RingTopology(n)
    for algorithm in extra_tables:
        trapped, states = check_algorithm_class(
            algorithm,
            topology,
            k=2,
            vector_plan=family_plan("two"),
            backend=backend,
            validate=validate_certificates,
            scheduler=scheduler,
        )
        result.total += 1
        result.states_explored += states
        if trapped:
            result.trapped += 1
        else:
            result.explorers.append(algorithm.name)
    return result


def sweep_two_robot_memory2(
    n: int,
    sample: int = 256,
    seed: int = 20170605,
    validate_certificates: bool = False,
    backend: str = "auto",
    jobs: Optional[int] = 1,
    scheduler: str = "fsync",
) -> SweepResult:
    """Check a deterministic sample of memory-2 two-robot algorithms.

    The memory-2 class has ``4**32 = 2**64`` members — far past
    exhaustion — so this sweep draws ``sample`` distinct tables with a
    seeded RNG (:func:`sample_table_patterns`: same tables for the same
    seed on any machine or worker count). Theorem 4.1 quantifies over
    *all* deterministic algorithms, bounded memory included, so it
    predicts every sampled member is trappable for ``n >= 4``.
    """
    if n < 4:
        raise VerificationError(
            f"Theorem 4.1 concerns rings of size >= 4, got n={n}"
        )
    bit_patterns = sample_table_patterns(table_space_size(2), sample, seed)
    result = SweepResult(
        description=_sweep_description(
            f"{sample} sampled memory-2 2-robot algorithms", scheduler
        ),
        n=n,
        k=2,
        total=0,
        trapped=0,
    )
    return run_table_sweep(
        result,
        family="two-m2",
        bit_patterns=bit_patterns,
        backend=backend,
        validate=validate_certificates,
        jobs=jobs,
        scheduler=scheduler,
    )


__all__ = [
    "SweepResult",
    "sample_table_patterns",
    "sweep_single_robot_memoryless",
    "sweep_two_robot_memoryless",
    "sweep_two_robot_memory2",
]
