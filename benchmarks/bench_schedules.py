"""Benchmark + artifact: simulation-path throughput for dynamics campaigns.

The schedule-dynamics families execute by bounded-horizon simulation
(:mod:`repro.scenarios.simulate`) rather than by exact game solving, so
their cost scales with ``horizon × placements × chirality stages`` per
table instead of with the product game graph. Since the packed simulation
backend (compiled tables + precompiled schedule masks) landed, the path
has the same two-substrate shape as the exact solver, and this benchmark
tracks it the same way ``bench_enumeration.py`` tracks the solver:

* ``test_packed_vs_object_simulation`` times the same families on both
  scalar simulation backends, asserts *identical tallies* (the
  differential invariant campaigns rest on) and a ≥10× packed speedup
  floor, and appends the pair to ``benchmarks/results/BENCH_sweeps.json``;
* ``test_vector_vs_packed_simulation`` holds the NumPy lockstep kernel
  (:mod:`repro.verification.batch`) to the same convention one tier up:
  vector vs scalar packed on identical work, identical tallies, and a
  ≥10× vector speedup floor at n=4 (the n=6 T-interval pair is
  recorded alongside, unfloored);
* ``test_simulation_path_throughput`` records tables/s per registered
  family on the packed and vector backends — including the n=6 family
  the packed backend unlocked — with a chunk-split determinism
  cross-check riding along.
"""

from __future__ import annotations

import os

from repro.scenarios import get_scenario, simulate_chunk


def _merged(spec, patterns, size: int, backend: str = "packed"):
    parts = [
        simulate_chunk(spec, patterns[i : i + size], backend)
        for i in range(0, len(patterns), size)
    ]
    return (
        sum(p[0] for p in parts),
        sum(p[1] for p in parts),
        [name for p in parts for name in p[2]],
        sum(p[3] for p in parts),
    )


def test_simulation_path_throughput(
    timed_best_of, merge_bench_sweeps, save_artifact
) -> None:
    """Tables/s per registered family, per fast simulation backend."""
    backends = ["packed", "vector"]
    entries = []
    lines = []
    for name in ("periodic-two-n4", "bernoulli-two-n4", "periodic-two-n6"):
        spec = get_scenario(name)
        patterns = spec.expand_patterns()
        reference = None
        for backend in backends:
            result, seconds = timed_best_of(
                lambda spec=spec, patterns=patterns, backend=backend: (
                    simulate_chunk(spec, patterns, backend)
                )
            )
            total, trapped, _explorers, rounds = result
            assert total == spec.table_count
            if reference is None:
                reference = result
                # Chunk-split invariance: the merged tally is the timed
                # tally (chunk boundaries are not workload identity).
                assert _merged(spec, patterns, spec.chunk_size) == result
            else:
                assert result == reference
            tables_per_sec = total / seconds
            entries.append(
                {
                    "sweep": f"dynamics_{spec.dynamics}_two_n{spec.n}_sim",
                    "backend": backend,
                    "n": spec.n,
                    "k": spec.robots.k,
                    "total": total,
                    "trapped": trapped,
                    "horizon": spec.horizon,
                    "rounds_simulated": rounds,
                    "seconds": round(seconds, 4),
                    "tables_per_sec": round(tables_per_sec, 1),
                }
            )
            lines.append(
                f"{name} [{backend}]: {total} tables in {seconds:.3f}s "
                f"({tables_per_sec:.0f} tables/s, {rounds} rounds simulated, "
                f"{trapped}/{total} trapped)"
            )
    merge_bench_sweeps(entries)
    save_artifact("dynamics_simulation_throughput", "\n".join(lines))


def test_packed_vs_object_simulation(
    timed_best_of, merge_bench_sweeps, save_artifact
) -> None:
    """Packed-vs-object simulation pair; extends BENCH_sweeps.json.

    Same convention as ``bench_enumeration.py::test_packed_vs_object_
    backends``: both backends timed on identical work, tallies asserted
    identical, and the packed speedup held to a ≥10× floor
    (``REPRO_BENCH_MIN_SPEEDUP`` overrides on contended runners).
    """
    entries = []
    lines = []
    for name in ("periodic-two-n4", "bernoulli-two-n4"):
        spec = get_scenario(name)
        patterns = spec.expand_patterns()

        def run(backend, spec=spec, patterns=patterns):
            return simulate_chunk(spec, patterns, backend)

        object_result, object_seconds = timed_best_of(lambda: run("object"))
        packed_result, packed_seconds = timed_best_of(lambda: run("packed"))
        # Byte-identical tallies are a hard invariant, not a benchmark
        # detail: the campaign store trusts either backend's records.
        assert object_result == packed_result
        total, trapped, _explorers, rounds = packed_result
        speedup = object_seconds / packed_seconds
        sweep = f"dynamics_{spec.dynamics}_two_n{spec.n}_sim_backends"
        for backend, seconds in (
            ("object", object_seconds),
            ("packed", packed_seconds),
        ):
            entries.append(
                {
                    "sweep": sweep,
                    "backend": backend,
                    "n": spec.n,
                    "k": spec.robots.k,
                    "total": total,
                    "trapped": trapped,
                    "horizon": spec.horizon,
                    "rounds_simulated": rounds,
                    "seconds": round(seconds, 4),
                    "tables_per_sec": round(total / seconds, 1),
                }
            )
        entries.append({"sweep": sweep, "speedup": round(speedup, 1)})
        lines.append(
            f"{name}: object {object_seconds:.3f}s, packed "
            f"{packed_seconds:.3f}s — {speedup:.1f}x "
            f"({trapped}/{total} trapped)"
        )
        floor = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "10"))
        assert speedup >= floor, (
            f"{name}: packed simulation is only {speedup:.1f}x faster "
            f"(object {object_seconds:.3f}s, packed {packed_seconds:.3f}s; "
            f"floor {floor}x — set REPRO_BENCH_MIN_SPEEDUP to adjust)"
        )
    merge_bench_sweeps(entries)
    save_artifact("dynamics_simulation_backends", "\n".join(lines))


def test_vector_vs_packed_simulation(
    timed_best_of, merge_bench_sweeps, save_artifact
) -> None:
    """Vector-vs-packed simulation pair; extends BENCH_sweeps.json.

    The NumPy lockstep kernel's acceptance bar, one tier above the
    packed-vs-object pair: on the n=4 Bernoulli family the vector
    backend must tally byte-identically to scalar packed *and* clear a
    ≥10× speedup over it (≥10,000 tables/s in absolute terms on an
    unloaded runner; ``REPRO_BENCH_MIN_SPEEDUP`` overrides the relative
    floor on contended ones). The n=6 T-interval family — the shape of
    perfbench's ``sim-tinterval-n6`` campaign — is recorded next to it
    with identical tallies asserted but no floor. A warm-up run
    precedes timing so NumPy import and the node-table caches are
    excluded, matching how campaigns amortise them across chunks.
    """
    entries = []
    lines = []
    for name in ("bernoulli-two-n4", "tinterval-two-n6"):
        spec = get_scenario(name)
        patterns = spec.expand_patterns()

        def run(backend, spec=spec, patterns=patterns):
            return simulate_chunk(spec, patterns, backend)

        run("vector")  # warm NumPy + node-table caches before timing
        packed_result, packed_seconds = timed_best_of(lambda: run("packed"))
        vector_result, vector_seconds = timed_best_of(lambda: run("vector"))
        assert vector_result == packed_result
        total, trapped, _explorers, rounds = vector_result
        speedup = packed_seconds / vector_seconds
        sweep = f"dynamics_{spec.dynamics}_two_n{spec.n}_sim_vector"
        for backend, seconds in (
            ("packed", packed_seconds),
            ("vector", vector_seconds),
        ):
            entries.append(
                {
                    "sweep": sweep,
                    "backend": backend,
                    "n": spec.n,
                    "k": spec.robots.k,
                    "total": total,
                    "trapped": trapped,
                    "horizon": spec.horizon,
                    "rounds_simulated": rounds,
                    "seconds": round(seconds, 4),
                    "tables_per_sec": round(total / seconds, 1),
                }
            )
        entries.append({"sweep": sweep, "speedup": round(speedup, 1)})
        lines.append(
            f"{name}: packed {packed_seconds:.3f}s, vector "
            f"{vector_seconds:.3f}s — {speedup:.1f}x "
            f"({total / vector_seconds:.0f} tables/s, "
            f"{trapped}/{total} trapped)"
        )
        if name != "bernoulli-two-n4":
            continue
        floor = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "10"))
        assert speedup >= floor, (
            f"{name}: vector simulation is only {speedup:.1f}x faster "
            f"(packed {packed_seconds:.3f}s, vector {vector_seconds:.3f}s; "
            f"floor {floor}x — set REPRO_BENCH_MIN_SPEEDUP to adjust)"
        )
    merge_bench_sweeps(entries)
    save_artifact("dynamics_simulation_vector", "\n".join(lines))
