#!/usr/bin/env python3
"""Run a restricted-dynamics class as a simulation-backed campaign.

The exact game solver quantifies over *every* connected-over-time
adversary. The paper's related work differentiates on *restricted*
dynamicity classes — periodic rings (Ilcinkas–Wade),
T-interval-connected rings (Kuhn–Lynch–Oshman; Di Luna et al.), random
presence — and those are a different kind of workload: one concrete
evolving graph, pinned by a scenario's family + params + seed, against
which every table of a robot class is *simulated* over a bounded
horizon.

This script walks the full pipeline on the built-in
``periodic-two-n4`` registry family — exactly what
``repro-rings campaign run periodic-two-n4`` does — including the
operational guarantees shared with the verification path: a simulated
interrupt, a resume that emits a byte-identical report, and a repeat run
that is a pure cache hit. It then races the simulation backends
(``--backend`` here and on the CLI): the object one drives the
``repro.sim`` engines; the packed one runs each table on the compiled
tables the game solver's kernel shares, against a precompiled
edge-bitmask schedule; and the vector one (the default ``auto``)
stacks the whole chunk's tables into ndarrays and advances every run in
lockstep — same tallies every time, each tier an order of magnitude
apart. It closes with the live-vs-perpetual contrast on the bursty
Markov family, and — with ``--trace-dir DIR`` — re-runs the
walk-through campaign fully traced and prints the ``campaign analyze``
phase breakdown, demonstrating that telemetry is free to arm: the
traced report is byte-identical to the untraced one.

Run:  python examples/dynamics_campaign.py [--backend BACKEND]
                                           [--trace-dir DIR]
"""

import argparse
import json
import tempfile
import time

from repro import telemetry
from repro.scenarios import CampaignRunner, ResultStore, get_scenario, simulate_chunk
from repro.verification.backends import AUTO_BACKEND, BACKEND_CHOICES


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--backend", choices=list(BACKEND_CHOICES), default=AUTO_BACKEND,
        help="execution substrate for the campaign walk-through "
        "(the backend race below always times all three backends)",
    )
    parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="also run the campaign traced into DIR and print the "
        "`campaign analyze` phase breakdown",
    )
    args = parser.parse_args()

    spec = get_scenario("periodic-two-n4")
    print("=== A schedule-dynamics workload, declaratively ===\n")
    print(f"  {spec.summary()}\n")
    print(f"  dynamics_params: {spec.dynamics_params}")
    print(f"  horizon:         {spec.horizon} rounds per table run")
    print(f"  chunks:          {spec.chunk_count} x {spec.chunk_size} tables")
    print(f"  backend:         {args.backend} (execution detail — not identity)")

    print("\n=== Interrupt, resume, dedup — same store guarantees ===\n")
    with tempfile.TemporaryDirectory() as tmp:
        runner = CampaignRunner(ResultStore(tmp), backend=args.backend, jobs=1)
        partial = runner.run(spec, max_chunks=2)  # "kill" mid-campaign
        print(f"  interrupted: {partial.summary()}")
        resumed = runner.run(spec)  # picks up exactly the missing chunks
        print(f"  resumed:     {resumed.summary()}")
        assert resumed.status.complete
        assert resumed.chunks_cached == 2, "checkpointed chunks never re-run"
        report_bytes = runner.store.report_path(spec).read_bytes()
        rerun = runner.run(spec)
        assert rerun.chunks_run == 0, "a repeat campaign must be a cache hit"
        assert runner.store.report_path(spec).read_bytes() == report_bytes
        report = json.loads(report_bytes)
        print(
            f"\n  report: {report['trapped']}/{report['total']} tables fail "
            f"perpetual exploration on this periodic ring\n"
            f"  ({len(report['explorers'])} explorers survive every "
            "chirality vector and every towerless start)"
        )

    print("\n=== One semantics, three speeds: the backend race ===\n")
    patterns = spec.expand_patterns()
    simulate_chunk(spec, patterns, "vector")  # warm NumPy + caches
    tallies = {}
    seconds = {}
    for backend in ("object", "packed", "vector"):
        start = time.perf_counter()
        tallies[backend] = simulate_chunk(spec, patterns, backend)
        seconds[backend] = time.perf_counter() - start
        total = tallies[backend][0]
        print(
            f"  {backend:>6}: {total} tables in {seconds[backend]:.3f}s "
            f"({total / seconds[backend]:,.0f} tables/s)"
        )
    assert all(t == tallies["packed"] for t in tallies.values()), (
        "backends must agree"
    )
    print(
        f"\n  identical tallies, object→packed "
        f"{seconds['object'] / seconds['packed']:.1f}x apart, packed→vector "
        f"{seconds['packed'] / seconds['vector']:.1f}x on top"
        " —\n  each tier stays the differential oracle of the one above"
        " (and n=6 families\n  like periodic-two-n6 are practical on"
        " either fast tier)."
    )

    print("\n=== Live vs perpetual on a bursty Markov ring ===\n")
    live = get_scenario("markov-live-two-n4")
    print(f"  {live.summary()}")
    with tempfile.TemporaryDirectory() as tmp:
        outcome = CampaignRunner(
            ResultStore(tmp), backend=args.backend, jobs=1
        ).run(live)
        status = outcome.status
        print(
            f"\n  {status.trapped}/{status.total} trapped under the "
            "at-least-once *live* property — with recurrent random edges, "
            "visiting\n  every node once is easy; recurring forever "
            "(the perpetual property) is the hard part."
        )

    if args.trace_dir is None:
        return

    print("\n=== Traced re-run: where the wall-clock goes ===\n")
    with tempfile.TemporaryDirectory() as tmp:
        plain = CampaignRunner(
            ResultStore(f"{tmp}/plain"), backend=args.backend, jobs=1
        )
        plain.run(spec)
        traced = CampaignRunner(
            ResultStore(f"{tmp}/traced"), backend=args.backend, jobs=1,
            telemetry=args.trace_dir,
        )
        traced.run(spec)
        # Telemetry is hash-neutral: arming it never changes a byte.
        assert (
            traced.store.report_path(spec).read_bytes()
            == plain.store.report_path(spec).read_bytes()
        ), "traced and untraced reports must be byte-identical"
    summary = telemetry.summarize(telemetry.load_trace(args.trace_dir))
    print(telemetry.render_summary(summary))
    print(
        f"\n  trace: {args.trace_dir} — same breakdown via "
        f"`repro-rings campaign analyze {args.trace_dir}`;\n"
        "  identical report bytes traced vs untraced (asserted above)."
    )


if __name__ == "__main__":
    main()
