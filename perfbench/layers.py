"""The traced run: per-layer metrics from calls into each layer.

Spans are recorded from the benchmark's side, around calls into the
program's public functions — the program itself is not modified. Each
span has a name, start, end, parent and the run id; they are kept in
memory and written to ``.perfbench/traces/<run id>.jsonl`` when the run
ends. The program's own telemetry is armed with ``--trace-dir`` on one
CLI invocation and read back through ``telemetry.load_trace`` /
``summarize`` for the phase splits the benchmark cannot see from outside
(compile / frontier / SCC, gather / compact, summed ``chunk.attempt``).

Metrics of layers a workload does not use are reported as 0.
"""

from __future__ import annotations

import json
import multiprocessing
import re
import time
import uuid
from contextlib import contextmanager
from multiprocessing import forkserver, resource_tracker
from pathlib import Path
from typing import Any, Iterator, Optional

import harness
from harness import median, percentile
from workloads import JOBS, CheckResult, tally

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("startup.interp_s", "s", "lower"),
    ("startup.import_s", "s", "lower"),
    ("startup.import_numpy_s", "s", "lower"),
    ("spec.chunks_s", "s", "lower"),
    ("store.prepare_s", "s", "lower"),
    ("store.append_p50_s", "s", "lower"),
    ("store.append_p95_s", "s", "lower"),
    ("store.appends", "count", "lower"),
    ("store.load_s", "s", "lower"),
    ("store.report_write_s", "s", "lower"),
    ("campaign.run_s", "s", "lower"),
    ("campaign.workers_spawned", "count", "lower"),
    ("campaign.worker_start_s", "s", "lower"),
    ("campaign.attempt_sum_s", "s", "lower"),
    ("campaign.parallel_eff", "ratio", "higher"),
    ("campaign.wall_over_attempt", "ratio", "lower"),
    ("solver.chunk_cold_s", "s", "lower"),
    ("solver.chunk_warm_p50_s", "s", "lower"),
    ("solver.chunk_warm_p95_s", "s", "lower"),
    ("solver.tables_per_s", "1/s", "higher"),
    ("solver.compile_s", "s", "lower"),
    ("solver.frontier_s", "s", "lower"),
    ("solver.scc_s", "s", "lower"),
    ("solver.states", "count", "lower"),
    ("sim.chunk_cold_s", "s", "lower"),
    ("sim.chunk_warm_p50_s", "s", "lower"),
    ("sim.chunk_warm_p95_s", "s", "lower"),
    ("sim.tables_per_s", "1/s", "higher"),
    ("sim.compile_s", "s", "lower"),
    ("sim.gather_s", "s", "lower"),
    ("sim.compact_s", "s", "lower"),
    ("kernel.reachable_s", "s", "lower"),
    ("game.solve_s", "s", "lower"),
    ("kernel.states", "count", "lower"),
    ("kernel.transitions", "count", "lower"),
    ("kernel.transitions_per_s", "1/s", "higher"),
    ("certificate.validate_s", "s", "lower"),
    ("e2e.unaccounted_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

#: Repetitions behind each startup / worker-start / store-load median.
STARTUP_REPS = 3
WORKER_STARTS = 5
#: Warm chunks timed per traced run (after one warm-up chunk).
WARM_CHUNKS = 12

_IMPORTTIME = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S.*?)\s*$")


class Tracer:
    """In-memory spans: name, start, end, parent span and run id."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        record = {
            "run": self.run_id,
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def write(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return path


def _ping(conn) -> None:
    """Worker-start probe: import the campaign layer, then reply."""
    import repro.scenarios.campaign  # noqa: F401

    conn.send("ready")
    conn.close()


def _cold_chunk(spec_data: dict, conn) -> None:
    """Time chunk 0 in a fresh process (it pays every process cache)."""
    from repro.scenarios import ScenarioSpec

    spec = ScenarioSpec.from_dict(spec_data)
    start = time.perf_counter()
    tally(spec, 0, "auto")
    conn.send(time.perf_counter() - start)
    conn.close()


def _startup(tracer: Tracer, runner: harness.Runner, out: Path) -> dict:
    python = runner.python
    with tracer.span("startup"):
        for name, argv in (
            ("startup.interp", [python, "-c", "pass"]),
            ("startup.import", [python, "-c", "import repro.cli"]),
        ):
            for _ in range(STARTUP_REPS):
                with tracer.span(name) as span:
                    account = runner.run(argv, out)
                span["attrs"]["wall_s"] = account["wall_s"]
        numpy_s = []
        for _ in range(STARTUP_REPS):
            with tracer.span("startup.importtime"):
                account = runner.run(
                    [python, "-X", "importtime", "-c", "import repro.cli"], out
                )
            for line in account["stdout"].splitlines():
                match = _IMPORTTIME.match(line)
                if match and match.group(3) == "numpy":
                    numpy_s.append(int(match.group(2)) / 1e6)
    walls = {
        name: median([s["attrs"]["wall_s"] for s in tracer.spans
                      if s["name"] == name])
        for name in ("startup.interp", "startup.import")
    }
    return {
        "startup.interp_s": walls["startup.interp"],
        "startup.import_s": walls["startup.import"],
        "startup.import_numpy_s": median(numpy_s) if numpy_s else 0.0,
    }


def _cli_pair(tracer: Tracer, workload, runner: harness.Runner, run_dir: Path,
              check: CheckResult) -> tuple[float, float, Path, Optional[Path]]:
    """One untraced and one traced cold invocation of the workload.

    Returns the two walls, the traced repetition's directory and its
    telemetry directory (``None`` where the command has no telemetry).
    """
    walls = []
    for traced in (False, True):
        rep_dir = harness.fresh_dir(run_dir / ("traced" if traced else "untraced"))
        trace_dir = rep_dir / "telemetry" if traced and workload.kind == "campaign" else None
        with tracer.span("e2e.traced" if traced else "e2e.untraced"):
            results = [
                runner.run(argv, rep_dir)
                for argv in workload.invocations(runner.python, rep_dir, trace_dir)
            ]
        check.add(workload.check_rep(rep_dir, results))
        walls.append(sum(r["wall_s"] for r in results))
    return walls[0], walls[1], rep_dir, trace_dir


def _telemetry(workload, trace_dir: Path) -> dict:
    """Phase splits, attempt sum and spawn count from the program's trace."""
    from repro import telemetry

    events = telemetry.load_trace(trace_dir)
    summary = telemetry.summarize(events)["scenarios"][workload.spec.name]
    phases = {name: stats["total_s"] for name, stats in summary["phases"].items()}
    metrics = {
        "campaign.attempt_sum_s": summary["attempt_s"],
        "campaign.workers_spawned": sum(
            1 for e in events
            if e.get("event") == "event" and e.get("name") == "worker.spawn"
        ),
    }
    if workload.spec.dynamics == "highly-dynamic":
        for phase in ("compile", "frontier", "scc"):
            metrics[f"solver.{phase}_s"] = phases.get(phase, 0.0)
    else:
        for phase in ("compile", "gather", "compact"):
            metrics[f"sim.{phase}_s"] = phases.get(phase, 0.0)
    return metrics


def _store(tracer: Tracer, workload, source_dir: Path, scratch: Path) -> dict:
    """Replay the traced run's records into a fresh store, call by call."""
    from repro.scenarios import ResultStore

    spec = workload.spec
    source = ResultStore(source_dir / "store")
    records = source.load_records(spec)
    report = source.read_report(spec)
    store = ResultStore(harness.fresh_dir(scratch / "store-replay"))
    with tracer.span("store"):
        with tracer.span("store.prepare"):
            store.prepare(spec)
        for index in sorted(records):
            record = {k: v for k, v in records[index].items() if k != "check"}
            with tracer.span("store.append"):
                store.append_record(spec, record)
        for _ in range(STARTUP_REPS):
            with tracer.span("store.load"):
                loaded = store.load_records(spec)
        with tracer.span("store.report_write"):
            store.write_report(spec, report)
    if loaded != records:
        raise RuntimeError("store replay does not read back its records")
    appends = tracer.durations("store.append")
    return {
        "store.prepare_s": tracer.total("store.prepare"),
        "store.append_p50_s": percentile(appends, 50),
        "store.append_p95_s": percentile(appends, 95),
        "store.appends": len(appends),
        "store.load_s": median(tracer.durations("store.load")),
        "store.report_write_s": tracer.total("store.report_write"),
    }


def _campaign(tracer: Tracer, workload, scratch: Path, check: CheckResult) -> dict:
    """An in-process ``CampaignRunner.run`` and bare worker starts.

    The run is armed with the program's telemetry (as ``--trace-dir``
    would), so ``parallel_eff`` divides the run's own summed attempt time.
    """
    from repro import telemetry
    from repro.scenarios import CampaignRunner, ResultStore

    method = workload.start_method
    multiprocessing.set_start_method(method, force=True)
    trace_dir = harness.fresh_dir(scratch / "telemetry-inprocess")
    runner = CampaignRunner(
        ResultStore(harness.fresh_dir(scratch / "store-inprocess")),
        jobs=JOBS, telemetry=str(trace_dir),
    )
    with tracer.span("campaign.run", start_method=method):
        outcome = runner.run(workload.spec)
    if not outcome.status.complete:
        check.fail(workload.ops_per_rep, "in-process campaign did not complete")
    summary = telemetry.summarize(telemetry.load_trace(trace_dir))
    attempt = summary["scenarios"][workload.spec.name]["attempt_s"]
    ctx = multiprocessing.get_context(method)
    for _ in range(WORKER_STARTS):
        parent, child = ctx.Pipe(duplex=False)
        with tracer.span("campaign.worker_start", start_method=method):
            process = ctx.Process(target=_ping, args=(child,))
            process.start()
            child.close()
            parent.recv()
        process.join()
        parent.close()
    run_s = tracer.total("campaign.run")
    return {
        "campaign.run_s": run_s,
        "campaign.parallel_eff": attempt / (JOBS * run_s),
        "campaign.worker_start_s": median(tracer.durations("campaign.worker_start")),
    }


def _chunks(tracer: Tracer, workload, layer: str) -> dict:
    """Cold chunk in a fresh process, then warm chunks in this one."""
    ctx = multiprocessing.get_context("spawn")
    parent, child = ctx.Pipe(duplex=False)
    with tracer.span(f"{layer}.chunk_cold_process"):
        process = ctx.Process(
            target=_cold_chunk, args=(workload.spec.to_dict(), child)
        )
        process.start()
        child.close()
        cold = parent.recv()
        process.join()
    parent.close()
    count = workload.spec.chunk_count
    tally(workload.spec, 0, "auto")
    tables = 0
    for index in range(1, min(count, WARM_CHUNKS + 1)):
        with tracer.span(f"{layer}.chunk_warm", chunk=index):
            total, _, _, _ = tally(workload.spec, index, "auto")
        tables += total
    warm = tracer.durations(f"{layer}.chunk_warm")
    return {
        f"{layer}.chunk_cold_s": cold,
        f"{layer}.chunk_warm_p50_s": percentile(warm, 50),
        f"{layer}.chunk_warm_p95_s": percentile(warm, 95),
        f"{layer}.tables_per_s": tables / sum(warm),
    }


def _kernel(tracer: Tracer, workload, rep_dir: Path, check: CheckResult) -> dict:
    """Packed reachability, the solve on top of it, certificate replay."""
    from repro.graph.topology import RingTopology
    from repro.robots.algorithms import get_algorithm
    from repro.serialize import loads
    from repro.verification.certificates import validate_certificate
    from repro.verification.game import default_chirality_vectors, verify_exploration
    from repro.verification.kernel import PackedKernel

    # The CLI's own calls (certificates on), for the unaccounted residual;
    # first, so that no earlier call has filled the kernel's caches.
    for inst in workload.instances:
        with tracer.span("game.verify_cli", algo=inst.algo, n=inst.n):
            verify_exploration(
                get_algorithm(inst.algo), RingTopology(inst.n), k=inst.k,
                backend="auto",
            )
    big = workload.instances[0]
    algorithm = get_algorithm(big.algo)
    topology = RingTopology(big.n)
    states = transitions = 0
    for vector in default_chirality_vectors(big.k):
        kernel = PackedKernel(topology, algorithm, vector, max_states=2_000_000)
        seeds = kernel.initial_states(None)
        with tracer.span("kernel.reachable", chirality=str(vector)):
            graph = kernel.reachable(seeds, occupied_out={})
        states += len(graph)
        transitions += sum(len(out) for out in graph.values())
        del graph
    reachable_s = tracer.total("kernel.reachable")
    with tracer.span("game.verify_nocert"):
        verdict = verify_exploration(
            algorithm, topology, k=big.k, backend="auto", certificates=False
        )
    if (verdict.states_explored, verdict.transitions_explored) != (states, transitions):
        check.fail(1, "kernel counts differ from the verdict's")
    metrics = {
        "kernel.reachable_s": reachable_s,
        "game.solve_s": tracer.total("game.verify_nocert") - reachable_s,
        "kernel.states": states,
        "kernel.transitions": transitions,
        "kernel.transitions_per_s": transitions / reachable_s,
    }
    for inst in workload.instances:
        if not inst.save:
            continue
        cert = loads(workload.cert_path(rep_dir, inst).read_text("utf-8"))
        with tracer.span("certificate.validate", algo=inst.algo):
            validate_certificate(cert, get_algorithm(inst.algo))
    metrics["certificate.validate_s"] = tracer.total("certificate.validate")
    return metrics


def _layers(tracer: Tracer, workload, runner: harness.Runner, run_dir: Path,
            seed: int, metrics: dict, check: CheckResult) -> None:
    with tracer.span("run", workload=workload.name, seed=seed):
        metrics.update(_startup(tracer, runner, run_dir / "startup"))
        untraced, traced, rep_dir, trace_dir = _cli_pair(
            tracer, workload, runner, run_dir, check
        )
        metrics["trace.overhead_s"] = traced - untraced
        if workload.kind == "campaign":
            spec = workload.spec
            metrics.update(_telemetry(workload, trace_dir))
            with tracer.span("spec.chunks"):
                for _ in range(STARTUP_REPS):
                    with tracer.span("spec.chunks.call"):
                        spec.chunks()
            metrics["spec.chunks_s"] = median(tracer.durations("spec.chunks.call"))
            metrics.update(_store(tracer, workload, rep_dir, run_dir))
            metrics.update(_campaign(tracer, workload, run_dir, check))
            layer = "solver" if spec.dynamics == "highly-dynamic" else "sim"
            metrics.update(_chunks(tracer, workload, layer))
            if layer == "solver":
                report = json.loads(workload.report_path(rep_dir).read_text("utf-8"))
                metrics["solver.states"] = report["states_explored"]
            metrics["campaign.wall_over_attempt"] = (
                untraced / metrics["campaign.attempt_sum_s"]
            )
            accounted = metrics["startup.import_s"] + metrics["campaign.run_s"]
        else:
            metrics.update(_kernel(tracer, workload, rep_dir, check))
            accounted = (
                len(workload.instances) * metrics["startup.import_s"]
                + tracer.total("game.verify_cli")
            )
        metrics["e2e.unaccounted_s"] = untraced - accounted


def traced_run(workload, runner: harness.Runner, run_dir: Path, seed: int) -> tuple:
    """Time every layer the workload uses; see :data:`PER_LAYER`.

    Returns ``(metrics, attempted, failed, problems, detail)`` like the
    timed run.
    """
    tracer = Tracer(uuid.uuid4().hex[:12])
    check = CheckResult()
    metrics = {name: 0.0 for name, _, _ in PER_LAYER}
    try:
        _layers(tracer, workload, runner, run_dir, seed, metrics, check)
    finally:
        # The forkserver and resource tracker that multiprocessing started
        # for this process would outlive it until they notice it is gone;
        # stop them and wait for them (no-ops when none was started).
        forkserver._forkserver._stop()
        resource_tracker._resource_tracker._stop()
    path = tracer.write(
        harness.WORK / "traces" / f"{workload.name}-{seed}-{tracer.run_id}.jsonl"
    )
    attempted = 2 * workload.ops_per_rep
    detail = {"spans": len(tracer.spans), "trace_file": str(path)}
    return metrics, attempted, check.failed, check.problems, detail
