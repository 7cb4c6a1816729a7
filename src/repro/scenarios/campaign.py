"""The persistent campaign runner: resumable sweeps over scenario specs.

A *campaign* is one scenario executed to completion, checkpointed chunk by
chunk in a :class:`~repro.scenarios.store.ResultStore`. Every registered
dynamics family is executable: ``"highly-dynamic"`` scenarios run on the
exact game solver (:func:`~repro.verification.sweeps.sweep_chunk`), and
schedule-family scenarios run on the simulation chunk runner
(:func:`~repro.scenarios.simulate.simulate_chunk`) against their pinned
schedule parameterization. Both paths produce the same record schema and
both offer the same backend family with byte-identical tallies — a NumPy
``vector`` lockstep kernel, a packed int kernel and an object oracle on
either path (``auto``, the default choice, is ``vector``: NumPy is a
required dependency) — so the store, resume, dedup and reporting
machinery below is shared — and backend-agnostic. The
contract:

* **Deterministic work units.** The scenario expands to a fixed pattern
  stream cut into fixed-size chunks (never dependent on worker count), and
  the chunk runner of either path tallies each chunk identically on any
  backend, worker or host.
* **Interrupt safety.** A chunk checkpoints only once settled; killing a
  campaign loses at most the chunks in flight. Resuming verifies exactly
  the missing chunks and produces a final report *byte-identical* to an
  uninterrupted run's — the report is a pure function of the spec and the
  per-chunk tallies, merged in chunk order. SIGINT/SIGTERM are caught at
  chunk boundaries, so a Ctrl-C never tears a non-final record.
* **Dedup.** Re-running a completed campaign is a cache hit: zero chunks
  re-verified, the same report bytes re-emitted.
* **Fault tolerance.** With ``jobs > 1`` chunks run in up to ``jobs``
  persistent *supervised* worker processes, each serving chunk after
  chunk (so process-local caches outlive a chunk): the runner detects
  dead workers (a crash is an event, not a hang), enforces the
  :class:`RetryPolicy` per-chunk deadline, retires a worker after any
  failed attempt, and retries that attempt in another process with
  exponentially backed-off, deterministically jittered delays. A chunk
  that exhausts its attempts is *quarantined* — recorded as failed in
  the store — and the campaign settles **degraded** instead of losing
  the run; ``campaign retry-failed`` re-executes exactly the quarantined
  chunks.

The runner parallelizes *across* chunks (``jobs``), writing each record
as its chunk lands; record order on disk is scheduling-dependent, merged
order never is.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait as connection_wait
from pathlib import Path
from typing import Any, Iterable, Iterator, Optional

from repro.errors import (
    CampaignDegradedError,
    CampaignIncompleteError,
    CampaignInterruptedError,
    ChunkPoisonedError,
    ChunkTimeoutError,
    ScenarioError,
    StoreCorruptionError,
    WorkerCrashError,
)
from repro import telemetry
from repro.scenarios import faults
from repro.scenarios.faults import FaultPlan
from repro.telemetry import TelemetryConfig
from repro.scenarios.simulate import simulate_chunk
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.store import (
    RecoveryReport,
    ResultStore,
    chunk_digest,
    is_failure_record,
)
from repro.verification.backends import resolve_backend
from repro.verification.sweeps import (
    preload_kernels,
    resolve_jobs,
    sweep_chunk,
)

CAMPAIGN_REPORT_VERSION = 1

# How long the supervisor blocks in one wait() round. Bounds the latency
# of signal delivery (the flag is only *checked* between waits) and of
# backoff-retry promotion, without busy-polling.
_SUPERVISOR_TICK_SECONDS = 0.2

_Payload = tuple[int, dict[str, Any], tuple[int, ...], str, bool]
"""(chunk index, spec encoding, bit patterns, backend, validate).

The spec rides along as its :meth:`ScenarioSpec.to_dict` form — plainly
picklable, and the worker re-validates it on decode, so a chunk can never
execute against a spec its own construction-time gate would refuse.
``backend`` selects the execution substrate on *both* dispatch paths
(vector lockstep vs packed kernel vs object oracle for the exact
solver; vector lockstep vs compiled tables vs object engines for the
simulation runner), always as a *concrete* name — ``auto`` is resolved
when the runner is constructed. It is hash-neutral — never part of the
spec payload, the chunk records or the report bytes.
"""


@dataclass(frozen=True)
class RetryPolicy:
    """How the runner treats a chunk that crashes, hangs, or errors.

    ``chunk_timeout`` (seconds; ``None`` disables) is enforced on the
    supervised multi-process path only — an in-process chunk cannot be
    preempted. Backoff before attempt ``k+1`` is
    ``min(cap, base * 2**(k-1))`` scaled by a deterministic jitter into
    ``[0.5, 1.0)`` of itself (:func:`repro.scenarios.faults.backoff_delay`).
    With ``quarantine`` (the default) a chunk that fails every attempt is
    recorded as failed and the campaign settles degraded; without it the
    run raises :class:`~repro.errors.ChunkPoisonedError` instead.
    """

    max_attempts: int = 3
    chunk_timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    quarantine: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ScenarioError(
                f"max_attempts must be >= 1, got {self.max_attempts!r}"
            )
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ScenarioError(
                f"chunk_timeout must be > 0 (or None), got {self.chunk_timeout!r}"
            )
        if self.backoff_base < 0:
            raise ScenarioError(
                f"backoff_base must be >= 0, got {self.backoff_base!r}"
            )
        if self.backoff_cap < self.backoff_base:
            raise ScenarioError(
                f"backoff_cap must be >= backoff_base, got {self.backoff_cap!r}"
            )


@dataclass(frozen=True)
class CampaignStatus:
    """Progress and partial tallies of one campaign.

    ``chunks_done`` counts *verified* chunks only; quarantined chunks are
    ``chunks_failed`` (their indices in ``failed_chunks``) and contribute
    nothing to the tallies.
    """

    name: str
    scenario_id: str
    chunks_total: int
    chunks_done: int
    chunks_failed: int
    failed_chunks: tuple[int, ...]
    total: int
    trapped: int
    explorers: tuple[str, ...]
    states_explored: int

    @property
    def complete(self) -> bool:
        """Whether every chunk verified successfully."""
        return self.chunks_done == self.chunks_total

    @property
    def settled(self) -> bool:
        """Whether every chunk is accounted for (verified *or* failed)."""
        return self.chunks_done + self.chunks_failed == self.chunks_total

    @property
    def degraded(self) -> bool:
        """Whether the campaign settled with quarantined chunks."""
        return self.settled and self.chunks_failed > 0

    @property
    def all_trapped(self) -> bool:
        """Whether the campaign *completed* with every member trapped.

        Deliberately false for partial or degraded campaigns, however
        unanimous the tallies so far: the theorems' claim is about the
        whole class, and a sliced, interrupted or quarantine-holed run
        must not read as a discharge.
        """
        return self.complete and self.trapped == self.total and not self.explorers

    def summary(self) -> str:
        """One-line human summary for the CLI."""
        if self.complete:
            state = "complete"
        elif self.degraded:
            state = "degraded"
        else:
            state = "in progress"
        line = (
            f"{self.name} [{self.scenario_id}] {state}: "
            f"{self.chunks_done}/{self.chunks_total} chunks, "
            f"{self.trapped}/{self.total} trapped"
            + (f", {len(self.explorers)} explorers" if self.explorers else "")
        )
        if self.chunks_failed:
            line += (
                f"; {self.chunks_failed} chunks quarantined "
                f"{list(self.failed_chunks)} — `campaign retry-failed`"
            )
        return line

    def to_dict(self) -> dict[str, Any]:
        """Machine-readable form (``campaign status --json``).

        Fields plus the derived predicates, so consumers never
        re-implement the settled/degraded logic.
        """
        return {
            "name": self.name,
            "scenario_id": self.scenario_id,
            "chunks_total": self.chunks_total,
            "chunks_done": self.chunks_done,
            "chunks_failed": self.chunks_failed,
            "failed_chunks": list(self.failed_chunks),
            "total": self.total,
            "trapped": self.trapped,
            "explorers": list(self.explorers),
            "states_explored": self.states_explored,
            "complete": self.complete,
            "settled": self.settled,
            "degraded": self.degraded,
            "all_trapped": self.all_trapped,
        }


@dataclass(frozen=True)
class CampaignRunOutcome:
    """What one :meth:`CampaignRunner.run` call did."""

    status: CampaignStatus
    chunks_run: int
    chunks_cached: int
    report_path: Optional[Path]

    def summary(self) -> str:
        """One-line human summary for the CLI."""
        line = (
            f"{self.status.summary()} — ran {self.chunks_run} chunks, "
            f"{self.chunks_cached} cached"
        )
        if self.report_path is not None:
            line += f"; report: {self.report_path}"
        return line


def _campaign_chunk(payload: _Payload) -> tuple[int, tuple]:
    """Run one indexed chunk (worker body; top-level to pickle).

    Dispatches on the spec's dynamics: the exact solver for the
    highly-dynamic adversary, the simulation runner for schedule
    families. Both return the same tally shape.
    """
    index, spec_data, chunk, backend, validate = payload
    spec = ScenarioSpec.from_dict(spec_data)
    if spec.dynamics == "highly-dynamic":
        return index, sweep_chunk(
            spec.robots.family,
            spec.n,
            chunk,
            backend,
            validate,
            spec.starts,
            spec.prop,
            spec.scheduler,
        )
    return index, simulate_chunk(spec, chunk, backend)


def _describe(exc: BaseException) -> str:
    """A failure as its stored error string: ``"<ExceptionType>: <message>"``."""
    return f"{type(exc).__name__}: {exc}"


def _worker_loop(
    conn: Connection,
    plan_data: Optional[dict[str, Any]],
    telemetry_data: Optional[dict[str, Any]] = None,
) -> None:
    """Persistent supervised worker: serve ``(payload, attempt)`` jobs.

    First order of business is shedding the parent's flag-setting signal
    handlers (inherited across ``fork``): SIGTERM back to the default
    disposition so the supervisor's ``terminate()`` actually kills a hung
    worker, SIGINT ignored so a terminal Ctrl-C (delivered group-wide)
    interrupts only the supervisor, which then winds workers down
    deliberately. Each job answers ``("ok", tally)`` and the loop waits
    for the next; a ``None`` sentinel (or EOF) ends it. Any exception is
    delivered as ``("error", message)`` and the worker exits — the
    supervisor retires it, so a retry never runs in the process that
    failed. A worker that dies without delivering anything (injected
    ``os._exit`` or a real crash) is detected by the supervisor as EOF
    on the pipe.

    Process-local caches (compiled tables, dense solver spaces) survive
    from one job to the next, so a campaign compiles once per worker,
    not once per chunk. Fault and telemetry contexts are reset per job,
    keeping fault rolls keyed on ``(chunk, attempt)``.

    Telemetry follows the fault plan's delivery model: the supervisor
    ships an explicit config (same trace id) rather than the worker
    self-arming from the environment, so one campaign run is exactly one
    trace however many workers it starts. The worker's own
    ``chunk.attempt`` span brackets each chunk's true execution time —
    pipe and start-up latency stay in the supervisor's accounting.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    faults.clear()
    if plan_data is not None:
        faults.install(FaultPlan.from_dict(plan_data))
    faults.mark_worker()
    telemetry.install(
        TelemetryConfig.from_dict(telemetry_data)
        if telemetry_data is not None
        else None
    )
    # The parent's death ends the loop too: under ``fork`` this process
    # holds a copy of the supervisor's pipe end, so EOF alone would never
    # come if the runner were killed (a torn append, SIGKILL).
    parent = multiprocessing.parent_process()
    watched = [conn] if parent is None else [conn, parent.sentinel]
    while True:
        if conn not in connection_wait(watched):
            break
        try:
            job = conn.recv()
        except (EOFError, OSError):
            break
        if job is None:
            break
        payload, attempt = job
        faults.set_context(payload[0], attempt)
        telemetry.set_context(chunk=payload[0], attempt=attempt)
        try:
            with telemetry.span(
                "chunk.attempt",
                chunk=payload[0],
                attempt=attempt,
                tables=len(payload[2]),
            ) as span_attrs:
                _, tally = _campaign_chunk(payload)
                span_attrs["ok"] = True
            reply = ("ok", tally)
        except BaseException as exc:  # delivered, not swallowed
            reply = ("error", _describe(exc))
        try:
            conn.send(reply)
        except OSError:
            break  # the supervisor is gone
        if reply[0] != "ok":
            break
    conn.close()


def _kill_process(process: multiprocessing.process.BaseProcess) -> None:
    """Terminate a worker, escalating to SIGKILL if it lingers."""
    if not process.is_alive():
        process.join()
        return
    process.terminate()
    process.join(timeout=1.0)
    if process.is_alive():
        process.kill()
        process.join()


@dataclass
class _Worker:
    """One persistent supervised worker and the attempt it is serving."""

    process: multiprocessing.process.BaseProcess
    conn: Connection
    payload: Optional[_Payload] = None
    attempt: int = 0
    deadline: Optional[float] = None


class CampaignRunner:
    """Runs scenarios against a result store, resumably and supervised.

    ``backend`` picks the execution substrate of *both* dispatch paths:
    the exact solver's dense NumPy lockstep vs packed kernel vs object
    product, and the simulation runner's NumPy lockstep kernel vs
    compiled tables vs object engines. ``"auto"`` (the default) is
    ``vector`` on either path, since NumPy is a required dependency (the
    one registry: :mod:`repro.verification.backends`); an unknown name
    raises :class:`~repro.errors.VerificationError` at construction.
    The backend is an execution detail, not workload identity — all
    backends tally every chunk byte-identically, so scenario hashes,
    chunk records and report bytes never depend on it, and a campaign
    checkpointed under one backend resumes cleanly under any other.
    ``validate`` applies to the exact-solver path only (certificate
    replay validation).

    ``policy`` governs retries, per-chunk deadlines and quarantine
    (:class:`RetryPolicy`); ``faults`` installs an explicit
    :class:`~repro.scenarios.faults.FaultPlan` for this runner (tests and
    the crash-loop harness — the ``REPRO_FAULT_PLAN`` environment
    variable reaches workers without it). Both default to off.

    ``telemetry`` arms span/counter tracing (:mod:`repro.telemetry`): a
    trace directory (``str``/``Path``; the ``REPRO_TRACE_DIR``
    environment variable is the equivalent ambient channel) gets a fresh
    trace id per :meth:`run` call, while an explicit
    :class:`~repro.telemetry.TelemetryConfig` pins the trace id (tests).
    Telemetry is observational only — scenario hashes, chunk records and
    report bytes are byte-identical armed or not, the same contract as
    ``backend``.
    """

    def __init__(
        self,
        store: ResultStore,
        backend: str = "auto",
        jobs: Optional[int] = None,
        validate: bool = False,
        policy: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
        telemetry: Optional[str | Path | TelemetryConfig] = None,
    ) -> None:
        self.store = store
        self.backend = resolve_backend(backend)
        self.jobs = resolve_jobs(jobs)
        self.validate = validate
        self.policy = policy if policy is not None else RetryPolicy()
        self.faults = faults
        self.telemetry = telemetry
        self._signal: Optional[int] = None

    def _telemetry_config(self, spec: ScenarioSpec) -> Optional[TelemetryConfig]:
        """Resolve this run's trace config: explicit arg beats environment."""
        configured = self.telemetry
        if configured is None:
            ambient = os.environ.get(telemetry.TRACE_DIR_ENV_VAR)
            if ambient:
                configured = ambient
        if configured is None:
            return None
        context = {
            "scenario": spec.name,
            "scenario_id": spec.scenario_id,
            "backend": self.backend,
            "jobs": self.jobs,
        }
        if isinstance(configured, TelemetryConfig):
            return configured.with_context(
                **{**context, **dict(configured.context)}
            )
        return TelemetryConfig(trace_dir=Path(configured), context=context)

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    def _checked_records(
        self, spec: ScenarioSpec, chunks: list[tuple[int, ...]]
    ) -> dict[int, dict[str, Any]]:
        """Stored records, cross-checked against the spec's own chunking."""
        records = self.store.load_records(spec)
        for index, record in records.items():
            if not 0 <= index < len(chunks):
                raise StoreCorruptionError(
                    f"store corruption: scenario {spec.scenario_id} has a "
                    f"record for chunk {index}, but the spec cuts "
                    f"{len(chunks)} chunks"
                )
            if record["digest"] != chunk_digest(chunks[index]):
                raise StoreCorruptionError(
                    f"store corruption: chunk {index} of scenario "
                    f"{spec.scenario_id} was checkpointed for different "
                    "bit patterns than the spec expands to"
                )
        return records

    def _merged_status(
        self,
        spec: ScenarioSpec,
        chunks: list[tuple[int, ...]],
        records: dict[int, dict[str, Any]],
    ) -> CampaignStatus:
        """Fold records in chunk order into a status (the report's core)."""
        total = trapped = states = 0
        explorers: list[str] = []
        failed: list[int] = []
        for index in sorted(records):
            record = records[index]
            if is_failure_record(record):
                failed.append(index)
                continue
            total += record["total"]
            trapped += record["trapped"]
            states += record["states"]
            explorers.extend(record["explorers"])
        return CampaignStatus(
            name=spec.name,
            scenario_id=spec.scenario_id,
            chunks_total=len(chunks),
            chunks_done=len(records) - len(failed),
            chunks_failed=len(failed),
            failed_chunks=tuple(failed),
            total=total,
            trapped=trapped,
            explorers=tuple(explorers),
            states_explored=states,
        )

    def status(self, spec: ScenarioSpec) -> CampaignStatus:
        """Current progress of a scenario's campaign in this store."""
        chunks = spec.chunks()
        return self._merged_status(spec, chunks, self._checked_records(spec, chunks))

    def failure_details(self, spec: ScenarioSpec) -> dict[int, dict[str, Any]]:
        """The stored failure records of quarantined chunks, by index.

        Each carries ``attempts``, ``error`` and (for records written
        since diagnostics landed) the ``diagnostics`` retry schedule —
        what ``retry-failed`` prints to explain a poisoning.
        """
        chunks = spec.chunks()
        records = self._checked_records(spec, chunks)
        return {
            index: record
            for index, record in sorted(records.items())
            if is_failure_record(record)
        }

    def status_dict(self, spec: ScenarioSpec) -> dict[str, Any]:
        """Status plus per-chunk failure diagnostics, JSON-ready."""
        chunks = spec.chunks()
        records = self._checked_records(spec, chunks)
        data = self._merged_status(spec, chunks, records).to_dict()
        failures = [
            {
                "chunk": index,
                "attempts": record["attempts"],
                "error": record["error"],
                "diagnostics": record.get("diagnostics"),
            }
            for index, record in sorted(records.items())
            if is_failure_record(record)
        ]
        if failures:
            data["failures"] = failures
        return data

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        spec: ScenarioSpec,
        max_chunks: Optional[int] = None,
        include_failed: bool = False,
    ) -> CampaignRunOutcome:
        """Settle every not-yet-checkpointed chunk; report once settled.

        ``max_chunks`` bounds how many pending chunks this call attempts
        (operational lever: sliced runs, and the test harness's simulated
        interrupts). ``include_failed`` additionally re-executes chunks
        quarantined by an earlier run (the ``retry-failed`` verb) — their
        success records supersede the failure records in the store.
        Verified chunks are never re-verified.

        When telemetry is armed the whole call is one ``campaign`` span
        (measured wall-to-wall, so traces account for effectively all of
        the run's clock time); the previous process-local telemetry state
        is restored on exit, mirroring the fault-plan save/restore.
        """
        config = self._telemetry_config(spec)
        if config is None:
            return self._run(spec, max_chunks, include_failed)
        previous = telemetry.active()
        telemetry.install(config)
        try:
            with telemetry.span("campaign") as span_attrs:
                outcome = self._run(spec, max_chunks, include_failed)
                span_attrs["chunks_run"] = outcome.chunks_run
                span_attrs["settled"] = outcome.status.settled
            return outcome
        finally:
            telemetry.install(previous)

    def _run(
        self,
        spec: ScenarioSpec,
        max_chunks: Optional[int],
        include_failed: bool,
    ) -> CampaignRunOutcome:
        self.store.prepare(spec)
        chunks = spec.chunks()
        records = self._checked_records(spec, chunks)
        pending = [
            (index, chunk)
            for index, chunk in enumerate(chunks)
            if index not in records
            or (include_failed and is_failure_record(records[index]))
        ]
        cached = len(chunks) - len(pending)
        if max_chunks is not None:
            if max_chunks < 0:
                raise ScenarioError(f"max_chunks must be >= 0, got {max_chunks}")
            pending = pending[:max_chunks]
        spec_data = spec.to_dict()
        payloads: list[_Payload] = [
            (index, spec_data, chunk, self.backend, self.validate)
            for index, chunk in pending
        ]
        if telemetry.armed():
            telemetry.counter("store.cache_hit", cached)
            telemetry.counter("store.cache_miss", len(pending))
        plan = self.faults if self.faults is not None else faults.active_plan()
        previous_handlers = self._install_signal_handlers()
        previous_plan = faults._STATE.plan
        if self.faults is not None:
            faults.install(self.faults)
        try:
            for index, outcome in self._execute(payloads, plan):
                if outcome[0] == "ok":
                    total, trapped, explorers, states = outcome[1]
                    record = {
                        "chunk": index,
                        "digest": chunk_digest(chunks[index]),
                        "total": total,
                        "trapped": trapped,
                        "explorers": explorers,
                        "states": states,
                    }
                else:
                    _, attempts, error, diagnostics = outcome
                    record = {
                        "chunk": index,
                        "digest": chunk_digest(chunks[index]),
                        "failed": True,
                        "attempts": attempts,
                        "error": error,
                        "diagnostics": diagnostics,
                    }
                records[index] = record
                self._append_with_retry(spec, record, plan)
        finally:
            faults.install(previous_plan)
            faults.set_context(-1, 0)
            self._restore_signal_handlers(previous_handlers)
        status = self._merged_status(spec, chunks, records)
        if status.degraded and telemetry.armed():
            telemetry.event(
                "campaign.degraded",
                failed_chunks=list(status.failed_chunks),
            )
        report_path = None
        if status.settled:
            report_path = self.store.report_path(spec)
            # Cache-hit reruns stay write-free: only (re)publish the
            # report when this call settled something or none exists.
            if payloads or not report_path.exists():
                report_path = self.store.write_report(
                    spec, self._report_text(spec, status)
                )
        return CampaignRunOutcome(
            status=status,
            chunks_run=len(payloads),
            chunks_cached=cached,
            report_path=report_path,
        )

    def retry_failed(
        self, spec: ScenarioSpec, max_chunks: Optional[int] = None
    ) -> CampaignRunOutcome:
        """Re-execute exactly the quarantined chunks of a degraded campaign."""
        return self.run(spec, max_chunks=max_chunks, include_failed=True)

    def fsck(self, spec: ScenarioSpec) -> RecoveryReport:
        """Salvage this scenario's checkpoint log (see ``ResultStore.recover``).

        Passes the spec's own chunk digests down, so records for the
        wrong chunking are dropped along with byte-level damage; after a
        successful fsck the strict read path (and hence ``run``) works
        again, re-executing exactly the lost chunks.
        """
        chunks = spec.chunks()
        expected = {
            index: chunk_digest(chunk) for index, chunk in enumerate(chunks)
        }
        return self.store.recover(spec, expected)

    # ------------------------------------------------------------------
    # Signal safety
    # ------------------------------------------------------------------
    def _install_signal_handlers(self) -> Optional[dict[int, Any]]:
        """Trade SIGINT/SIGTERM for a flag checked at chunk boundaries.

        The default SIGINT disposition raises ``KeyboardInterrupt`` at an
        arbitrary bytecode — possibly mid-append, tearing a non-final
        record. The flag handler defers the stop to the next boundary,
        *after* the in-flight record is fsynced. Only possible on the
        main thread; elsewhere the runner keeps the ambient dispositions.
        """
        self._signal = None
        if threading.current_thread() is not threading.main_thread():
            return None
        previous: dict[int, Any] = {}
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, self._on_signal)
        return previous

    def _restore_signal_handlers(
        self, previous: Optional[dict[int, Any]]
    ) -> None:
        if previous is None:
            return
        for signum, handler in previous.items():
            signal.signal(signum, handler)

    def _on_signal(self, signum: int, frame: Any) -> None:
        self._signal = signum

    def _check_interrupt(self) -> None:
        if self._signal is None:
            return
        name = signal.Signals(self._signal).name
        raise CampaignInterruptedError(
            f"campaign interrupted by {name}; every checkpointed chunk is "
            "fsynced — resume with `campaign run`"
        )

    # ------------------------------------------------------------------
    # Executors
    # ------------------------------------------------------------------
    def _execute(
        self, payloads: list[_Payload], plan: Optional[FaultPlan]
    ) -> Iterable[tuple[int, tuple]]:
        """Settle chunk payloads, in-process or supervised.

        Results stream out as chunks settle (``("ok", tally)`` or
        ``("failed", attempts, error)``) so every record is checkpointed
        the moment it lands; an interrupt preserves the fastest chunks
        regardless of their index, and merged results never depend on
        arrival order.
        """
        if self.jobs <= 1 or len(payloads) <= 1:
            yield from self._execute_inprocess(payloads, plan)
            return
        yield from self._execute_supervised(payloads, plan)

    def _execute_inprocess(
        self, payloads: list[_Payload], plan: Optional[FaultPlan]
    ) -> Iterator[tuple[int, tuple]]:
        """Serial executor with the same retry/quarantine semantics.

        No process boundary, so no preemption: ``chunk_timeout`` is not
        enforced here, and only *injected* crashes
        (:class:`WorkerCrashError`) are retryable — a genuine exception
        from the chunk runner propagates, exactly as before.
        """
        policy = self.policy
        seed = plan.seed if plan is not None else 0
        for payload in payloads:
            self._check_interrupt()
            index = payload[0]
            error = ""
            attempt_log: list[dict[str, Any]] = []
            for attempt in range(1, policy.max_attempts + 1):
                faults.set_context(index, attempt)
                telemetry.set_context(chunk=index, attempt=attempt)
                crash: Optional[WorkerCrashError] = None
                tally: tuple = ()
                try:
                    with telemetry.span(
                        "chunk.attempt",
                        chunk=index,
                        attempt=attempt,
                        tables=len(payload[2]),
                    ) as span_attrs:
                        try:
                            _, tally = _campaign_chunk(payload)
                            span_attrs["ok"] = True
                        except WorkerCrashError as exc:
                            span_attrs["ok"] = False
                            span_attrs["error"] = type(exc).__name__
                            crash = exc
                finally:
                    faults.set_context(-1, 0)
                    telemetry.set_context(chunk=None, attempt=None)
                if crash is None:
                    yield index, ("ok", tally)
                    break
                error = _describe(crash)
                delay: Optional[float] = None
                if attempt < policy.max_attempts:
                    delay = faults.backoff_delay(
                        policy.backoff_base,
                        policy.backoff_cap,
                        attempt,
                        f"chunk{index}",
                        seed,
                    )
                attempt_log.append(
                    {
                        "attempt": attempt,
                        "error": error,
                        "delay": delay,
                        "deadline": None,  # no preemption in-process
                    }
                )
                if delay is not None:
                    telemetry.event(
                        "chunk.retry",
                        chunk=index,
                        next_attempt=attempt + 1,
                        delay=delay,
                    )
                    time.sleep(delay)
            else:
                if not policy.quarantine:
                    raise ChunkPoisonedError(
                        f"chunk {index} failed all {policy.max_attempts} "
                        f"attempts; last error: {error}"
                    )
                telemetry.event(
                    "chunk.quarantine", chunk=index, attempts=policy.max_attempts
                )
                yield index, (
                    "failed",
                    policy.max_attempts,
                    error,
                    self._failure_diagnostics(attempt_log),
                )

    def _execute_supervised(
        self, payloads: list[_Payload], plan: Optional[FaultPlan]
    ) -> Iterator[tuple[int, tuple]]:
        """Persistent-worker supervisor: deadlines, retirement, quarantine.

        Up to ``jobs`` long-lived workers, started lazily as work is
        dispatched, each serving one chunk attempt at a time over a
        duplex pipe. A clean tally returns its worker to the idle set;
        any other outcome *retires* it — an ``("error", …)`` message, EOF
        (the worker died: a crash is an event, not a hang), or a deadline
        kill — and a fresh process takes its place at the next dispatch,
        so a retry never runs in the process that failed. A hand-rolled
        supervisor rather than ``multiprocessing.Pool`` because a pool
        treats a dead worker as a reason to hang. Deadlines are enforced
        by the same ``wait()`` loop that collects results. Idle workers
        get a ``None`` sentinel and are joined once every chunk settles;
        on an interrupt or exception every live worker is killed. The
        NumPy kernels are loaded once up front, where the workers inherit
        them (:func:`~repro.verification.sweeps.preload_kernels`); this
        path runs only with chunks pending, so a cache-hit rerun never
        loads them.
        """
        policy = self.policy
        seed = plan.seed if plan is not None else 0
        ctx = multiprocessing.get_context()
        preload_kernels(ctx, __name__)
        plan_data = plan.to_dict() if plan is not None else None
        trace = telemetry.active()
        telemetry_data = trace.to_dict() if trace is not None else None
        queue: deque[tuple[_Payload, int]] = deque(
            (payload, 1) for payload in payloads
        )
        retries: list[tuple[float, _Payload, int]] = []
        idle: list[_Worker] = []
        running: dict[Connection, _Worker] = {}
        history: dict[int, list[dict[str, Any]]] = {}

        def start_worker(payload: _Payload, attempt: int) -> _Worker:
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            process = ctx.Process(
                target=_worker_loop,
                args=(child_conn, plan_data, telemetry_data),
            )
            process.start()
            child_conn.close()
            telemetry.event(
                "worker.spawn",
                chunk=payload[0],
                attempt=attempt,
                worker_pid=process.pid,
            )
            return _Worker(process, parent_conn)

        try:
            while queue or retries or running:
                self._check_interrupt()
                now = time.monotonic()
                if retries:
                    due = [entry for entry in retries if entry[0] <= now]
                    if due:
                        retries = [e for e in retries if e[0] > now]
                        # Retries jump the queue: an old chunk's tail
                        # latency should not grow behind fresh work.
                        for _, payload, attempt in due:
                            queue.appendleft((payload, attempt))
                while queue and len(running) < self.jobs:
                    payload, attempt = queue.popleft()
                    worker = idle.pop() if idle else start_worker(payload, attempt)
                    try:
                        worker.conn.send((payload, attempt))
                    except OSError:
                        pass  # a dead worker surfaces as EOF below
                    worker.payload, worker.attempt = payload, attempt
                    worker.deadline = (
                        time.monotonic() + policy.chunk_timeout
                        if policy.chunk_timeout is not None
                        else None
                    )
                    running[worker.conn] = worker
                ready = (
                    connection_wait(
                        list(running), timeout=_SUPERVISOR_TICK_SECONDS
                    )
                    if running
                    else []
                )
                if not running:
                    # Everything is backing off; sleep one tick.
                    time.sleep(
                        min(
                            _SUPERVISOR_TICK_SECONDS,
                            max(0.0, min(e[0] for e in retries) - now),
                        )
                    )
                for conn in ready:
                    worker = running.pop(conn)  # type: ignore[arg-type]
                    try:
                        message = worker.conn.recv()
                    except (EOFError, OSError):
                        message = None
                    if message is not None and message[0] == "ok":
                        idle.append(worker)
                        yield worker.payload[0], ("ok", message[1])
                        continue
                    # Retired: the worker exits after reporting an error,
                    # and a crashed one is already gone.
                    worker.conn.close()
                    worker.process.join()
                    if message is not None:
                        error = message[1]
                    else:
                        error = _describe(
                            WorkerCrashError(
                                f"worker for chunk {worker.payload[0]} died "
                                f"with exit code {worker.process.exitcode} "
                                f"before delivering a tally (attempt "
                                f"{worker.attempt})"
                            )
                        )
                        telemetry.event(
                            "worker.crash",
                            chunk=worker.payload[0],
                            attempt=worker.attempt,
                            exitcode=worker.process.exitcode,
                        )
                    settled = self._settle_failure(
                        worker.payload,
                        worker.attempt,
                        error,
                        retries,
                        seed,
                        history,
                    )
                    if settled is not None:
                        yield settled
                now = time.monotonic()
                overdue = [
                    conn
                    for conn, worker in running.items()
                    if worker.deadline is not None and worker.deadline <= now
                ]
                for conn in overdue:
                    worker = running.pop(conn)
                    _kill_process(worker.process)
                    worker.conn.close()
                    error = _describe(
                        ChunkTimeoutError(
                            f"chunk {worker.payload[0]} exceeded the "
                            f"{policy.chunk_timeout:g}s per-chunk deadline "
                            f"(attempt {worker.attempt})"
                        )
                    )
                    telemetry.event(
                        "chunk.timeout",
                        chunk=worker.payload[0],
                        attempt=worker.attempt,
                        deadline=policy.chunk_timeout,
                    )
                    settled = self._settle_failure(
                        worker.payload,
                        worker.attempt,
                        error,
                        retries,
                        seed,
                        history,
                    )
                    if settled is not None:
                        yield settled
            for worker in idle:
                try:
                    worker.conn.send(None)
                except OSError:
                    pass  # already gone; the join below reaps it
            for worker in idle:
                worker.process.join(timeout=5.0)
        finally:
            # Joined workers pass through untouched; anything still alive
            # (interrupt, exception, a worker deaf to its sentinel) dies.
            for worker in [*idle, *running.values()]:
                _kill_process(worker.process)
                worker.conn.close()

    def _settle_failure(
        self,
        payload: _Payload,
        attempt: int,
        error: str,
        retries: list[tuple[float, _Payload, int]],
        seed: int,
        history: dict[int, list[dict[str, Any]]],
    ) -> Optional[tuple[int, tuple]]:
        """Retry a failed attempt with backoff, or settle the chunk.

        Returns ``(index, ("failed", attempts, error, diagnostics))``
        once the retry budget is exhausted and quarantine is on; ``None``
        while a retry is still owed (it was pushed onto ``retries``).
        Every failed attempt is logged to ``history`` — attempt number,
        error, computed backoff delay, per-attempt deadline — which
        becomes the quarantined record's ``diagnostics``, so fsck and
        ``retry-failed`` can explain the poisoning without re-running it.
        """
        policy = self.policy
        index = payload[0]
        entry = {
            "attempt": attempt,
            "error": error,
            "delay": None,
            "deadline": policy.chunk_timeout,
        }
        history.setdefault(index, []).append(entry)
        if attempt < policy.max_attempts:
            delay = faults.backoff_delay(
                policy.backoff_base,
                policy.backoff_cap,
                attempt,
                f"chunk{index}",
                seed,
            )
            entry["delay"] = delay
            telemetry.event(
                "chunk.retry",
                chunk=index,
                next_attempt=attempt + 1,
                delay=delay,
            )
            retries.append((time.monotonic() + delay, payload, attempt + 1))
            return None
        if not policy.quarantine:
            raise ChunkPoisonedError(
                f"chunk {index} failed all {policy.max_attempts} attempts; "
                f"last error: {error}"
            )
        telemetry.event(
            "chunk.quarantine", chunk=index, attempts=policy.max_attempts
        )
        return index, (
            "failed",
            policy.max_attempts,
            error,
            self._failure_diagnostics(history[index]),
        )

    def _failure_diagnostics(
        self, attempt_log: list[dict[str, Any]]
    ) -> dict[str, Any]:
        """The retry schedule a quarantined chunk actually exhausted.

        Deterministic given the spec, policy and fault seed —
        ``backoff_delay`` is a pure function — so quarantine records stay
        reproducible; stored under the failure record's ``diagnostics``
        key (the strict reader accepts records with or without it, so
        pre-existing logs still load).
        """
        policy = self.policy
        return {
            "attempts": attempt_log,
            "policy": {
                "max_attempts": policy.max_attempts,
                "backoff_base": policy.backoff_base,
                "backoff_cap": policy.backoff_cap,
                "chunk_timeout": policy.chunk_timeout,
            },
        }

    def _append_with_retry(
        self,
        spec: ScenarioSpec,
        record: dict[str, Any],
        plan: Optional[FaultPlan],
    ) -> None:
        """Checkpoint one record, retrying failed fsyncs with backoff.

        After a failed fsync the line's durability is unknown, so the
        append simply runs again: if the first write did land, the rerun
        produces an identical duplicate line, which the strict reader
        dedups for free. Exhausting the budget raises
        :class:`StoreCorruptionError` — the store cannot prove the work.
        """
        policy = self.policy
        seed = plan.seed if plan is not None else 0
        last: Optional[OSError] = None
        for attempt in range(1, policy.max_attempts + 1):
            try:
                self.store.append_record(spec, record)
                return
            except OSError as exc:
                last = exc
                if attempt < policy.max_attempts:
                    time.sleep(
                        faults.backoff_delay(
                            policy.backoff_base,
                            policy.backoff_cap,
                            attempt,
                            f"append{record['chunk']}",
                            seed,
                        )
                    )
        raise StoreCorruptionError(
            f"could not durably checkpoint chunk {record['chunk']} after "
            f"{policy.max_attempts} attempts: {last}"
        )

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def report_dict(
        self, spec: ScenarioSpec, allow_degraded: bool = False
    ) -> dict[str, Any]:
        """The final report as a dict; raises until the campaign settles.

        A degraded campaign's report is withheld behind
        ``allow_degraded`` (:class:`CampaignDegradedError` otherwise), so
        partial results are always an explicit, visible choice.
        """
        return self._report_dict(spec, self._settled_status(spec, allow_degraded))

    def report_text(self, spec: ScenarioSpec, allow_degraded: bool = False) -> str:
        """The final report's exact bytes (as text); raises if unsettled."""
        return self._report_text(spec, self._settled_status(spec, allow_degraded))

    def _settled_status(
        self, spec: ScenarioSpec, allow_degraded: bool = False
    ) -> CampaignStatus:
        """Status of a campaign required to be settled (reporting gate)."""
        status = self.status(spec)
        if not status.settled:
            raise CampaignIncompleteError(
                f"campaign {spec.name!r} is incomplete "
                f"({status.chunks_done}/{status.chunks_total} chunks); "
                "run it to completion before reporting"
            )
        if status.degraded and not allow_degraded:
            raise CampaignDegradedError(
                f"campaign {spec.name!r} is degraded: chunks "
                f"{list(status.failed_chunks)} are quarantined; re-execute "
                "them with `campaign retry-failed` or request the partial "
                "report explicitly"
            )
        return status

    def _report_dict(
        self, spec: ScenarioSpec, status: CampaignStatus
    ) -> dict[str, Any]:
        """Report content: spec + merged tallies, nothing run-dependent.

        No timestamps, worker counts or backend names — the report must be
        a pure function of (spec, settled records) so interrupted-and-
        resumed and uninterrupted campaigns emit identical bytes. The
        degraded keys appear only when quarantined chunks exist, keeping
        clean-run report bytes independent of the fault machinery.
        """
        data = {
            "format": "campaign-report",
            "version": CAMPAIGN_REPORT_VERSION,
            "scenario_id": spec.scenario_id,
            "scenario": spec.to_dict(),
            "chunks": status.chunks_total,
            "total": status.total,
            "trapped": status.trapped,
            "explorers": list(status.explorers),
            "states_explored": status.states_explored,
            "all_trapped": status.all_trapped,
        }
        if status.chunks_failed:
            data["degraded"] = True
            data["failed_chunks"] = list(status.failed_chunks)
        return data

    def _report_text(self, spec: ScenarioSpec, status: CampaignStatus) -> str:
        return (
            json.dumps(self._report_dict(spec, status), indent=2, sort_keys=True)
            + "\n"
        )


__all__ = [
    "CAMPAIGN_REPORT_VERSION",
    "CampaignRunner",
    "CampaignRunOutcome",
    "CampaignStatus",
    "RetryPolicy",
]
