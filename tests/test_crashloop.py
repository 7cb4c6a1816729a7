"""The crash-loop acceptance harness and the supervised executor.

Headline acceptance criterion of the robustness layer: a registry
campaign killed at fault-plan-chosen points **dozens of times** — every
kill a real ``os._exit`` mid-append in a real child process, tearing the
checkpoint log's final record — converges, cycle by resumed cycle, on a
final report *byte-identical* to an uninterrupted run's. Alongside it:
the supervised executor's dead-worker respawn, per-chunk deadlines,
quarantine/degraded semantics, its persistent workers (one per job
slot, retired on failure, never outliving the run), and the signal path
(SIGTERM lands as exit code 130 with a store the strict reader still
accepts).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import sys
import time
from collections import Counter

import pytest

from repro import telemetry
from repro.errors import (
    EXIT_INTERRUPTED,
    CampaignInterruptedError,
    ChunkPoisonedError,
    exit_code_for,
)
from repro.scenarios import (
    CampaignRunner,
    FaultPlan,
    ResultStore,
    RetryPolicy,
    get_scenario,
)
from repro.scenarios.faults import KILL_EXIT_CODE
from scenario_testlib import make_tiny_scenario

REGISTRY_FAMILY = "thm51-single-n3"  # 256 tables, 8 chunks of 32


@pytest.fixture(scope="module")
def clean_report(tmp_path_factory):
    """The uninterrupted run's exact report bytes (the reference)."""
    root = tmp_path_factory.mktemp("clean")
    spec = get_scenario(REGISTRY_FAMILY)
    store = ResultStore(root)
    CampaignRunner(store, jobs=1).run(spec)
    report = store.read_report(spec)
    assert report is not None
    return report


def _crashloop_cycle(root: str, cycle: int) -> None:
    """One child cycle: resume the campaign under a killing fault plan.

    ``max_appends`` is the deterministic kill switch: most cycles die on
    their very first checkpoint append (no progress), every fourth cycle
    lands one chunk first — so the campaign crawls to completion through
    dozens of genuine kill/resume cycles. The crash rate adds in-process
    mid-chunk crashes on top (retried under the generous attempt
    budget, so they perturb timing without poisoning chunks).
    """
    plan = FaultPlan(
        seed=cycle,
        crash=0.15,
        max_appends=1 if cycle % 4 == 3 else 0,
    )
    runner = CampaignRunner(
        ResultStore(root),
        jobs=1,
        policy=RetryPolicy(max_attempts=100, backoff_base=0.001),
        faults=plan,
    )
    runner.run(get_scenario(REGISTRY_FAMILY))
    os._exit(0)  # only reached by the cycle that settles the last chunk


class TestCrashLoop:
    def test_25_plus_kill_resume_cycles_converge_byte_identically(
        self, tmp_path, clean_report
    ):
        spec = get_scenario(REGISTRY_FAMILY)
        store = ResultStore(tmp_path / "store")
        context = multiprocessing.get_context()
        kills = 0
        for cycle in range(200):
            child = context.Process(
                target=_crashloop_cycle, args=(str(tmp_path / "store"), cycle)
            )
            child.start()
            child.join()
            if child.exitcode == 0:
                break
            # Every non-final cycle must die by the injected kill —
            # anything else is a genuine failure of the runner.
            assert child.exitcode == KILL_EXIT_CODE, (
                f"cycle {cycle} died with unexpected exit code "
                f"{child.exitcode}"
            )
            kills += 1
        else:
            pytest.fail("crash loop never converged in 200 cycles")
        assert kills >= 25, f"only {kills} kill/resume cycles"
        assert store.read_report(spec) == clean_report
        # The survivor store holds exactly the 8 clean-run records, each
        # strict-readable — the torn tails of 25+ kills all healed.
        records = store.load_records(spec)
        assert sorted(records) == list(range(8))

    def test_poisoned_chunk_degrades_instead_of_crashing(
        self, tmp_path, clean_report
    ):
        spec = get_scenario(REGISTRY_FAMILY)
        store = ResultStore(tmp_path / "store")
        runner = CampaignRunner(
            store,
            jobs=1,
            policy=RetryPolicy(max_attempts=2, backoff_base=0.001),
            faults=FaultPlan(seed=1, crash_chunks=(2, 6)),
        )
        outcome = runner.run(spec)
        status = outcome.status
        assert status.settled and status.degraded and not status.complete
        assert status.failed_chunks == (2, 6)
        assert "quarantined [2, 6]" in status.summary()
        # The report exists, is explicit about the damage, and never
        # claims the theorem discharged.
        report = json.loads(store.read_report(spec))
        assert report["degraded"] is True
        assert report["failed_chunks"] == [2, 6]
        assert report["all_trapped"] is False
        # Healing the quarantined chunks restores the clean bytes.
        healed = CampaignRunner(store, jobs=1).retry_failed(spec)
        assert healed.status.complete and healed.chunks_run == 2
        assert store.read_report(spec) == clean_report


class TestSupervisedExecutor:
    def test_dead_workers_are_respawned_to_completion(self, tmp_path):
        # Every crash here is a hard os._exit in a real worker process;
        # the supervisor must observe the death and respawn the attempt.
        spec = make_tiny_scenario()
        store = ResultStore(tmp_path / "faulty")
        outcome = CampaignRunner(
            store,
            jobs=2,
            policy=RetryPolicy(max_attempts=50, backoff_base=0.001),
            faults=FaultPlan(seed=7, crash=0.4),
        ).run(spec)
        assert outcome.status.complete
        reference = ResultStore(tmp_path / "reference")
        CampaignRunner(reference, jobs=2).run(spec)
        assert store.read_report(spec) == reference.read_report(spec)

    def test_hung_chunk_hits_deadline_and_quarantines(self, tmp_path):
        spec = make_tiny_scenario()
        store = ResultStore(tmp_path / "store")
        outcome = CampaignRunner(
            store,
            jobs=2,
            policy=RetryPolicy(
                max_attempts=2, chunk_timeout=0.5, backoff_base=0.01
            ),
            # Chunk 1 sleeps far past the deadline on every attempt; the
            # supervisor must kill it rather than wait it out.
            faults=FaultPlan(seed=0, delay_chunks=(1,), delay_seconds=30.0),
        ).run(spec)
        status = outcome.status
        assert status.degraded and status.failed_chunks == (1,)
        record = store.load_records(spec)[1]
        assert record["failed"] is True and record["attempts"] == 2
        assert record["error"] == (
            "ChunkTimeoutError: chunk 1 exceeded the 0.5s per-chunk "
            "deadline (attempt 2)"
        )

    def test_quarantine_off_raises_chunk_poisoned(self, tmp_path):
        spec = make_tiny_scenario()
        runner = CampaignRunner(
            ResultStore(tmp_path / "store"),
            jobs=1,
            policy=RetryPolicy(
                max_attempts=2, backoff_base=0.001, quarantine=False
            ),
            faults=FaultPlan(seed=0, crash_chunks=(0,)),
        )
        with pytest.raises(ChunkPoisonedError, match="chunk 0 failed all 2"):
            runner.run(spec)

    def test_fsync_failures_are_retried_transparently(self, tmp_path):
        spec = make_tiny_scenario()
        store = ResultStore(tmp_path / "store")
        outcome = CampaignRunner(
            store,
            jobs=1,
            policy=RetryPolicy(max_attempts=50, backoff_base=0.001),
            faults=FaultPlan(seed=3, fsync_fail=0.5),
        ).run(spec)
        assert outcome.status.complete
        # Retried appends may leave identical duplicate lines; the
        # strict reader dedups them, the tallies never double-count.
        assert outcome.status.total == 24


def _traced_events(trace_dir, name):
    return [e for e in telemetry.load_trace(trace_dir) if e["name"] == name]


class _InterruptAfterFirstRecord(CampaignRunner):
    """Raises the SIGINT flag once the first record is checkpointed."""

    def _append_with_retry(self, spec, record, plan):
        super()._append_with_retry(spec, record, plan)
        self._signal = signal.SIGINT


def _slow_supervised_campaign(root: str) -> None:
    """Child body for the orphan test: a traced, slow ``jobs=2`` run."""
    CampaignRunner(
        ResultStore(os.path.join(root, "store")),
        jobs=2,
        telemetry=os.path.join(root, "trace"),
        faults=FaultPlan(seed=0, delay=1.0, delay_seconds=0.3),
    ).run(make_tiny_scenario(chunk_size=1))


def _pid_alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class TestPersistentWorkers:
    """One long-lived worker per job slot, retired on any failure."""

    def test_clean_run_starts_one_worker_per_job_slot(self, tmp_path):
        spec = make_tiny_scenario(chunk_size=1)  # 24 chunks
        trace = tmp_path / "trace"
        outcome = CampaignRunner(
            ResultStore(tmp_path / "store"), jobs=2, telemetry=trace
        ).run(spec)
        assert outcome.status.complete and outcome.chunks_run == 24
        spawns = _traced_events(trace, "worker.spawn")
        assert len(spawns) == 2
        attempts = _traced_events(trace, "chunk.attempt")
        assert len(attempts) == 24
        pids = {e["pid"] for e in attempts}
        assert pids <= {e["attrs"]["worker_pid"] for e in spawns}
        assert len(pids) <= 2

    def test_crash_retires_only_the_failed_worker(self, tmp_path):
        spec = make_tiny_scenario(chunk_size=1)
        trace = tmp_path / "trace"
        outcome = CampaignRunner(
            ResultStore(tmp_path / "store"),
            jobs=2,
            policy=RetryPolicy(max_attempts=3, backoff_base=0.0),
            faults=FaultPlan(seed=0, crash_chunks=(0,)),
            telemetry=trace,
        ).run(spec)
        assert outcome.status.failed_chunks == (0,)
        crashes = _traced_events(trace, "worker.crash")
        assert [e["attrs"]["attempt"] for e in crashes] == [1, 2, 3]
        # Every crash costs exactly one fresh worker; nothing else does.
        assert len(_traced_events(trace, "worker.spawn")) == 2 + len(crashes)
        served = Counter(
            e["pid"] for e in _traced_events(trace, "chunk.attempt")
        )
        assert sum(served.values()) == 23
        assert max(served.values()) > 1  # survivors keep serving
        record = ResultStore(tmp_path / "store").load_records(spec)[0]
        assert record["error"] == (
            "WorkerCrashError: worker for chunk 0 died with exit code "
            f"{KILL_EXIT_CODE} before delivering a tally (attempt 3)"
        )

    def test_no_worker_outlives_a_run(self, tmp_path):
        spec = make_tiny_scenario(chunk_size=1)
        CampaignRunner(ResultStore(tmp_path / "done"), jobs=2).run(spec)
        assert multiprocessing.active_children() == []
        runner = _InterruptAfterFirstRecord(
            ResultStore(tmp_path / "interrupted"), jobs=2
        )
        with pytest.raises(CampaignInterruptedError):
            runner.run(spec)
        assert multiprocessing.active_children() == []
        assert len(runner.store.load_records(spec)) >= 1

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self"), reason="needs /proc to watch pids"
    )
    def test_workers_exit_when_the_runner_is_killed(self, tmp_path):
        # Under fork a worker inherits the supervisor's end of its own
        # pipe, so only the parent-death watch lets it notice SIGKILL.
        child = multiprocessing.get_context("fork").Process(
            target=_slow_supervised_campaign, args=(str(tmp_path),)
        )
        child.start()
        deadline = time.monotonic() + 30
        spawns: list = []
        while len(spawns) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
            if (tmp_path / "trace").exists():
                spawns = _traced_events(tmp_path / "trace", "worker.spawn")
        os.kill(child.pid, signal.SIGKILL)
        child.join()
        pids = [e["attrs"]["worker_pid"] for e in spawns]
        assert len(pids) == 2
        deadline = time.monotonic() + 10
        while any(map(_pid_alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in pids if _pid_alive(pid)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert survivors == []


def _interruptible_campaign(root: str) -> None:
    """Child body for the signal test: a deliberately slow campaign."""
    spec = make_tiny_scenario()
    runner = CampaignRunner(
        ResultStore(root),
        jobs=1,
        faults=FaultPlan(
            seed=0, delay_chunks=(0, 1, 2, 3), delay_seconds=0.3
        ),
    )
    try:
        runner.run(spec)
    except CampaignInterruptedError as exc:
        os._exit(exit_code_for(exc))
    os._exit(0)  # pragma: no cover — the parent kills us first


class TestSignalSafety:
    def test_sigterm_exits_130_with_a_clean_store(self, tmp_path):
        root = str(tmp_path / "store")
        context = multiprocessing.get_context()
        child = context.Process(target=_interruptible_campaign, args=(root,))
        child.start()
        time.sleep(0.45)  # well inside the ~2.4s the four chunks take
        os.kill(child.pid, signal.SIGTERM)
        child.join(timeout=10)
        assert child.exitcode == EXIT_INTERRUPTED == 130
        # The interrupt landed at a chunk boundary: whatever checkpointed
        # is strict-readable, and the resumed run converges byte-for-byte
        # with a never-interrupted one.
        spec = make_tiny_scenario()
        store = ResultStore(root)
        store.load_records(spec)  # must not raise
        CampaignRunner(store, jobs=1).run(spec)
        reference = ResultStore(tmp_path / "reference")
        CampaignRunner(reference, jobs=1).run(spec)
        assert store.read_report(spec) == reference.read_report(spec)

    def test_handlers_are_restored_after_run(self, tmp_path):
        before = (
            signal.getsignal(signal.SIGINT),
            signal.getsignal(signal.SIGTERM),
        )
        CampaignRunner(ResultStore(tmp_path / "s"), jobs=1).run(
            make_tiny_scenario()
        )
        after = (
            signal.getsignal(signal.SIGINT),
            signal.getsignal(signal.SIGTERM),
        )
        assert after == before


class TestExitTaxonomy:
    def test_exception_to_exit_code_mapping(self):
        from repro import errors

        cases = [
            (errors.CampaignInterruptedError("x"), 130),
            (errors.StoreCorruptionError("x"), 3),
            (errors.CampaignDegradedError("x"), 4),
            (errors.ChunkPoisonedError("x"), 4),
            (errors.CampaignIncompleteError("x"), 1),
            (errors.ScenarioError("x"), 2),
        ]
        for exc, expected in cases:
            assert exit_code_for(exc) == expected
