"""Tests for the persistent campaign runner and its result store.

The acceptance contract under test: interrupting a campaign mid-run and
resuming yields a final report *byte-identical* to an uninterrupted
run's, and re-running a completed campaign is a cache hit (zero chunks
re-verified). Plus the store's failure modes: torn tail lines are
forgiven, conflicting or mismatched checkpoints are refused.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from scenario_testlib import make_tiny_dynamics_scenario as tiny_dyn_spec
from scenario_testlib import make_tiny_scenario as tiny_spec
from repro.errors import ScenarioError
from repro.scenarios import (
    CampaignRunner,
    ResultStore,
    RobotClassSpec,
    simulate_chunk,
)
from repro.verification.sweeps import sweep_chunk


def runner_for(tmp_path: Path, label: str, **kwargs) -> CampaignRunner:
    kwargs.setdefault("jobs", 1)
    return CampaignRunner(ResultStore(tmp_path / label), **kwargs)


class TestCampaignLifecycle:
    def test_full_run_completes_and_reports(self, tmp_path: Path) -> None:
        spec = tiny_spec()
        runner = runner_for(tmp_path, "a")
        outcome = runner.run(spec)
        assert outcome.status.complete
        assert outcome.status.all_trapped
        assert outcome.chunks_run == spec.chunk_count == 4
        assert outcome.chunks_cached == 0
        assert outcome.report_path is not None and outcome.report_path.exists()
        report = json.loads(runner.report_text(spec))
        assert report["format"] == "campaign-report"
        assert report["total"] == report["trapped"] == 24
        assert report["scenario"]["name"] == "tiny"
        assert report["scenario_id"] == spec.scenario_id

    def test_status_before_any_run(self, tmp_path: Path) -> None:
        spec = tiny_spec()
        status = runner_for(tmp_path, "a").status(spec)
        assert status.chunks_done == 0
        assert status.chunks_total == 4
        assert not status.complete

    def test_interrupt_resume_report_is_byte_identical(self, tmp_path: Path) -> None:
        spec = tiny_spec()
        uninterrupted = runner_for(tmp_path, "a")
        uninterrupted.run(spec)
        reference = uninterrupted.store.report_path(spec).read_bytes()

        interrupted = runner_for(tmp_path, "b")
        partial = interrupted.run(spec, max_chunks=2)
        assert not partial.status.complete
        assert partial.report_path is None
        assert interrupted.store.read_report(spec) is None
        resumed = interrupted.run(spec)
        assert resumed.status.complete
        assert resumed.chunks_run == 2  # only the missing chunks
        assert resumed.chunks_cached == 2  # the checkpointed ones
        assert interrupted.store.report_path(spec).read_bytes() == reference

    def test_rerun_is_cache_hit(self, tmp_path: Path) -> None:
        spec = tiny_spec()
        runner = runner_for(tmp_path, "a")
        first = runner.run(spec)
        stat_before = runner.store.report_path(spec).stat()
        again = runner.run(spec)
        assert again.chunks_run == 0
        assert again.chunks_cached == 4
        assert again.status == first.status
        assert runner.store.report_path(spec).read_bytes() == (
            first.report_path.read_bytes()
        )
        # Write-free: a cache-hit rerun must not even touch report.json.
        stat_after = runner.store.report_path(spec).stat()
        assert (stat_before.st_mtime_ns, stat_before.st_ino) == (
            stat_after.st_mtime_ns, stat_after.st_ino,
        )

    def test_parallel_run_matches_serial_bytes(self, tmp_path: Path) -> None:
        spec = tiny_spec()
        serial = runner_for(tmp_path, "serial", jobs=1)
        serial.run(spec)
        parallel = runner_for(tmp_path, "parallel", jobs=2)
        parallel.run(spec)
        assert parallel.store.report_path(spec).read_bytes() == (
            serial.store.report_path(spec).read_bytes()
        )

    def test_chunk_tallies_match_direct_sweep(self, tmp_path: Path) -> None:
        spec = tiny_spec()
        runner = runner_for(tmp_path, "a")
        status = runner.run(spec).status
        total, trapped, explorers, states = sweep_chunk(
            "single", spec.n, spec.expand_patterns()
        )
        assert (status.total, status.trapped, list(status.explorers)) == (
            total, trapped, explorers,
        )
        assert status.states_explored == states

    def test_partial_campaign_never_reads_as_discharged(self, tmp_path: Path) -> None:
        spec = tiny_spec()
        runner = runner_for(tmp_path, "a")
        partial = runner.run(spec, max_chunks=2)
        # Unanimous partial tallies must not claim the whole-class result.
        assert partial.status.trapped == partial.status.total > 0
        assert not partial.status.all_trapped
        assert runner.run(spec).status.all_trapped

    def test_report_before_completion_raises(self, tmp_path: Path) -> None:
        spec = tiny_spec()
        runner = runner_for(tmp_path, "a")
        runner.run(spec, max_chunks=1)
        with pytest.raises(ScenarioError):
            runner.report_text(spec)
        with pytest.raises(ScenarioError):
            runner.report_dict(spec)


class TestScenarioDimensions:
    def test_ill_initiated_campaign_runs(self, tmp_path: Path) -> None:
        spec = tiny_spec(
            name="tiny-ill",
            robots=RobotClassSpec(family="two", sample=6),
            n=4,
            starts="arbitrary",
            chunk_size=3,
        )
        outcome = runner_for(tmp_path, "a").run(spec)
        assert outcome.status.complete
        assert outcome.status.total == 6

    def test_live_property_campaign_runs(self, tmp_path: Path) -> None:
        spec = tiny_spec(
            name="tiny-live",
            robots=RobotClassSpec(family="two", sample=6),
            n=4,
            prop="live",
            chunk_size=3,
        )
        outcome = runner_for(tmp_path, "a").run(spec)
        assert outcome.status.complete
        assert outcome.status.total == 6

    def test_memory2_campaign_runs(self, tmp_path: Path) -> None:
        spec = tiny_spec(
            name="tiny-m2",
            robots=RobotClassSpec(family="two-m2", sample=4),
            n=4,
            chunk_size=2,
        )
        outcome = runner_for(tmp_path, "a").run(spec)
        assert outcome.status.complete
        assert outcome.status.total == 4

    def test_ssync_campaign_runs_end_to_end(self, tmp_path: Path) -> None:
        # The scheduler axis is executable since the scheduler-generic
        # verification core: an SSYNC campaign runs, checkpoints and
        # reports exactly like an FSYNC one (and, per Di Luna et al.,
        # every memoryless single-robot table stays trapped).
        spec = tiny_spec(scheduler="ssync")
        runner = runner_for(tmp_path, "a")
        outcome = runner.run(spec)
        assert outcome.status.complete
        assert outcome.status.all_trapped
        report = json.loads(runner.report_text(spec))
        assert report["scenario"]["scheduler"] == "ssync"
        assert report["total"] == report["trapped"] == 24
        # The scheduler is part of the semantic payload: the SSYNC twin
        # of a workload must never collide with its FSYNC store records.
        assert spec.scenario_id != tiny_spec().scenario_id
        rerun = runner.run(spec)
        assert rerun.chunks_run == 0

    def test_bad_dynamics_fail_at_spec_construction(self) -> None:
        # The require_runnable() mid-campaign dynamics guard is gone: a
        # schedule-family spec either validates at construction (and is
        # then executable end to end) or never exists at all.
        with pytest.raises(ScenarioError, match="bernoulli"):
            tiny_spec(dynamics="bernoulli")


class TestSimulationCampaigns:
    """The simulation-backed execution path: schedule-family dynamics run
    through the same store with the same resume/dedup/byte-identical
    guarantees as the verification path."""

    def test_dynamics_campaign_full_lifecycle(self, tmp_path: Path) -> None:
        spec = tiny_dyn_spec()
        runner = runner_for(tmp_path, "a")
        outcome = runner.run(spec)
        assert outcome.status.complete
        assert outcome.chunks_run == spec.chunk_count == 3
        report = json.loads(runner.report_text(spec))
        assert report["scenario"]["dynamics"] == "bernoulli"
        assert report["scenario"]["dynamics_seed"] == 20170605
        assert report["scenario"]["horizon"] == 24
        assert report["total"] == 12
        assert report["trapped"] + len(report["explorers"]) == 12
        rerun = runner.run(spec)
        assert rerun.chunks_run == 0
        assert rerun.chunks_cached == 3

    def test_interrupt_resume_is_byte_identical(self, tmp_path: Path) -> None:
        spec = tiny_dyn_spec()
        uninterrupted = runner_for(tmp_path, "a")
        uninterrupted.run(spec)
        reference = uninterrupted.store.report_path(spec).read_bytes()

        interrupted = runner_for(tmp_path, "b")
        partial = interrupted.run(spec, max_chunks=1)
        assert not partial.status.complete
        resumed = interrupted.run(spec)
        assert resumed.status.complete
        assert resumed.chunks_run == 2
        assert resumed.chunks_cached == 1
        assert interrupted.store.report_path(spec).read_bytes() == reference

    @pytest.mark.parametrize(
        "dynamics,params",
        [
            ("bernoulli", {"p": 0.75}),
            ("markov", {"p_off": 0.25, "p_on": 0.5}),
        ],
    )
    def test_seeded_chunk_records_identical_across_jobs(
        self, tmp_path: Path, dynamics: str, params: dict
    ) -> None:
        # Randomized schedules rebuild from (seed, t) in every worker, so
        # chunk records — and the report bytes — cannot depend on jobs.
        spec = tiny_dyn_spec(dynamics=dynamics, dynamics_params=params)
        serial = runner_for(tmp_path, "serial", jobs=1)
        serial.run(spec)
        parallel = runner_for(tmp_path, "parallel", jobs=4)
        parallel.run(spec)
        assert serial.store.load_records(spec) == parallel.store.load_records(spec)
        assert parallel.store.report_path(spec).read_bytes() == (
            serial.store.report_path(spec).read_bytes()
        )

    def test_chunk_tallies_match_direct_simulate(self, tmp_path: Path) -> None:
        spec = tiny_dyn_spec()
        runner = runner_for(tmp_path, "a")
        status = runner.run(spec).status
        total, trapped, explorers, rounds = simulate_chunk(
            spec, spec.expand_patterns()
        )
        assert (status.total, status.trapped, list(status.explorers)) == (
            total, trapped, explorers,
        )
        assert status.states_explored == rounds

    def test_ssync_dynamics_campaign_runs(self, tmp_path: Path) -> None:
        spec = tiny_dyn_spec(scheduler="ssync")
        runner = runner_for(tmp_path, "a")
        outcome = runner.run(spec)
        assert outcome.status.complete
        report = json.loads(runner.report_text(spec))
        assert report["scenario"]["scheduler"] == "ssync"
        # The scheduler is part of the payload: the SSYNC twin of a
        # simulation workload never collides with its FSYNC records.
        assert spec.scenario_id != tiny_dyn_spec().scenario_id

    def test_deterministic_dynamics_campaign_runs(self, tmp_path: Path) -> None:
        spec = tiny_dyn_spec(
            name="tiny-periodic",
            dynamics="periodic",
            dynamics_params={"patterns": {0: [True, False]}},
            dynamics_seed=None,
        )
        outcome = runner_for(tmp_path, "a").run(spec)
        assert outcome.status.complete
        assert outcome.status.total == 12


class TestBackendPortability:
    """The execution backend is not workload identity: a campaign
    checkpointed under one backend resumes under the other — into the
    same store directory, against the same records — and the final
    report bytes never betray which backend verified which chunk."""

    @pytest.mark.parametrize(
        "first,second", [("object", "packed"), ("packed", "object")]
    )
    def test_cross_backend_resume_is_byte_identical(
        self, tmp_path: Path, first: str, second: str
    ) -> None:
        spec = tiny_dyn_spec()
        reference = runner_for(tmp_path, "ref", backend="packed")
        reference.run(spec)
        reference_bytes = reference.store.report_path(spec).read_bytes()

        store = ResultStore(tmp_path / "mixed")
        partial = CampaignRunner(store, backend=first, jobs=1).run(
            spec, max_chunks=1
        )
        assert not partial.status.complete
        resumed = CampaignRunner(store, backend=second, jobs=1).run(spec)
        assert resumed.status.complete
        assert resumed.chunks_cached == 1  # the other backend's chunk held
        assert store.report_path(spec).read_bytes() == reference_bytes

    def test_exact_path_cross_backend_resume(self, tmp_path: Path) -> None:
        # The same portability holds on the highly-dynamic (solver) path.
        spec = tiny_spec()
        store = ResultStore(tmp_path / "mixed")
        CampaignRunner(store, backend="object", jobs=1).run(spec, max_chunks=2)
        resumed = CampaignRunner(store, backend="packed", jobs=1).run(spec)
        assert resumed.status.complete
        reference = runner_for(tmp_path, "ref")
        reference.run(spec)
        assert store.report_path(spec).read_bytes() == (
            reference.store.report_path(spec).read_bytes()
        )

    def test_simulation_backend_threads_through_runner(
        self, tmp_path: Path
    ) -> None:
        # An object-backend campaign's records equal the packed ones
        # record for record (digest, tallies, rounds) — not just the
        # merged report.
        spec = tiny_dyn_spec()
        packed = runner_for(tmp_path, "p", backend="packed")
        packed.run(spec)
        obj = runner_for(tmp_path, "o", backend="object")
        obj.run(spec)
        assert packed.store.load_records(spec) == obj.store.load_records(spec)


# Runs both tiny campaigns with ``jobs=2`` under the start method named
# on argv. Guarded: ``spawn``/``forkserver`` workers must not re-run it.
_START_METHOD_SCRIPT = """
import json, multiprocessing, sys
from repro.scenarios import CampaignRunner, ResultStore, ScenarioSpec
if __name__ == "__main__":
    method, root, *specs = sys.argv[1:]
    multiprocessing.set_start_method(method)
    for data in specs:
        spec = ScenarioSpec.from_dict(json.loads(data))
        outcome = CampaignRunner(ResultStore(root), jobs=2).run(spec)
        assert outcome.status.complete, outcome.status.summary()
"""


class TestStartMethodParity:
    """Report bytes never depend on how worker processes are started."""

    def test_reports_identical_under_fork_forkserver_spawn(
        self, tmp_path: Path
    ) -> None:
        methods = [
            method
            for method in ("fork", "forkserver", "spawn")
            if method in multiprocessing.get_all_start_methods()
        ]
        specs = [tiny_spec(), tiny_dyn_spec()]
        reference = runner_for(tmp_path, "ref")
        for spec in specs:
            reference.run(spec)
        src = Path(repro.__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")])
        )
        for method in methods:
            root = tmp_path / method
            subprocess.run(
                [
                    sys.executable, "-c", _START_METHOD_SCRIPT, method,
                    str(root), *(json.dumps(spec.to_dict()) for spec in specs),
                ],
                env=env, check=True, timeout=120,
            )
            store = ResultStore(root)
            for spec in specs:
                assert store.report_path(spec).read_bytes() == (
                    reference.store.report_path(spec).read_bytes()
                ), (method, spec.name)


class TestStoreRobustness:
    def test_torn_tail_line_is_forgiven(self, tmp_path: Path) -> None:
        spec = tiny_spec()
        reference = runner_for(tmp_path, "ref")
        reference.run(spec)
        expected = reference.store.report_path(spec).read_bytes()

        runner = runner_for(tmp_path, "a")
        runner.run(spec, max_chunks=2)
        log = runner.store.chunks_path(spec)
        with open(log, "a", encoding="utf-8") as handle:
            handle.write('{"chunk":3,"digest":"dead')  # kill mid-append
        resumed = runner.run(spec)
        assert resumed.status.complete
        assert resumed.chunks_run == 2
        assert runner.store.report_path(spec).read_bytes() == expected
        # The repaired log must stay readable after the resume appended
        # past the torn fragment — re-reads and re-runs keep working.
        assert runner.status(spec).complete
        assert runner.run(spec).chunks_run == 0

    def test_newline_less_valid_tail_record_is_kept(self, tmp_path: Path) -> None:
        spec = tiny_spec()
        runner = runner_for(tmp_path, "a")
        runner.run(spec, max_chunks=1)
        log = runner.store.chunks_path(spec)
        raw = log.read_bytes()
        log.write_bytes(raw.rstrip(b"\n"))  # hand edit: newline lost
        outcome = runner.run(spec)
        assert outcome.status.complete
        assert outcome.chunks_cached == 1  # the record survived the repair

    def test_torn_middle_line_is_corruption(self, tmp_path: Path) -> None:
        spec = tiny_spec()
        runner = runner_for(tmp_path, "a")
        runner.run(spec, max_chunks=1)
        log = runner.store.chunks_path(spec)
        record = log.read_text("utf-8")
        log.write_text('{"chunk":0,"dig\n' + record, "utf-8")
        with pytest.raises(ScenarioError):
            runner.run(spec)

    def test_conflicting_duplicate_records_refused(self, tmp_path: Path) -> None:
        spec = tiny_spec()
        runner = runner_for(tmp_path, "a")
        runner.run(spec, max_chunks=1)
        log = runner.store.chunks_path(spec)
        record = json.loads(log.read_text("utf-8").splitlines()[0])
        record["trapped"] = 0
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        with pytest.raises(ScenarioError):
            runner.run(spec)

    def test_identical_duplicate_records_are_deduped(self, tmp_path: Path) -> None:
        spec = tiny_spec()
        runner = runner_for(tmp_path, "a")
        runner.run(spec, max_chunks=1)
        log = runner.store.chunks_path(spec)
        line = log.read_text("utf-8").splitlines()[0]
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        outcome = runner.run(spec)
        assert outcome.status.complete
        assert outcome.chunks_cached == 1

    def test_digest_mismatch_refused(self, tmp_path: Path) -> None:
        spec = tiny_spec()
        runner = runner_for(tmp_path, "a")
        runner.run(spec, max_chunks=1)
        log = runner.store.chunks_path(spec)
        record = json.loads(log.read_text("utf-8"))
        record["digest"] = "0" * 16
        log.write_text(
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n",
            "utf-8",
        )
        with pytest.raises(ScenarioError):
            runner.run(spec)

    def test_torn_spec_file_is_rewritten(self, tmp_path: Path) -> None:
        spec = tiny_spec()
        runner = runner_for(tmp_path, "a")
        runner.run(spec, max_chunks=1)
        spec_path = runner.store.spec_path(spec)
        spec_path.write_text('{"format": "scen', "utf-8")  # kill mid-write
        outcome = runner.run(spec)
        assert outcome.status.complete
        assert json.loads(spec_path.read_text("utf-8")) == spec.to_dict()

    def test_spec_collision_refused(self, tmp_path: Path) -> None:
        spec = tiny_spec()
        runner = runner_for(tmp_path, "a")
        runner.run(spec, max_chunks=1)
        other = tiny_spec(n=4)
        runner.store.spec_path(spec).write_text(
            json.dumps(other.to_dict(), indent=2, sort_keys=True) + "\n", "utf-8"
        )
        with pytest.raises(ScenarioError):
            runner.run(spec)

    def test_max_chunks_validation(self, tmp_path: Path) -> None:
        with pytest.raises(ScenarioError):
            runner_for(tmp_path, "a").run(tiny_spec(), max_chunks=-1)
