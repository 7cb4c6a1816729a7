"""Telemetry: neutrality, schema, aggregation, baselines, diagnostics.

The load-bearing property is **hash neutrality**: arming telemetry may
never change what a campaign computes or stores. The differential tests
here prove report bytes and canonical chunk-record lines byte-identical
with telemetry on vs off, across both backends and ``jobs`` 1 vs N —
the same contract the backend axis carries. On top of that: event-schema
round-trips, the ≥95% wall-clock span-coverage acceptance bound,
percentile/summarize/baseline unit + property tests on synthetic traces,
quarantine retry-schedule diagnostics, fault-event tagging, and the CLI
surface (``analyze``, ``--baseline`` gating, ``status --json``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.cli import main
from repro.errors import ScenarioError
from repro.scenarios import CampaignRunner, ResultStore, RetryPolicy
from repro.scenarios.faults import FaultPlan, backoff_delay
from repro.scenarios.store import canonical_line
from repro.telemetry import TelemetryConfig
from scenario_testlib import make_tiny_dynamics_scenario, make_tiny_scenario


@pytest.fixture(autouse=True)
def _disarmed():
    """Every test starts and ends with telemetry disarmed."""
    telemetry.install(None)
    yield
    telemetry.install(None)


def _run_campaign(tmp_path: Path, spec, *, jobs=1, backend="packed",
                  trace: Path | None = None, tag: str = "run"):
    """One full campaign in a private store; returns (report, records)."""
    store = ResultStore(tmp_path / f"store-{tag}")
    runner = CampaignRunner(store, backend=backend, jobs=jobs, telemetry=trace)
    outcome = runner.run(spec)
    assert outcome.status.settled
    report = store.read_report(spec)
    assert report is not None
    records = store.load_records(spec)
    lines = sorted(canonical_line(r) for r in records.values())
    return report, lines


class TestNeutrality:
    """Telemetry on vs off: byte-identical records and reports."""

    @pytest.mark.parametrize("make_spec", [make_tiny_scenario,
                                           make_tiny_dynamics_scenario])
    @pytest.mark.parametrize("backend", ["packed", "object"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_report_and_records_identical_traced_vs_untraced(
        self, tmp_path, make_spec, backend, jobs
    ):
        spec = make_spec()
        base_report, base_lines = _run_campaign(
            tmp_path, spec, jobs=jobs, backend=backend, tag="plain"
        )
        trace_dir = tmp_path / "trace"
        traced_report, traced_lines = _run_campaign(
            tmp_path, spec, jobs=jobs, backend=backend,
            trace=trace_dir, tag="traced",
        )
        assert traced_report == base_report
        assert traced_lines == base_lines
        events = telemetry.load_trace(trace_dir)
        assert events, "an armed run must produce events"
        assert {e["name"] for e in events} >= {"campaign", "chunk.attempt"}

    def test_env_var_channel_is_equivalent(self, tmp_path, monkeypatch):
        spec = make_tiny_scenario()
        base_report, base_lines = _run_campaign(tmp_path, spec, tag="plain")
        trace_dir = tmp_path / "envtrace"
        monkeypatch.setenv(telemetry.TRACE_DIR_ENV_VAR, str(trace_dir))
        env_report, env_lines = _run_campaign(tmp_path, spec, tag="env")
        assert env_report == base_report
        assert env_lines == base_lines
        assert telemetry.load_trace(trace_dir)

    def test_scenario_hash_never_sees_telemetry(self):
        # The spec payload is the identity; telemetry is runner state.
        assert make_tiny_scenario().scenario_id == \
            make_tiny_scenario().scenario_id
        assert "telemetry" not in json.dumps(make_tiny_scenario().to_dict())

    def test_untraced_run_writes_no_trace_files(self, tmp_path):
        spec = make_tiny_scenario()
        _run_campaign(tmp_path, spec, tag="plain")
        assert not list(tmp_path.rglob("events-*.jsonl"))


class TestSpanCoverage:
    """The acceptance bound: spans cover ≥95% of run wall-clock."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_campaign_span_covers_wall_clock(self, tmp_path, jobs):
        spec = make_tiny_dynamics_scenario()
        store = ResultStore(tmp_path / "store")
        trace_dir = tmp_path / "trace"
        runner = CampaignRunner(store, jobs=jobs, telemetry=trace_dir)
        start = time.perf_counter()
        outcome = runner.run(spec)
        wall = time.perf_counter() - start
        assert outcome.status.complete
        spans = [e for e in telemetry.load_trace(trace_dir)
                 if e["event"] == "span" and e["name"] == "campaign"]
        assert len(spans) == 1
        assert spans[0]["dur"] >= 0.95 * wall


class TestEventSchema:
    def test_config_round_trip(self, tmp_path):
        config = TelemetryConfig(
            trace_dir=tmp_path, trace_id="tr-abc", context={"scenario": "x"}
        )
        restored = TelemetryConfig.from_dict(config.to_dict())
        assert restored.trace_dir == tmp_path
        assert restored.trace_id == "tr-abc"
        assert dict(restored.context) == {"scenario": "x"}

    def test_events_round_trip_through_sink(self, tmp_path):
        config = TelemetryConfig(trace_dir=tmp_path, context={"scenario": "s"})
        telemetry.install(config)
        with telemetry.span("outer", stage="demo"):
            telemetry.event("ping", detail=1)
            telemetry.counter("hits", 3)
            telemetry.phase("compile", 0.25, tables=7)
        telemetry.install(None)
        events = telemetry.load_trace(tmp_path)
        by_name = {e["name"]: e for e in events}
        assert set(by_name) == {"outer", "ping", "hits", "phase.compile"}
        for record in events:
            assert record["v"] == telemetry.TELEMETRY_SCHEMA_VERSION
            assert record["trace"] == config.trace_id
            assert record["attrs"]["scenario"] == "s"
        outer = by_name["outer"]
        assert outer["event"] == "span" and outer["dur"] >= 0.0
        assert by_name["hits"]["value"] == 3
        assert by_name["phase.compile"]["dur"] == 0.25
        # Nested events carry their parent span's id.
        assert by_name["ping"]["parent"] == outer["span"]
        assert by_name["phase.compile"]["parent"] == outer["span"]
        # seq gives a total order within the process's file.
        assert [e["seq"] for e in events] == sorted(e["seq"] for e in events)

    def test_span_records_exception_and_propagates(self, tmp_path):
        telemetry.install(TelemetryConfig(trace_dir=tmp_path))
        with pytest.raises(ValueError):
            with telemetry.span("doomed"):
                raise ValueError("boom")
        telemetry.install(None)
        (event,) = telemetry.load_trace(tmp_path)
        assert event["attrs"]["error"] == "ValueError"

    def test_disarmed_hooks_are_noops(self, tmp_path):
        assert not telemetry.armed()
        telemetry.event("ignored")
        telemetry.counter("ignored")
        telemetry.phase("ignored", 1.0)
        with telemetry.span("ignored") as attrs:
            attrs["also"] = "ignored"
        telemetry.set_context(chunk=3)
        assert not list(tmp_path.iterdir())

    def test_torn_final_line_is_skipped(self, tmp_path):
        telemetry.install(TelemetryConfig(trace_dir=tmp_path))
        telemetry.event("kept")
        telemetry.install(None)
        path = next(tmp_path.glob("events-*.jsonl"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"v":1,"event":"ev')  # no newline: torn
        events = telemetry.load_trace(tmp_path)
        assert [e["name"] for e in events] == ["kept"]

    def test_interior_garbage_is_refused(self, tmp_path):
        (tmp_path / "events-x-1.jsonl").write_text("garbage\n{}\n")
        with pytest.raises(ScenarioError):
            telemetry.load_trace(tmp_path)

    def test_unknown_schema_version_is_refused(self, tmp_path):
        (tmp_path / "events-x-1.jsonl").write_text(
            '{"v":999,"event":"event","name":"x"}\n'
        )
        with pytest.raises(ScenarioError):
            telemetry.load_trace(tmp_path)

    def test_missing_trace_dir_is_an_error(self, tmp_path):
        with pytest.raises(ScenarioError):
            telemetry.load_trace(tmp_path / "nope")


class TestPercentile:
    def test_nearest_rank_pins(self):
        values = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        assert telemetry.percentile(values, 0.50) == 0.5
        assert telemetry.percentile(values, 0.90) == 0.9
        assert telemetry.percentile(values, 0.99) == 1.0
        assert telemetry.percentile([7.0], 0.50) == 7.0

    def test_rejects_empty_and_bad_fraction(self):
        with pytest.raises(ScenarioError):
            telemetry.percentile([], 0.5)
        with pytest.raises(ScenarioError):
            telemetry.percentile([1.0], 0.0)
        with pytest.raises(ScenarioError):
            telemetry.percentile([1.0], 1.5)

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(
            st.floats(0, 1e6, allow_nan=False, allow_infinity=False),
            min_size=1, max_size=40,
        ),
        q=st.floats(0.01, 1.0),
    )
    def test_nearest_rank_properties(self, values, q):
        result = telemetry.percentile(values, q)
        # Always an element of the input…
        assert result in values
        # …monotone in q…
        assert result <= telemetry.percentile(values, 1.0) == max(values)
        # …and exactly the nearest-rank order statistic.
        ordered = sorted(values)
        import math
        assert result == ordered[max(1, math.ceil(q * len(ordered))) - 1]


def _synthetic_events():
    """A hand-built two-chunk trace with known aggregates."""
    def ev(kind, name, attrs, **extra):
        return {"v": 1, "event": kind, "name": name, "trace": "tr-syn",
                "pid": 1, "seq": len(out) + 1, "t": float(len(out)),
                "attrs": {"scenario": "syn", **attrs}, **extra}

    out = []
    out.append(ev("span", "campaign", {}, dur=10.0))
    out.append(ev("span", "chunk.attempt", {"ok": True, "tables": 50}, dur=2.0))
    out.append(ev("span", "chunk.attempt", {"ok": True, "tables": 50}, dur=3.0))
    out.append(ev("span", "chunk.attempt", {"ok": False}, dur=1.0))
    out.append(ev("span", "phase.compile", {}, dur=0.5))
    out.append(ev("span", "phase.simulate", {}, dur=1.5))
    out.append(ev("span", "phase.simulate", {}, dur=2.5))
    out.append(ev("span", "store.append", {}, dur=0.25))
    out.append(ev("span", "store.append", {}, dur=0.75))
    out.append(ev("counter", "store.cache_hit", {}, value=4))
    out.append(ev("counter", "store.cache_miss", {}, value=2))
    out.append(ev("counter", "store.dedup", {}, value=1))
    out.append(ev("event", "chunk.retry", {}))
    out.append(ev("event", "worker.crash", {}))
    out.append(ev("event", "chunk.timeout", {}))
    out.append(ev("event", "chunk.quarantine", {}))
    out.append(ev("event", "fault.injected", {"kind": "crash"}))
    return out


class TestSummarize:
    def test_synthetic_trace_aggregates_exactly(self):
        summary = telemetry.summarize(_synthetic_events())
        assert summary["format"] == telemetry.SUMMARY_FORMAT
        assert summary["traces"] == ["tr-syn"]
        syn = summary["scenarios"]["syn"]
        assert syn["campaigns"] == 1 and syn["wall_s"] == 10.0
        assert syn["chunks_ok"] == 2  # the ok=False attempt is excluded
        assert syn["tables"] == 100 and syn["attempt_s"] == 5.0
        assert syn["throughput_tables_per_s"] == 20.0
        assert syn["retries"] == 1 and syn["crashes"] == 1
        assert syn["timeouts"] == 1 and syn["chunks_failed"] == 1
        assert syn["faults_injected"] == 1
        assert syn["store"] == {
            "appends": 2, "cache_hits": 4, "cache_misses": 2, "dedup": 1,
            "total_s": 1.0, "p50_s": 0.25, "p90_s": 0.75, "p99_s": 0.75,
        }
        assert syn["phases"]["simulate"]["count"] == 2
        assert syn["phases"]["simulate"]["p50_s"] == 1.5
        assert syn["phases"]["compile"]["total_s"] == 0.5

    def test_render_summary_is_textual(self):
        text = telemetry.render_summary(
            telemetry.summarize(_synthetic_events())
        )
        assert "syn" in text and "tables/s" in text and "phase.simulate" in text


class TestGitMetadata:
    @pytest.mark.parametrize("porcelain,dirty", [("", False), (" M src/x.py", True)])
    def test_dirty_flag_reads_status_of_src(
        self, monkeypatch, porcelain, dirty
    ) -> None:
        calls = []

        def fake_run(argv, **kwargs):
            calls.append(argv)
            out = porcelain if argv[1] == "status" else "abc1234"
            return telemetry.subprocess.CompletedProcess(argv, 0, out, "")

        monkeypatch.setattr(telemetry.subprocess, "run", fake_run)
        meta = telemetry.git_metadata()
        assert meta == {"commit": "abc1234", "branch": "abc1234", "dirty": dirty}
        (status,) = [argv for argv in calls if argv[1] == "status"]
        assert status[2:4] == ("--porcelain", "--")
        assert Path(status[4]).name == "src"

    def test_unknown_without_git(self, monkeypatch) -> None:
        def no_git(argv, **kwargs):
            raise FileNotFoundError("git")

        monkeypatch.setattr(telemetry.subprocess, "run", no_git)
        assert set(telemetry.git_metadata().values()) == {"unknown"}


class TestBaseline:
    def _summary(self):
        return telemetry.summarize(_synthetic_events())

    def test_round_trip_and_fresh_gate_passes(self, tmp_path):
        summary = self._summary()
        path = telemetry.write_baseline(tmp_path / "b.json", summary)
        loaded = telemetry.load_baseline(path)
        assert loaded["format"] == telemetry.BASELINE_FORMAT
        assert set(loaded["git"]) == {"commit", "branch", "dirty"}
        ok, lines = telemetry.diff_baseline(summary, loaded, threshold=0.30)
        assert ok and any("ok" in line for line in lines)

    def test_throughput_regression_fails_the_gate(self, tmp_path):
        baseline = telemetry.make_baseline(self._summary())
        slower = self._summary()
        slower["scenarios"]["syn"]["throughput_tables_per_s"] /= 2  # 2× latency
        ok, lines = telemetry.diff_baseline(slower, baseline, threshold=0.30)
        assert not ok
        assert any("REGRESSION" in line for line in lines)

    def test_threshold_is_respected(self):
        baseline = telemetry.make_baseline(self._summary())
        slower = self._summary()
        slower["scenarios"]["syn"]["throughput_tables_per_s"] *= 0.8
        ok, _ = telemetry.diff_baseline(slower, baseline, threshold=0.30)
        assert ok  # 20% down is inside a 30% gate
        ok, _ = telemetry.diff_baseline(slower, baseline, threshold=0.10)
        assert not ok

    def test_missing_scenario_is_skipped_not_failed(self):
        baseline = telemetry.make_baseline(self._summary())
        empty = telemetry.summarize([])
        ok, lines = telemetry.diff_baseline(empty, baseline)
        assert ok and any("skipped" in line for line in lines)

    def test_derate_scales_the_floor(self):
        summary = self._summary()
        derated = telemetry.make_baseline(summary, derate=0.5)
        assert derated["metrics"]["syn"]["throughput_tables_per_s"] == 10.0
        with pytest.raises(ScenarioError):
            telemetry.make_baseline(summary, derate=0.0)

    def test_load_rejects_wrong_documents(self, tmp_path):
        with pytest.raises(ScenarioError):
            telemetry.load_baseline(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(ScenarioError):
            telemetry.load_baseline(bad)


class TestQuarantineDiagnostics:
    """Satellite 6: failure records explain their retry schedule."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_record_carries_retry_schedule(self, tmp_path, jobs):
        spec = make_tiny_scenario()
        plan = FaultPlan(seed=11, crash_chunks=(1,))
        policy = RetryPolicy(max_attempts=2, backoff_base=0.01)
        store = ResultStore(tmp_path / "store")
        runner = CampaignRunner(store, jobs=jobs, policy=policy, faults=plan)
        outcome = runner.run(spec)
        assert outcome.status.degraded
        details = runner.failure_details(spec)
        assert set(details) == {1}
        diagnostics = details[1]["diagnostics"]
        attempts = diagnostics["attempts"]
        assert [entry["attempt"] for entry in attempts] == [1, 2]
        # The recorded delay is the actual deterministic backoff.
        assert attempts[0]["delay"] == pytest.approx(
            backoff_delay(0.01, 1.0, 1, "chunk1", 11)
        )
        assert attempts[1]["delay"] is None  # budget exhausted
        assert all("WorkerCrashError" in entry["error"] for entry in attempts)
        assert diagnostics["policy"]["max_attempts"] == 2

    def test_status_dict_exposes_failures(self, tmp_path):
        spec = make_tiny_scenario()
        runner = CampaignRunner(
            ResultStore(tmp_path / "store"), jobs=1,
            policy=RetryPolicy(max_attempts=2, backoff_base=0.01),
            faults=FaultPlan(seed=11, crash_chunks=(2,)),
        )
        runner.run(spec)
        data = runner.status_dict(spec)
        assert data["degraded"] is True
        (failure,) = data["failures"]
        assert failure["chunk"] == 2
        assert failure["diagnostics"]["attempts"]
        json.dumps(data)  # JSON-ready end to end

    def test_retry_failed_clears_diagnosed_records(self, tmp_path):
        spec = make_tiny_scenario()
        store = ResultStore(tmp_path / "store")
        policy = RetryPolicy(max_attempts=2, backoff_base=0.01)
        plan = FaultPlan(seed=11, crash_chunks=(1,))
        CampaignRunner(store, jobs=1, policy=policy, faults=plan).run(spec)
        outcome = CampaignRunner(store, jobs=1, policy=policy).retry_failed(spec)
        assert outcome.status.complete
        assert CampaignRunner(store, jobs=1).failure_details(spec) == {}


class TestFaultTagging:
    def test_injected_faults_appear_in_trace(self, tmp_path):
        spec = make_tiny_scenario()
        runner = CampaignRunner(
            ResultStore(tmp_path / "store"), jobs=1,
            policy=RetryPolicy(max_attempts=3, backoff_base=0.01),
            faults=FaultPlan(seed=11, crash_chunks=(1,)),
            telemetry=tmp_path / "trace",
        )
        outcome = runner.run(spec)
        assert outcome.status.degraded
        events = telemetry.load_trace(tmp_path / "trace")
        injected = [e for e in events if e["name"] == "fault.injected"]
        assert injected and all(
            e["attrs"]["kind"] == "crash" for e in injected
        )
        names = {e["name"] for e in events}
        assert {"chunk.retry", "chunk.quarantine", "campaign.degraded"} <= names
        summary = telemetry.summarize(events)
        scenario = summary["scenarios"]["tiny"]
        assert scenario["faults_injected"] >= 1
        assert scenario["chunks_failed"] == 1


class TestCli:
    def _settled_trace(self, tmp_path, capsys):
        store = tmp_path / "store"
        trace = tmp_path / "trace"
        code = main([
            "campaign", "run", "thm51-single-n3",
            "--store", str(store), "--jobs", "2", "--trace-dir", str(trace),
        ])
        capsys.readouterr()
        assert code == 0
        return store, trace

    def test_analyze_json_and_baseline_gate(self, tmp_path, capsys):
        _store, trace = self._settled_trace(tmp_path, capsys)
        baseline = tmp_path / "baseline.json"
        assert main([
            "campaign", "analyze", str(trace),
            "--write-baseline", str(baseline),
        ]) == 0
        capsys.readouterr()
        # Fresh baseline: gate passes with --json (stdout stays JSON).
        assert main([
            "campaign", "analyze", str(trace), "--json",
            "--baseline", str(baseline),
        ]) == 0
        out = capsys.readouterr().out
        summary = json.loads(out)
        assert summary["format"] == telemetry.SUMMARY_FORMAT
        assert summary["scenarios"]["thm51-single-n3"]["tables"] == 256
        # Doctored trace (2× latencies): the gate must fail.
        for path in trace.glob("events-*.jsonl"):
            doubled = []
            for line in path.read_text().splitlines():
                record = json.loads(line)
                if "dur" in record:
                    record["dur"] *= 2
                doubled.append(json.dumps(record, sort_keys=True))
            path.write_text("\n".join(doubled) + "\n")
        assert main([
            "campaign", "analyze", str(trace), "--baseline", str(baseline),
        ]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_status_json_is_machine_readable(self, tmp_path, capsys):
        store, _trace = self._settled_trace(tmp_path, capsys)
        assert main([
            "campaign", "status", "thm51-single-n3",
            "--store", str(store), "--json",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["complete"] is True and data["all_trapped"] is True

    def test_report_json_flag_emits_identical_bytes(self, tmp_path, capsys):
        store, _trace = self._settled_trace(tmp_path, capsys)
        assert main([
            "campaign", "report", "thm51-single-n3", "--store", str(store),
        ]) == 0
        plain = capsys.readouterr().out
        assert main([
            "campaign", "report", "thm51-single-n3",
            "--store", str(store), "--json",
        ]) == 0
        assert capsys.readouterr().out == plain
        json.loads(plain)

    def test_analyze_unknown_dir_is_usage_error(self, tmp_path, capsys):
        assert main(["campaign", "analyze", str(tmp_path / "nope")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_retry_failed_explains_poisoning(self, tmp_path, capsys, monkeypatch):
        store = tmp_path / "store"
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN", json.dumps({"seed": 11, "crash_chunks": [5]})
        )
        code = main([
            "campaign", "run", "thm51-single-n3", "--store", str(store),
            "--jobs", "1", "--max-attempts", "2",
        ])
        capsys.readouterr()
        assert code == 4  # degraded
        monkeypatch.delenv("REPRO_FAULT_PLAN")
        code = main([
            "campaign", "retry-failed", "thm51-single-n3",
            "--store", str(store), "--jobs", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "chunk 5 was quarantined after 2 attempts" in out
        assert "attempt 1:" in out and "backed off" in out
        assert "retry budget exhausted" in out
