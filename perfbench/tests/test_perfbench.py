"""Tests of the benchmark itself: metric names, correctness checks, reaper.

Each workload runs once at ``--scale small``; the checks are then fed
tampered reports, wrong tallies and broken certificates and must trip.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.scenarios import CampaignRunner, ResultStore  # noqa: E402
from repro.scenarios.store import canonical_line, seal_record  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def _bench(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace),
         "--scale", "small"],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        run.E2E_METRICS
    )
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(
        layers.PER_LAYER
    )
    assert SPEC["paths"] == ["perfbench"]


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_timed_run_reports_every_end_to_end_metric(workload):
    stdout, result = _bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == dict(run.E2E_METRICS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "failed_frac" in stdout


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_traced_run_reports_every_per_layer_metric(workload):
    _, result = _bench(workload, trace=1)
    assert result["correct"] is True
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {name: unit for name, unit, _ in layers.PER_LAYER}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    used = {
        "thm41-full": ("store.appends", "campaign.run_s", "solver.scc_s",
                       "solver.chunk_cold_s", "solver.states"),
        "sim-tinterval-n6": ("store.appends", "campaign.run_s", "sim.gather_s",
                             "sim.chunk_cold_s", "sim.tables_per_s"),
        "pef3-verify": ("kernel.reachable_s", "kernel.transitions",
                        "certificate.validate_s"),
        "n5-forkserver": ("campaign.worker_start_s", "campaign.workers_spawned",
                          "solver.frontier_s"),
    }[workload]
    assert values["startup.import_s"] > values["startup.interp_s"] > 0
    assert values["startup.import_numpy_s"] > 0
    for name in used:
        assert values[name] > 0, name
    if workload == "pef3-verify":
        assert values["kernel.states"] == 8160
        assert values["kernel.transitions"] == 165600


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "thm41-full",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ----------------------------------------------------------------------
# The correctness checks trip on bad outputs
# ----------------------------------------------------------------------
@pytest.fixture
def campaign(tmp_path):
    """A finished small ``n5-forkserver`` campaign (4 chunks), in-process."""
    workload = workloads.build("n5-forkserver", 3, "small")
    CampaignRunner(ResultStore(tmp_path / "store"), jobs=1).run(workload.spec)
    return workload, tmp_path


OK = [{"exit_code": 0}]


def test_tampered_report_trips_the_check(campaign):
    workload, rep_dir = campaign
    path = workload.report_path(rep_dir)
    report = json.loads(path.read_text("utf-8"))
    report["trapped"] -= 1
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", "utf-8")
    check = workload.check_rep(rep_dir, OK)
    assert check.failed == workload.ops_per_rep
    assert check.problems


def test_report_bytes_against_a_pin(campaign):
    workload, rep_dir = campaign
    path = workload.report_path(rep_dir)
    workload.pinned_sha256 = hashlib.sha256(path.read_bytes()).hexdigest()
    assert workload.check_rep(rep_dir, OK).failed == 0
    path.write_bytes(path.read_bytes() + b"\n")
    assert workload.check_rep(rep_dir, OK).failed == workload.ops_per_rep


def test_report_bytes_must_repeat(campaign):
    workload, rep_dir = campaign
    assert workload.check_rep(rep_dir, OK).failed == 0
    path = workload.report_path(rep_dir)
    path.write_bytes(path.read_bytes().replace(b'"version": 1', b'"version":  1'))
    assert workload.check_rep(rep_dir, OK).failed == workload.ops_per_rep


def test_unexpected_exit_code_fails_every_chunk(campaign):
    workload, rep_dir = campaign
    check = workload.check_rep(rep_dir, [{"exit_code": 4}])
    assert check.failed == workload.ops_per_rep


def test_wrong_stored_tally_trips_the_retally(campaign):
    workload, rep_dir = campaign
    workload.fork_twin = False
    assert workload.check_final("unused", rep_dir, 3, None).failed == 0
    store = ResultStore(rep_dir / "store")
    records = store.load_records(workload.spec)
    index = workload.retally_chunks(3)[0]
    bad = dict(records[index])
    bad["states"] += 1
    records[index] = seal_record(bad)
    store.chunks_path(workload.spec).write_text(
        "".join(canonical_line(records[i]) + "\n" for i in sorted(records)),
        "utf-8",
    )
    check = workload.check_final("unused", rep_dir, 3, None)
    assert check.failed == 1
    assert "re-tally" in check.problems[0]


def test_verify_checks_trip_on_a_wrong_verdict_and_a_broken_certificate(tmp_path):
    workload = workloads.build("pef3-verify", 1, "small")
    big, trap = workload.instances
    good = [
        {"exit_code": 0, "stdout": big.verdict_line + "\n"},
        {"exit_code": 0, "stdout": trap.verdict_line + " — trap\n"},
    ]
    subprocess.run(
        [sys.executable, "-m", "repro", "verify", "--algo", trap.algo,
         "--n", str(trap.n), "--k", str(trap.k),
         "--save", str(workload.cert_path(tmp_path, trap))],
        check=True, capture_output=True, timeout=120,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
    )
    assert workload.check_rep(tmp_path, good).failed == 0
    assert workload.check_final("unused", tmp_path, 1, None).failed == 0

    wrong = [dict(good[0], stdout=big.verdict_line.replace("8160", "8161")),
             good[1]]
    assert workload.check_rep(tmp_path, wrong).failed == 1

    path = workload.cert_path(tmp_path, trap)
    cert = json.loads(path.read_text("utf-8"))
    cert["cycle"] = cert["cycle"][:-1]
    path.write_text(json.dumps(cert), "utf-8")
    check = workload.check_final("unused", tmp_path, 1, None)
    assert check.failed == 1


# ----------------------------------------------------------------------
# The reaper accounts for orphans
# ----------------------------------------------------------------------
def test_reaper_counts_cpu_of_orphaned_descendants(tmp_path):
    script = textwrap.dedent(
        """
        import os, time
        if os.fork() == 0:
            end = time.process_time() + 0.4
            while time.process_time() < end:
                pass
            os._exit(0)
        """
    )
    out = tmp_path / "account.json"
    subprocess.run(
        [sys.executable, str(BENCH / "reaper.py"), str(out), "60", "--",
         sys.executable, "-c", script],
        check=True, timeout=120,
    )
    account = json.loads(out.read_text("utf-8"))
    assert account["exit_code"] == 0
    assert account["reaped"] == 2
    # The parent exits at once; the orphan's 0.4 s of CPU is still counted.
    assert account["cpu_s"] >= 0.35
    assert account["wall_s"] < account["cpu_s"]
    assert account["maxrss_mb"] > 0
