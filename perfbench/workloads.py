"""The benchmark's workloads: what each invocation runs and how it is checked.

Every workload is a list of CLI invocations (run in sequence, each in its
own process tree) plus the checks that decide whether their outputs are
correct. An *operation* — the unit ``attempted``/``failed`` count — is a
campaign chunk or a verified instance.

Campaigns go through ``entry.py`` so the start method is pinned and a
generated (seeded) scenario reaches the CLI through argv and the
scenario registry; ``pef3-verify`` calls ``python -m repro`` directly.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ENTRY = HERE / "entry.py"

JOBS = 2

#: sha256 of the ``thm41-two-n4`` report bytes (65,536/65,536 trapped).
THM41_REPORT_SHA256 = (
    "28d0761a147c204f3bde8e319dc2a414f23f7b15bd0733677cde4b63a58af8bd"
)

WORKLOAD_NAMES = ("thm41-full", "sim-tinterval-n6", "pef3-verify", "n5-forkserver")


@dataclass
class CheckResult:
    """Outcome of the checks on one workload: failed operations and why."""

    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, ops: int, problem: str) -> None:
        self.failed += ops
        self.problems.append(problem)

    def add(self, other: "CheckResult") -> None:
        self.failed += other.failed
        self.problems += other.problems


def tally(spec, index: int, backend: str) -> tuple:
    """``(total, trapped, explorers, states)`` of one chunk, in-process."""
    chunk = spec.chunks()[index]
    if spec.dynamics == "highly-dynamic":
        from repro.verification.sweeps import sweep_chunk

        outcome = sweep_chunk(
            spec.robots.family, spec.n, chunk, backend=backend,
            starts=spec.starts, prop=spec.prop, scheduler=spec.scheduler,
        )
    else:
        from repro.scenarios.simulate import simulate_chunk

        outcome = simulate_chunk(spec, chunk, backend=backend)
    total, trapped, explorers, states = outcome
    return total, trapped, list(explorers), states


def _report_problems(report: dict, spec, expect_all_trapped: bool) -> list[str]:
    """Everything wrong with a campaign report, as readable strings."""
    problems = []
    if report.get("format") != "campaign-report":
        problems.append("not a campaign report")
    if report.get("scenario_id") != spec.scenario_id:
        problems.append(f"report is for scenario {report.get('scenario_id')}")
    if report.get("degraded") or report.get("failed_chunks"):
        problems.append("report is degraded")
    if report.get("chunks") != spec.chunk_count:
        problems.append(f"report has {report.get('chunks')} chunks")
    total = report.get("total")
    if total != spec.table_count:
        problems.append(f"report totals {total} of {spec.table_count} tables")
    trapped = report.get("trapped", -1)
    explorers = report.get("explorers", [])
    if trapped + len(explorers) != total:
        problems.append("trapped + explorers != total")
    if expect_all_trapped and not (report.get("all_trapped") and trapped == total):
        problems.append(f"expected all trapped, got {trapped}/{total}")
    return problems


class CampaignWorkload:
    """One ``campaign run`` per repetition, on a cold store."""

    kind = "campaign"

    def __init__(
        self,
        name: str,
        spec,
        start_method: str,
        expect_all_trapped: bool,
        pinned_sha256: Optional[str] = None,
        retally: bool = False,
        fork_twin: bool = False,
    ) -> None:
        self.name = name
        self.spec = spec
        self.start_method = start_method
        self.expect_all_trapped = expect_all_trapped
        self.pinned_sha256 = pinned_sha256
        self.retally = retally
        self.fork_twin = fork_twin
        self.ops_per_rep = spec.chunk_count
        self.tables_per_rep = spec.table_count
        self._first_report: Optional[bytes] = None

    def _argv(self, python: str, store: Path, start_method: str,
              trace_dir: Optional[Path] = None) -> list[str]:
        from repro.scenarios import scenario_names

        argv = [python, str(ENTRY), "--start-method", start_method]
        if self.spec.name not in scenario_names():
            argv += ["--spec", json.dumps(self.spec.to_dict(), sort_keys=True)]
        argv += ["--", "campaign", "run", self.spec.name,
                 "--store", str(store), "--jobs", str(JOBS)]
        if trace_dir is not None:
            argv += ["--trace-dir", str(trace_dir)]
        return argv

    def invocations(self, python: str, rep_dir: Path,
                    trace_dir: Optional[Path] = None) -> list[list[str]]:
        """The timed command(s) of one repetition."""
        return [self._argv(python, rep_dir / "store", self.start_method, trace_dir)]

    def setup_invocation(self, python: str, rep_dir: Path) -> list[str]:
        """The same command with no work left: a cache-hit rerun."""
        return self._argv(python, rep_dir / "store", self.start_method)

    def report_path(self, rep_dir: Path) -> Path:
        from repro.scenarios import ResultStore

        return ResultStore(rep_dir / "store").report_path(self.spec)

    def check_rep(self, rep_dir: Path, results: list[dict]) -> CheckResult:
        """Exit code, report soundness, quarantined chunks, report bytes."""
        from repro.scenarios import ResultStore, is_failure_record

        check = CheckResult()
        ops = self.ops_per_rep
        code = results[0]["exit_code"]
        if code != 0:
            check.fail(ops, f"campaign exited {code}")
            return check
        path = self.report_path(rep_dir)
        if not path.exists():
            check.fail(ops, "no report written")
            return check
        data = path.read_bytes()
        problems = _report_problems(
            json.loads(data), self.spec, self.expect_all_trapped
        )
        if self.pinned_sha256 is not None:
            digest = hashlib.sha256(data).hexdigest()
            if digest != self.pinned_sha256:
                problems.append(f"report sha256 {digest} != pinned")
        elif self._first_report is None:
            self._first_report = data
        elif data != self._first_report:
            problems.append("report bytes differ between repetitions")
        if problems:
            check.fail(ops, "; ".join(problems))
            return check
        records = ResultStore(rep_dir / "store").load_records(self.spec)
        quarantined = sum(1 for r in records.values() if is_failure_record(r))
        if quarantined:
            check.fail(quarantined, f"{quarantined} chunks quarantined")
        return check

    def retally_chunks(self, seed: int) -> list[int]:
        """Two seeded-random chunk indices to re-tally in-process."""
        count = self.spec.chunk_count
        return sorted(random.Random(seed).sample(range(count), min(2, count)))

    def check_final(self, python: str, rep_dir: Path, seed: int,
                    run_untimed) -> CheckResult:
        """Checks run once per benchmark run, on the last repetition's store.

        ``run_untimed(argv)`` runs a command outside the timed interval
        and returns its account.
        """
        from repro.scenarios import ResultStore

        check = CheckResult()
        if self.retally:
            records = ResultStore(rep_dir / "store").load_records(self.spec)
            for index in self.retally_chunks(seed):
                record = records.get(index)
                if record is None:
                    check.fail(1, f"chunk {index} missing from the store")
                    continue
                stored = (record.get("total"), record.get("trapped"),
                          list(record.get("explorers", [])), record.get("states"))
                if tally(self.spec, index, "packed") != stored:
                    check.fail(1, f"chunk {index}: packed re-tally != stored record")
        if self.fork_twin:
            twin_dir = rep_dir / "fork-twin"
            account = run_untimed(self._argv(python, twin_dir / "store", "fork"))
            twin = self.report_path(twin_dir)
            ours = self.report_path(rep_dir)
            if account["exit_code"] != 0 or not twin.exists():
                check.fail(self.ops_per_rep, "fork twin run failed")
            elif twin.read_bytes() != ours.read_bytes():
                check.fail(
                    self.ops_per_rep,
                    f"{self.start_method} report bytes != fork report bytes",
                )
        return check


@dataclass(frozen=True)
class VerifyInstance:
    algo: str
    n: int
    k: int
    verdict_line: str
    save: bool = False


class VerifyWorkload:
    """Sequential ``verify`` invocations, one product graph each."""

    kind = "verify"
    start_method = None

    def __init__(self, name: str, instances: tuple[VerifyInstance, ...]) -> None:
        self.name = name
        self.instances = instances
        self.ops_per_rep = len(instances)
        self.tables_per_rep = len(instances)

    @staticmethod
    def cert_path(rep_dir: Path, inst: VerifyInstance) -> Path:
        return rep_dir / f"{inst.algo}-n{inst.n}.cert.json"

    def invocations(self, python: str, rep_dir: Path,
                    trace_dir: Optional[Path] = None) -> list[list[str]]:
        out = []
        for inst in self.instances:
            argv = [python, "-m", "repro", "verify", "--algo", inst.algo,
                    "--n", str(inst.n), "--k", str(inst.k)]
            if inst.save:
                argv += ["--save", str(self.cert_path(rep_dir, inst))]
            out.append(argv)
        return out

    def setup_invocation(self, python: str, rep_dir: Path) -> list[str]:
        """Full CLI import with no solve."""
        return [python, "-m", "repro", "algos"]

    def check_rep(self, rep_dir: Path, results: list[dict]) -> CheckResult:
        check = CheckResult()
        for inst, result in zip(self.instances, results):
            label = f"{inst.algo} n={inst.n}"
            if result["exit_code"] != 0:
                check.fail(1, f"{label}: exited {result['exit_code']}")
                continue
            lines = result["stdout"].splitlines()
            first = lines[0] if lines else ""
            if not first.startswith(inst.verdict_line):
                check.fail(1, f"{label}: verdict line {first!r}")
            elif inst.save and not self.cert_path(rep_dir, inst).exists():
                check.fail(1, f"{label}: certificate not saved")
        return check

    def check_final(self, python: str, rep_dir: Path, seed: int,
                    run_untimed) -> CheckResult:
        """The saved certificates replay through the independent checker."""
        from repro.errors import ReproError
        from repro.robots.algorithms import get_algorithm
        from repro.serialize import loads
        from repro.verification.certificates import validate_certificate

        check = CheckResult()
        for inst in self.instances:
            if not inst.save:
                continue
            path = self.cert_path(rep_dir, inst)
            try:
                cert = loads(path.read_text("utf-8"))
                validate_certificate(cert, get_algorithm(inst.algo))
            except (OSError, ValueError, KeyError, ReproError) as exc:
                check.fail(1, f"{inst.algo} certificate does not replay: {exc}")
        return check


def build(name: str, seed: int, scale: str = "full"):
    """The workload ``name`` with its inputs generated from ``seed``."""
    from repro.scenarios import RobotClassSpec, ScenarioSpec, get_scenario

    small = scale == "small"
    if name == "thm41-full":
        if small:
            spec = ScenarioSpec(
                name="thm41-sample-n4",
                description=f"benchmark: Theorem 4.1 sample, seed {seed}",
                robots=RobotClassSpec(family="two", sample=2048, rng_seed=seed),
                n=4, chunk_size=256,
            )
            return CampaignWorkload(name, spec, "fork", expect_all_trapped=True)
        return CampaignWorkload(
            name, get_scenario("thm41-two-n4"), "fork",
            expect_all_trapped=True, pinned_sha256=THM41_REPORT_SHA256,
        )
    if name == "sim-tinterval-n6":
        spec = ScenarioSpec(
            name="sim-tinterval-n6",
            description=f"benchmark: T-interval-connected 6-ring, seed {seed}",
            robots=RobotClassSpec(
                family="two", sample=1024 if small else 16384, rng_seed=seed
            ),
            n=6, dynamics="t-interval", dynamics_params={"T": 3},
            dynamics_seed=seed, horizon=120,
            chunk_size=256 if small else 512,
        )
        return CampaignWorkload(name, spec, "fork", expect_all_trapped=False,
                                retally=True)
    if name == "n5-forkserver":
        spec = ScenarioSpec(
            name="n5-forkserver",
            description=f"benchmark: Theorem 4.1 sample on the 5-ring, seed {seed}",
            robots=RobotClassSpec(
                family="two", sample=512 if small else 4096, rng_seed=seed
            ),
            n=5, chunk_size=128 if small else 256,
        )
        return CampaignWorkload(name, spec, "forkserver", expect_all_trapped=True,
                                retally=True, fork_twin=True)
    if name == "pef3-verify":
        if small:
            instances = (
                VerifyInstance("pef3+", 5, 3,
                               "pef3+ k=3 n=5: EXPLORES (8160 states, "
                               "165600 transitions)"),
                VerifyInstance("pef3+-always-turn", 5, 3,
                               "pef3+-always-turn k=3 n=5: TRAPPED (1520 "
                               "states, 21680 transitions)", save=True),
            )
        else:
            instances = (
                VerifyInstance("pef3+", 8, 3,
                               "pef3+ k=3 n=8: EXPLORES (40320 states, "
                               "1396992 transitions)"),
                VerifyInstance("pef3+-always-turn", 9, 3,
                               "pef3+-always-turn k=3 n=9: TRAPPED (7632 "
                               "states, 207216 transitions)", save=True),
            )
        return VerifyWorkload(name, instances)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOAD_NAMES}")
