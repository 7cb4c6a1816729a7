"""Process plumbing shared by the timed and the traced runs.

:class:`Runner` spawns every measured command under a fresh
``reaper.py`` (so CPU and peak RSS cover the whole process tree) with a
pinned environment:

* ``PYTHONPATH`` is the checkout's ``src`` — the program runs from source;
* bytecode is cached under ``.perfbench/pycache`` (``PYTHONPYCACHEPREFIX``),
  so imports read cached bytecode as an installed package would, and
  nothing is written outside the checkout;
* ambient telemetry and fault-injection variables are removed, so a run
  measures the program and nothing armed around it.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REAPER = HERE / "reaper.py"

#: Per-command limit; the reaper kills a tree that outlives it.
COMMAND_TIMEOUT_S = 150.0

#: ``AF_UNIX`` paths are capped at 107 bytes; ``multiprocessing`` puts a
#: ~32-byte ``pymp-*/listener-*`` tail under ``TMPDIR``.
_MAX_TMPDIR_LEN = 70

_AMBIENT_VARS = ("REPRO_TRACE_DIR", "REPRO_FAULT_PLAN", "PYTHONDONTWRITEBYTECODE")


def source_present() -> bool:
    """Whether the checkout holds the program's source."""
    return (SRC / "repro" / "__init__.py").is_file()


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def bench_env(work: Path = WORK) -> dict[str, str]:
    """The environment every benchmark process runs under (see above)."""
    env = dict(os.environ)
    for var in _AMBIENT_VARS:
        env.pop(var, None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(work / "pycache")
    tmp = work / "tmp"
    if len(str(tmp)) <= _MAX_TMPDIR_LEN:
        env["TMPDIR"] = str(tmp)
    return env


class Runner:
    """Spawns commands under the reaper and collects their accounts."""

    def __init__(self, work: Path = WORK) -> None:
        self.python = sys.executable
        self.work = work
        self.env = bench_env(work)
        (work / "tmp").mkdir(parents=True, exist_ok=True)
        self._seq = 0

    def run(self, argv: Sequence[str], out_dir: Path) -> dict:
        """Run one command to completion; return the reaper's account.

        The account carries ``wall_s``, ``exit_code``, ``cpu_s`` (whole
        tree), ``maxrss_mb`` (largest process of the tree) and
        ``stdout`` (stdout and stderr, merged).
        """
        out_dir.mkdir(parents=True, exist_ok=True)
        self._seq += 1
        account_path = out_dir / f"cmd{self._seq}.account.json"
        output_path = out_dir / f"cmd{self._seq}.out"
        with open(output_path, "wb") as output:
            subprocess.run(
                [self.python, str(REAPER), str(account_path),
                 str(COMMAND_TIMEOUT_S), "--", *argv],
                stdout=output, stderr=subprocess.STDOUT, env=self.env,
                cwd=ROOT, check=True, timeout=3 * COMMAND_TIMEOUT_S,
            )
        account = json.loads(account_path.read_text("utf-8"))
        account["stdout"] = output_path.read_text("utf-8", errors="replace")
        return account

    def warm_up(self, out_dir: Path) -> None:
        """Import the CLI once so later processes read cached bytecode."""
        account = self.run([self.python, "-c", "import repro.cli"], out_dir)
        if account["exit_code"] != 0:
            raise RuntimeError(
                f"cannot import the program from {SRC}:\n{account['stdout']}"
            )


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """sha256 over every file under ``src`` (path and bytes), 16 hex chars.

    Identifies the measured code even where there is no git metadata.
    """
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode("utf-8") + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(package: str) -> Optional[str]:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def context(workload: str, seed: int, start_method: Optional[str],
            trace: bool, scale: str) -> dict:
    """What a result record needs to sit on a trajectory across commits."""
    return {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "commit": _git_commit(),
        "source_sha256": source_digest(),
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "platform": platform.platform(),
        },
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "workload": workload,
        "seed": seed,
        "start_method": start_method,
        "trace": trace,
        "scale": scale,
    }


def append_history(record: dict) -> Path:
    """Append one result record to ``.perfbench/history.jsonl``."""
    path = WORK / "history.jsonl"
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return path
