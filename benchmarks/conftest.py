"""Shared helpers for the benchmark harness.

Every benchmark regenerates one paper artifact (Table 1 or a figure
construction) or one extension experiment, and writes its reproduced
table/report to ``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can be
cross-checked against fresh runs. Benchmarks use
``benchmark.pedantic(..., rounds=1)`` where a single execution is the
meaningful unit (end-to-end experiments), and normal calibrated timing for
micro-benchmarks (engine/solver throughput).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

ARTIFACT_SCHEMA_VERSION = 2
"""Version stamped on every benchmark artifact this harness writes.

v1 artifacts were bare renders with ad-hoc naming; v2 artifacts carry a
provenance header (text) or top-level ``schema``/``git`` keys (JSON), so
a checked-in result can always be traced to the commit that produced it.
"""


def artifact_provenance() -> dict:
    """Git commit/branch/dirty flag of the tree writing an artifact."""
    # The telemetry module owns the one git-stamping helper; benchmarks
    # reuse it so every artifact format carries identical provenance.
    import sys

    src = str(Path(__file__).parent.parent / "src")
    if src not in sys.path:  # direct pytest benchmarks/ invocation
        sys.path.insert(0, src)
    from repro.telemetry import git_metadata

    return git_metadata()


@pytest.fixture
def timed_best_of():
    """Best-of-N wall timer for one callable (reduces scheduler noise).

    Shared by every packed-vs-object benchmark so their timings feed the
    common ``BENCH_sweeps.json`` snapshot through one methodology.
    """

    def timed(fn, repeats: int = 3):
        best = None
        result = None
        for _ in range(repeats):
            start = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
        return result, best

    return timed


@pytest.fixture
def merge_bench_sweeps(results_dir: Path):
    """Merge entries into ``BENCH_sweeps.json``, replacing only their sweeps.

    Several benchmark files contribute entries to the one snapshot; each
    writer must replace its own sweep names and preserve everyone else's,
    so re-running a single file never silently drops the others' numbers.
    """

    def merge(entries: list[dict]) -> Path:
        snapshot = results_dir / "BENCH_sweeps.json"
        owned = {entry["sweep"] for entry in entries}
        existing = []
        if snapshot.exists():
            existing = [
                entry
                for entry in json.loads(snapshot.read_text())["entries"]
                if entry.get("sweep") not in owned
            ]
        snapshot.write_text(
            json.dumps(
                {
                    "schema": ARTIFACT_SCHEMA_VERSION,
                    "git": artifact_provenance(),
                    "entries": existing + entries,
                },
                indent=2,
            )
            + "\n"
        )
        return snapshot

    return merge


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """The directory where benchmarks drop their reproduced artifacts."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save_artifact(results_dir: Path):
    """Write a named artifact file and echo it to stdout.

    The one writer every benchmark's text artifact goes through: each
    file opens with a provenance header naming the artifact schema
    version and the git commit/branch that produced it, marked
    ``dirty`` when ``src`` differed from that commit (the rendered
    content below the header is what EXPERIMENTS.md cross-checks).
    """
    provenance = artifact_provenance()
    dirty = ", dirty" if provenance["dirty"] is True else ""
    header = (
        f"# repro-bench-artifact v{ARTIFACT_SCHEMA_VERSION}\n"
        f"# git: {provenance['commit']} ({provenance['branch']}{dirty})\n"
    )

    def save(name: str, content: str) -> Path:
        path = results_dir / f"{name}.txt"
        path.write_text(header + content + "\n")
        print(f"\n===== {name} =====")
        print(content)
        return path

    return save
