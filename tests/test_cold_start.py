"""Start-up pays only for the command being run.

The package inits resolve their exports lazily (PEP 562), the CLI
imports each verb's layers inside that verb, and the kernel modules
arrive only when a kernel runs. The library loads no NumPy until then;
the CLI entry point imports NumPy itself. Import state is per process,
so every guard below runs its command in a fresh interpreter.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.scenarios
import repro.verification
from repro import telemetry
from repro.verification.sweeps import KERNEL_MODULES, preload_kernels

SRC = Path(repro.__file__).resolve().parent.parent
SCENARIO = "thm51-single-n3"
KERNELS = set(KERNEL_MODULES)


def _run_python(code: str, *args: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON line last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    env.pop("REPRO_TRACE_DIR", None)
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, check=True, timeout=180, capture_output=True, text=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


# Prints which modules the command left loaded.
_LOADED = """
import json, sys
print(json.dumps({
    "numpy": "numpy" in sys.modules,
    "repro": sorted(m for m in sys.modules if m.split(".")[0] == "repro"),
}))
"""


def _after(statement: str, *args: str) -> dict:
    return _run_python(statement + "\n" + _LOADED, *args)


def _campaign(action: str, store: Path, *extra: str) -> str:
    return (
        "from repro.cli import main\n"
        f"code = main(['campaign', {action!r}, {SCENARIO!r}, "
        f"'--store', {str(store)!r}, '--jobs', '2', *{list(extra)!r}])\n"
        "assert code == 0, code\n"
    )


@pytest.fixture(scope="module")
def completed_store(tmp_path_factory) -> Path:
    """A store on which ``thm51-single-n3`` has already run to completion."""
    from repro.scenarios import CampaignRunner, ResultStore, get_scenario

    store = tmp_path_factory.mktemp("cold") / "store"
    outcome = CampaignRunner(ResultStore(store), jobs=1).run(
        get_scenario(SCENARIO)
    )
    assert outcome.status.complete
    return store


class TestNoKernelUntilOneRuns:
    def test_import_cli_loads_no_layer(self) -> None:
        assert _after("import repro.cli")["repro"] == [
            "repro", "repro.cli", "repro.errors",
            "repro.verification", "repro.verification.backends",
        ]

    def test_library_namespaces_load_no_numpy(self) -> None:
        loaded = _after("import repro, repro.verification, repro.scenarios")
        assert not loaded["numpy"]

    def test_import_errors_loads_only_errors(self) -> None:
        loaded = _after("import repro.errors")
        assert not loaded["numpy"]
        assert loaded["repro"] == ["repro", "repro.errors"]

    def test_algos(self) -> None:
        loaded = _after(
            "from repro.cli import main\nassert main(['algos']) == 0"
        )
        assert not KERNELS & set(loaded["repro"])

    def test_campaign_status(self, completed_store: Path) -> None:
        loaded = _after(_campaign("status", completed_store))
        assert not KERNELS & set(loaded["repro"])

    def test_cache_hit_campaign_run(self, completed_store: Path) -> None:
        loaded = _after(_campaign("run", completed_store))
        assert not KERNELS & set(loaded["repro"])

    def test_cache_hit_library_run_loads_no_numpy(
        self, completed_store: Path
    ) -> None:
        loaded = _after(
            "from repro.scenarios import CampaignRunner, ResultStore, "
            "get_scenario\n"
            f"store = ResultStore({str(completed_store)!r})\n"
            f"outcome = CampaignRunner(store, jobs=2).run(get_scenario({SCENARIO!r}))\n"
            "assert outcome.status.complete\n"
        )
        assert not loaded["numpy"]
        assert not KERNELS & set(loaded["repro"])


@pytest.mark.parametrize(
    "package", [repro, repro.verification, repro.scenarios],
    ids=lambda package: package.__name__,
)
class TestLazyNamespaces:
    def test_exports_resolve_to_their_defining_objects(self, package) -> None:
        for name in package.__all__:
            target = package._EXPORTS.get(name)
            if target is None:  # defined eagerly in the package itself
                assert name in vars(package), name
                continue
            module, _, attribute = target.partition(":")
            defined = importlib.import_module(module)
            assert getattr(package, name) is getattr(
                defined, attribute or name
            ), name

    def test_lazy_map_matches_all(self, package) -> None:
        eager = {name for name in package.__all__ if name.startswith("__")}
        assert set(package._EXPORTS) == set(package.__all__) - eager

    def test_star_import_and_dir(self, package) -> None:
        namespace: dict = {}
        exec(f"from {package.__name__} import *", namespace)
        assert set(package.__all__) <= set(namespace)
        assert set(package.__all__) <= set(dir(package))

    def test_unknown_name_raises_attribute_error(self, package) -> None:
        with pytest.raises(AttributeError, match="no_such_export"):
            package.no_such_export  # noqa: B018


class _ForkserverContext:
    """Stands in for a ``forkserver`` multiprocessing context."""

    preload = None

    def get_start_method(self) -> str:
        return "forkserver"

    def set_forkserver_preload(self, names) -> None:
        self.preload = list(names)


class TestKernelPreload:
    def test_forkserver_preloads_worker_module_and_kernels(self) -> None:
        ctx = _ForkserverContext()
        preload_kernels(ctx, "repro.scenarios.campaign")
        assert ctx.preload == [
            "__main__", "repro.scenarios.campaign", *KERNEL_MODULES,
        ]


# Runs SCENARIO with work pending under the start method named on argv,
# then reports which kernels the supervisor process itself holds.
# Guarded: spawn/forkserver children must not re-run it.
_START_METHOD_RUN = """
import json, multiprocessing, sys
from repro.cli import main
if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    code = main(["campaign", "run", sys.argv[2], "--store", sys.argv[3],
                 "--jobs", "2"])
    assert code == 0, code
    print(json.dumps({
        "numpy": "numpy" in sys.modules,
        "repro": sorted(m for m in sys.modules if m.split(".")[0] == "repro"),
    }))
"""


class TestSupervisor:
    def test_cache_hit_run_starts_no_worker(
        self, completed_store: Path, tmp_path: Path
    ) -> None:
        trace = tmp_path / "trace"
        loaded = _after(
            _campaign("run", completed_store, "--trace-dir", str(trace))
        )
        assert not KERNELS & set(loaded["repro"])
        events = telemetry.load_trace(trace)
        assert events, "the rerun was not traced"
        assert [e for e in events if e["name"] == "worker.spawn"] == []

    def test_reports_identical_under_every_start_method(
        self, tmp_path: Path
    ) -> None:
        from repro.scenarios import ResultStore, get_scenario

        spec = get_scenario(SCENARIO)
        methods = [
            method
            for method in ("fork", "forkserver", "spawn")
            if method in multiprocessing.get_all_start_methods()
        ]
        reports = {}
        for method in methods:
            store = tmp_path / method
            loaded = _run_python(
                _START_METHOD_RUN, method, SCENARIO, str(store)
            )
            # Kernels are loaded where the workers inherit them: in the
            # supervisor under fork, in the fork server (or each fresh
            # spawn worker) otherwise.
            if method == "fork":
                assert KERNELS <= set(loaded["repro"])
            else:
                assert not KERNELS & set(loaded["repro"]), method
            reports[method] = ResultStore(store).report_path(spec).read_bytes()
        for method in methods:
            assert reports[method] == reports[methods[0]], method
