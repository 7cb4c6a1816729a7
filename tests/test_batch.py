"""Tests for the vector (NumPy lockstep) backend and the backend registry.

Three contracts:

* **Differential** — the vector kernel is an execution detail: on every
  registered simulation family's first chunk, and on Hypothesis-drawn
  random schedules × tables × schedulers × properties, it tallies
  byte-identically to the scalar packed runner and the object engine
  oracle (including the ``rounds`` work proxy, which the kernel
  reproduces via post-hoc first-failure accounting).
* **Registry** — one source of backend names shared by the CLI, the
  chunk runners and the campaign runner; ``auto`` is ``vector`` on both
  the simulation and the exact-solver path.
* **Hash-neutrality** — a campaign checkpointed under ``packed``
  resumes under ``vector`` into a byte-identical report, and a traced
  vector run emits per-phase spans without changing a report byte.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenario_testlib import make_tiny_dynamics_scenario as dyn_spec
from repro import telemetry
from repro.cli import build_parser
from repro.errors import AlgorithmError, VerificationError
from repro.graph.topology import RingTopology
from repro.scenarios import (
    CampaignRunner,
    ResultStore,
    RobotClassSpec,
    get_scenario,
    iter_scenarios,
)
from repro.scenarios.simulate import simulate_chunk, simulation_placements
from repro.types import Chirality
from repro.verification import batch
from repro.verification.backends import (
    AUTO_BACKEND,
    BACKEND_CHOICES,
    BACKENDS,
    resolve_backend,
)
from repro.verification.compiled import CompiledTables
from repro.verification.sweeps import family_maker, family_space, family_stack

def _simulation_family_names() -> list[str]:
    return [
        spec.name
        for spec in iter_scenarios()
        if spec.dynamics != "highly-dynamic"
    ]


def _find_backend_action(parser):
    for action in parser._actions:  # noqa: SLF001 - introspection on purpose
        if "--backend" in action.option_strings:
            return action
    raise AssertionError("parser has no --backend option")


def _subparser(parser, name):
    for action in parser._actions:  # noqa: SLF001
        if hasattr(action, "choices") and name in (action.choices or {}):
            return action.choices[name]
    raise AssertionError(f"no {name!r} subparser")


class TestRegistry:
    """One backend registry; nothing can drift out of the CLI help."""

    def test_choice_sets(self) -> None:
        assert BACKEND_CHOICES == (AUTO_BACKEND,) + BACKENDS
        assert BACKENDS == ("vector", "packed", "object")

    def test_campaign_cli_choices_derive_from_registry(self) -> None:
        parser = build_parser()
        campaign = _subparser(parser, "campaign")
        run = _subparser(campaign, "run")
        action = _find_backend_action(run)
        assert tuple(action.choices) == BACKEND_CHOICES
        assert action.default == AUTO_BACKEND

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    def test_solver_cli_choices_derive_from_registry(self, command: str) -> None:
        action = _find_backend_action(_subparser(build_parser(), command))
        assert tuple(action.choices) == BACKEND_CHOICES
        assert action.default == AUTO_BACKEND

    def test_unknown_choice_message_lists_registry(self) -> None:
        with pytest.raises(VerificationError, match="auto"):
            resolve_backend("simd")
        with pytest.raises(VerificationError, match="backend"):
            resolve_backend("vectorized")

    def test_auto_resolves_to_vector(self) -> None:
        assert resolve_backend("auto") == "vector"
        for name in BACKENDS:
            assert resolve_backend(name) == name


class TestCampaignSolverPath:
    def test_unknown_backend_rejected_at_construction(self, tmp_path) -> None:
        with pytest.raises(VerificationError, match="backend"):
            CampaignRunner(ResultStore(tmp_path / "s"), backend="simd")


class TestVectorDifferential:
    """vector == packed == object on every tally, everywhere."""

    @pytest.mark.parametrize("name", _simulation_family_names())
    def test_registered_families_first_chunk_identical(self, name: str) -> None:
        spec = get_scenario(name)
        chunk = spec.chunks()[0]
        vector = simulate_chunk(spec, chunk, backend="vector")
        assert vector == simulate_chunk(spec, chunk, backend="packed")
        assert vector == simulate_chunk(spec, chunk, backend="object")

    def test_empty_chunk(self) -> None:
        spec = dyn_spec()
        assert simulate_chunk(spec, [], backend="vector") == (0, 0, [], 0)

    def test_batch_tables_cached_per_instance(self) -> None:
        tables = CompiledTables(
            RingTopology(4),
            family_maker("two")(99),
            (Chirality.AGREE, Chirality.DISAGREE),
        )
        assert tables.batch_tables() is tables.batch_tables()

    def test_mixed_state_counts_rejected(self) -> None:
        # A stack whose width is not S·8 (here: memory-2 tables under a
        # memoryless state count) is refused, not misread.
        topology = RingTopology(4)
        vectors = [(Chirality.AGREE, Chirality.AGREE)]
        _s, trans, dirs = family_stack("two-m2", [1, 2])
        placements = simulation_placements("well", topology, 2)
        with pytest.raises(VerificationError, match="uniform state count"):
            batch.simulate_batch(
                topology,
                (2, trans, dirs[:2]),
                vectors,
                placements,
                (7, 7),
                False,
                "perpetual",
            )

    @given(
        family=st.sampled_from(["two", "two-m2", "single"]),
        dynamics=st.sampled_from(
            ["bernoulli", "markov", "t-interval", "periodic",
             "at-most-one-absent"]
        ),
        n=st.sampled_from([4, 5, 6]),
        starts=st.sampled_from(["well", "arbitrary"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        scheduler=st.sampled_from(["fsync", "ssync"]),
        prop=st.sampled_from(["perpetual", "live"]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_schedules_and_tables_agree(
        self,
        family: str,
        dynamics: str,
        n: int,
        starts: str,
        seed: int,
        scheduler: str,
        prop: str,
        data,
    ) -> None:
        bits = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=family_space(family) - 1),
                min_size=1,
                max_size=4,
            ),
            label="bits",
        )
        if dynamics == "periodic":
            params = {
                "patterns": data.draw(
                    st.dictionaries(
                        st.integers(min_value=0, max_value=n - 1),
                        st.lists(st.booleans(), min_size=1, max_size=4),
                        min_size=1,
                        max_size=3,
                    ),
                    label="patterns",
                )
            }
            seed = None
        else:
            params = {
                "bernoulli": {"p": 0.7},
                "markov": {"p_off": 0.3, "p_on": 0.6},
                "t-interval": {"T": 3},
                "at-most-one-absent": {"min_hold": 1, "max_hold": 4},
            }[dynamics]
        spec = dyn_spec(
            robots=RobotClassSpec(family=family, sample=4),
            n=n,
            dynamics=dynamics,
            dynamics_params=params,
            dynamics_seed=seed,
            starts=starts,
            scheduler=scheduler,
            prop=prop,
            horizon=20,
        )
        assert simulate_chunk(spec, bits, backend="vector") == simulate_chunk(
            spec, bits, backend="packed"
        )


class TestFamilyStack:
    """The family decoder is exactly the per-table constructors'
    ``packed_tables()``, stacked — without building the tables."""

    @pytest.mark.parametrize(
        "family, extra",
        [
            ("single", [1, 0x5A, 0x80]),
            ("two", [7, 0xBEEF, 0x8000]),
            ("two-m2", [3, 2**63, 2**63 + 12345, 2**64 - 2]),
        ],
    )
    def test_matches_packed_tables(self, family: str, extra: list) -> None:
        patterns = [0, family_space(family) - 1] + extra
        state_count, trans, dirs = family_stack(family, patterns)
        assert trans.shape == (len(patterns), state_count * 8)
        maker = family_maker(family)
        for row, bits in zip(trans, patterns):
            decoded = (state_count, tuple(row.tolist()), tuple(dirs.tolist()))
            assert decoded == maker(bits).packed_tables()

    def test_empty_chunk(self) -> None:
        state_count, trans, _dirs = family_stack("two-m2", [])
        assert trans.shape == (0, state_count * 8)

    def test_out_of_range_pattern_rejected_like_the_maker(self) -> None:
        with pytest.raises(AlgorithmError, match="16 bits"):
            family_stack("two", [3, 1 << 16])


class TestCrossBackendResume:
    """The backend is not workload identity: a campaign checkpointed
    under ``packed`` resumes under ``vector`` — into the same store,
    without re-verifying the other backend's chunks — and the final
    report bytes never betray which backend verified which chunk."""

    def test_packed_checkpoint_resumes_under_vector(
        self, tmp_path: Path
    ) -> None:
        spec = dyn_spec()
        reference = CampaignRunner(
            ResultStore(tmp_path / "ref"), backend="packed", jobs=1
        )
        reference.run(spec)
        expected = reference.store.report_path(spec).read_bytes()

        store = ResultStore(tmp_path / "mixed")
        partial = CampaignRunner(store, backend="packed", jobs=1).run(
            spec, max_chunks=1
        )
        assert not partial.status.complete
        resumed = CampaignRunner(store, backend="vector", jobs=1).run(spec)
        assert resumed.status.complete
        assert resumed.chunks_cached == 1  # the packed chunk held
        assert store.report_path(spec).read_bytes() == expected

    def test_vector_only_report_matches_packed_only(
        self, tmp_path: Path
    ) -> None:
        spec = dyn_spec()
        reports = {}
        for backend in ("packed", "vector", "auto"):
            runner = CampaignRunner(
                ResultStore(tmp_path / backend), backend=backend, jobs=1
            )
            runner.run(spec)
            reports[backend] = runner.store.report_path(spec).read_bytes()
        assert reports["packed"] == reports["vector"] == reports["auto"]


class TestVectorTelemetry:
    """The vector chunk runner tags its compile/gather/compact phases;
    arming telemetry never changes a report byte."""

    def test_phases_emitted_and_report_neutral(self, tmp_path: Path) -> None:
        spec = dyn_spec()
        plain = CampaignRunner(
            ResultStore(tmp_path / "plain"), backend="vector", jobs=1
        )
        plain.run(spec)
        trace_dir = tmp_path / "trace"
        traced = CampaignRunner(
            ResultStore(tmp_path / "traced"),
            backend="vector",
            jobs=1,
            telemetry=trace_dir,
        )
        traced.run(spec)
        assert (
            traced.store.report_path(spec).read_bytes()
            == plain.store.report_path(spec).read_bytes()
        )
        events = telemetry.load_trace(trace_dir)
        names = {event["name"] for event in events}
        assert {"phase.compile", "phase.gather", "phase.compact"} <= names
        # The campaign context records the *resolved* backend.
        campaign_spans = [e for e in events if e["name"] == "campaign"]
        assert campaign_spans
        assert all(
            e.get("attrs", {}).get("backend") == "vector"
            for e in campaign_spans
        )
        summary = telemetry.summarize(events)
        rendered = telemetry.render_summary(summary)
        assert "phase.gather" in rendered

    def test_auto_context_records_resolved_backend(
        self, tmp_path: Path
    ) -> None:
        trace_dir = tmp_path / "trace"
        runner = CampaignRunner(
            ResultStore(tmp_path / "s"),
            backend="auto",
            jobs=1,
            telemetry=trace_dir,
        )
        runner.run(dyn_spec())
        events = telemetry.load_trace(trace_dir)
        contexts = {
            e["attrs"]["backend"]
            for e in events
            if "backend" in e.get("attrs", {})
        }
        assert contexts == {"vector"}
