"""Tests for the vector *solver* backend (dense NumPy game solving).

Three contracts, mirroring ``test_batch.py``'s simulation-side suite:

* **Differential** — the dense lockstep solver is an execution detail:
  on every registered highly-dynamic scenario's first chunk, and on
  Hypothesis-drawn random tables × schedulers × properties × start
  policies, ``sweep_chunk`` tallies byte-identically under ``vector``,
  ``packed`` and ``object``; ``verify_exploration`` additionally emits
  bit-identical trap certificates under ``vector`` and ``packed`` (the
  same canonical CSR), and matches ``object`` on verdict, state and
  transition counts, every certificate replay-validated.
* **Int64 fallback** — an instance whose packed states do not fit
  int64 takes the scalar kernel under ``vector`` too, with verdicts,
  counts, certificates and graphs equal to ``packed``.
* **Portability** — a solver campaign checkpointed under ``packed``
  resumes under ``vector`` into a byte-identical report.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenario_testlib import make_tiny_scenario
from repro.errors import VerificationError
from repro.graph.topology import ChainTopology, RingTopology
from repro.scenarios import (
    CampaignRunner,
    ResultStore,
    get_scenario,
    iter_scenarios,
)
from repro.verification import batch_solver
from repro.verification.certificates import validate_certificate
from repro.graph.topology import arbitrary_placements
from repro.robots.algorithms import get_algorithm
from repro.serialize import dumps
from repro.verification.game import (
    _avoid_reachable_csr,
    _csr_from_packed,
    _winning_scc_csr,
    default_chirality_vectors,
    verify_exploration,
)
from repro.verification.kernel import PackedKernel
from repro.verification.product import ProductSystem
from repro.verification.sweeps import family_maker, family_space, sweep_chunk

def _solver_scenario_names() -> list[str]:
    return [
        spec.name
        for spec in iter_scenarios()
        if spec.dynamics == "highly-dynamic"
    ]


def _chunk_kwargs(spec) -> dict:
    return dict(starts=spec.starts, prop=spec.prop, scheduler=spec.scheduler)


class TestSolverDifferential:
    """vector == packed == object on every solver tally, everywhere."""

    @pytest.mark.parametrize("name", _solver_scenario_names())
    def test_registered_scenarios_first_chunk_identical(self, name: str) -> None:
        spec = get_scenario(name)
        chunk = spec.chunks()[0][:16]
        kwargs = _chunk_kwargs(spec)
        vector = sweep_chunk(
            spec.robots.family, spec.n, chunk, backend="vector", **kwargs
        )
        assert vector == sweep_chunk(
            spec.robots.family, spec.n, chunk, backend="packed", **kwargs
        )
        assert vector == sweep_chunk(
            spec.robots.family, spec.n, chunk, backend="object", **kwargs
        )

    @pytest.mark.parametrize("name", _solver_scenario_names())
    def test_certificate_replay_on_first_chunk(self, name: str) -> None:
        # validate=True routes per-table through the CSR certificate
        # path and replays every emitted lasso through the simulator.
        spec = get_scenario(name)
        chunk = spec.chunks()[0][:6]
        kwargs = _chunk_kwargs(spec)
        vector = sweep_chunk(
            spec.robots.family, spec.n, chunk,
            backend="vector", validate=True, **kwargs,
        )
        assert vector == sweep_chunk(
            spec.robots.family, spec.n, chunk,
            backend="packed", validate=True, **kwargs,
        )

    def test_empty_chunk(self) -> None:
        assert sweep_chunk("two", 4, (), backend="vector") == (0, 0, [], 0)

    @given(
        family=st.sampled_from(["single", "two", "two-m2"]),
        patterns=st.lists(
            st.integers(min_value=0, max_value=2**16 - 1),
            min_size=1,
            max_size=4,
        ),
        scheduler=st.sampled_from(["fsync", "ssync"]),
        prop=st.sampled_from(["perpetual", "live"]),
        starts=st.sampled_from(["well", "arbitrary"]),
    )
    @settings(max_examples=12, deadline=None)
    def test_random_tables_match_packed(
        self, family, patterns, scheduler, prop, starts
    ) -> None:
        space = family_space(family)
        chunk = tuple(p % space for p in patterns)
        n = 3 if family == "single" else 4
        kwargs = dict(starts=starts, prop=prop, scheduler=scheduler)
        assert sweep_chunk(
            family, n, chunk, backend="vector", **kwargs
        ) == sweep_chunk(family, n, chunk, backend="packed", **kwargs)


class TestCertificateEquality:
    """The shared CSR solve phase makes certificates bit-identical."""

    @pytest.mark.parametrize(
        "bits,scheduler,prop,topology",
        [
            pytest.param(*case, RingTopology(4), id="-".join(map(str, case)))
            for case in (
                (7, "fsync", "perpetual"),
                (91, "ssync", "perpetual"),
                (123, "fsync", "live"),
                (255, "ssync", "live"),
            )
        ]
        # A chain's recurrence budget is 0: no edge may go missing.
        + [
            pytest.param(
                7, "fsync", "perpetual", ChainTopology(4),
                id="chain-7-fsync-perpetual",
            )
        ],
    )
    def test_vector_matches_packed_and_object(
        self, bits: int, scheduler: str, prop: str, topology
    ) -> None:
        algorithm = family_maker("two")(bits)
        kwargs = dict(k=2, scheduler=scheduler, prop=prop)
        vec = verify_exploration(
            algorithm, topology, backend="vector", **kwargs
        )
        packed = verify_exploration(
            algorithm, topology, backend="packed", **kwargs
        )
        obj = verify_exploration(
            algorithm, topology, backend="object", **kwargs
        )
        assert vec.explorable == packed.explorable == obj.explorable
        assert vec.certificate == packed.certificate
        counts = {
            (v.states_explored, v.transitions_explored)
            for v in (vec, packed, obj)
        }
        assert len(counts) == 1, counts
        for verdict in (vec, obj):
            if verdict.certificate is not None:
                validate_certificate(verdict.certificate, algorithm)


def _packed_csr(kernel: PackedKernel, seeds: list) -> object:
    occupied: dict = {}
    graph = kernel.reachable(seeds, occupied_out=occupied)
    return _csr_from_packed(graph, occupied, seeds)


_CSR_FIELDS = ("states", "indptr", "labels", "succs", "occ", "seeds")


class TestSparseCsr:
    """The sparse CSR builder equals the scalar kernel's, field by field.

    Cases straddle the 4096-state dense cap (:func:`dense_eligible`):
    two-robot n=4 spaces are expanded from the cached
    :class:`DenseSpace`, ``pef3+`` at n=5/6 (8,000 and 13,824 states)
    level by level.
    """

    @pytest.mark.parametrize(
        "algo,n,k,scheduler,ill_initiated,vector_index",
        [
            ("two:91", 4, 2, "fsync", False, 1),
            ("two:91", 4, 2, "ssync", False, 0),
            ("two:200", 4, 2, "fsync", True, 1),
            ("pef1", 5, 1, "fsync", False, 0),
            ("pef1", 5, 1, "ssync", False, 0),
            ("pef3+", 6, 3, "fsync", False, 1),
            ("pef3+", 5, 3, "ssync", False, 0),
            ("pef3+", 5, 3, "fsync", True, 1),
        ],
    )
    def test_sparse_csr_equals_packed(
        self, algo, n, k, scheduler, ill_initiated, vector_index
    ) -> None:
        if algo.startswith("two:"):
            algorithm = family_maker("two")(int(algo[4:]))
        else:
            algorithm = get_algorithm(algo)
        topology = RingTopology(n)
        kernel = PackedKernel(
            topology, algorithm, default_chirality_vectors(k)[vector_index],
            scheduler=scheduler,
        )
        placements = arbitrary_placements(topology, k) if ill_initiated else None
        seeds = kernel.initial_states(placements)
        if ill_initiated:
            assert any(len(set(p)) < k for p in placements)  # towers
        arrays = batch_solver.reachable_csr(kernel, seeds)
        expected = _packed_csr(kernel, seeds)
        for field, array in zip(_CSR_FIELDS, arrays):
            assert array.tolist() == getattr(expected, field), field
        # The screen's live arena and verdicts are the list path's.
        screen = batch_solver.WinningScreen(kernel, arrays)
        for target in topology.nodes:
            allowed = _avoid_reachable_csr(expected, 1 << target)
            assert screen.arena(target, "live").tolist() == allowed
            for prop, arena in (("perpetual", None), ("live", allowed)):
                exact = _winning_scc_csr(
                    topology, k, scheduler, expected, target, arena
                )
                assert screen(target, prop) == (exact is not None)

    @pytest.mark.parametrize(
        "bits,scheduler,ill_initiated",
        [(91, "fsync", False), (91, "ssync", False), (200, "fsync", True)],
    )
    def test_dense_and_level_paths_agree(
        self, bits, scheduler, ill_initiated
    ) -> None:
        import numpy as np

        topology = RingTopology(4)
        kernel = PackedKernel(
            topology, family_maker("two")(bits),
            default_chirality_vectors(2)[1], scheduler=scheduler,
        )
        assert batch_solver.dense_eligible(kernel)
        placements = arbitrary_placements(topology, 2) if ill_initiated else None
        seeds = np.asarray(kernel.initial_states(placements), dtype=np.int64)
        dense = batch_solver._reach_dense(kernel, seeds)
        levels = batch_solver._reach_levels(kernel, seeds)
        for got, want in zip(dense, levels):
            assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("algo,n,k", [("pef2", 4, 2), ("pef3+", 5, 3)])
    def test_max_states_overflow_matches_packed(self, algo, n, k) -> None:
        messages = []
        for backend in ("vector", "packed"):
            with pytest.raises(VerificationError) as info:
                verify_exploration(
                    get_algorithm(algo), RingTopology(n), k=k,
                    max_states=20, backend=backend,
                )
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert "exceeds 20 states" in messages[0]


class TestWinningScreen:
    """The vectorized screen answers exactly like the list-based search."""

    @given(
        bits=st.integers(min_value=0, max_value=family_space("two") - 1),
        n=st.sampled_from([4, 5]),
        scheduler=st.sampled_from(["fsync", "ssync"]),
        prop=st.sampled_from(["perpetual", "live"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_screen_matches_winning_scc(self, bits, n, scheduler, prop) -> None:
        algorithm = family_maker("two")(bits)
        topology = RingTopology(n)
        for vector in default_chirality_vectors(2):
            kernel = PackedKernel(
                topology, algorithm, vector, scheduler=scheduler
            )
            seeds = kernel.initial_states()
            arrays = batch_solver.reachable_csr(kernel, seeds)
            csr = _packed_csr(kernel, seeds)
            screen = batch_solver.WinningScreen(kernel, arrays)
            for target in topology.nodes:
                allowed = (
                    _avoid_reachable_csr(csr, 1 << target)
                    if prop == "live" else None
                )
                exact = _winning_scc_csr(
                    topology, 2, scheduler, csr, target, allowed
                )
                assert screen(target, prop) == (exact is not None), target

    def test_rotation_closure_is_checked_not_assumed(self) -> None:
        kernel = PackedKernel(
            RingTopology(6), get_algorithm("pef3+"),
            default_chirality_vectors(3)[0],
        )
        states = batch_solver.reachable_csr(kernel, kernel.initial_states())[0]
        assert batch_solver._rotation_closed(kernel, states)
        # Drop one state: its predecessor under rotation now maps outside.
        assert not batch_solver._rotation_closed(kernel, states[1:])

    @pytest.mark.parametrize("n", [6, 7])
    def test_certificates_byte_identical_over_the_cap(self, n: int) -> None:
        algorithm = get_algorithm("pef3+-always-turn")
        texts = []
        for backend in ("vector", "packed"):
            verdict = verify_exploration(
                algorithm, RingTopology(n), k=3, backend=backend
            )
            assert not verdict.explorable
            validate_certificate(verdict.certificate, algorithm)
            texts.append(dumps(verdict.certificate))
        assert texts[0] == texts[1]


class TestDenseEligibility:
    def test_registered_solver_scenarios_are_dense_eligible(self) -> None:
        # The speedup claim rests on the registered sweeps actually
        # taking the lockstep path; guard it against geometry drift.
        from repro.verification.sweeps import family_plan

        for name in _solver_scenario_names():
            spec = get_scenario(name)
            maker = family_maker(spec.robots.family)
            vector = family_plan(spec.robots.family)[0][0]
            kernel = PackedKernel(
                RingTopology(spec.n),
                maker(0),
                vector,
                scheduler=spec.scheduler,
            )
            assert batch_solver.dense_eligible(kernel), name

    def test_dense_space_is_process_cached(self) -> None:
        maker = family_maker("two")
        from repro.verification.sweeps import family_plan

        vector = family_plan("two")[0][0]
        a = PackedKernel(RingTopology(4), maker(3), vector)
        b = PackedKernel(RingTopology(4), maker(77), vector)
        assert batch_solver.dense_space(a) is batch_solver.dense_space(b)


class TestCampaignPortability:
    def test_packed_checkpoint_vector_resume_byte_identical(
        self, tmp_path: Path
    ) -> None:
        spec = make_tiny_scenario()
        reference = CampaignRunner(
            ResultStore(tmp_path / "ref"), backend="vector", jobs=1
        )
        reference.run(spec)
        reference_bytes = reference.store.report_path(spec).read_bytes()

        store = ResultStore(tmp_path / "mixed")
        partial = CampaignRunner(store, backend="packed", jobs=1).run(
            spec, max_chunks=2
        )
        assert not partial.status.complete
        resumed = CampaignRunner(store, backend="vector", jobs=1).run(spec)
        assert resumed.status.complete
        assert resumed.chunks_cached == 2  # the packed chunks held
        assert store.report_path(spec).read_bytes() == reference_bytes


class TestInt64Fallback:
    """Beyond int64 the vector backend runs the scalar kernel, and says
    so only in its speed: verdicts, counts, certificate bytes and the
    decoded graph all equal ``packed``.

    ``_INT64_SPACE`` is lowered so small instances take the branch; the
    sparse builder is replaced by a tripwire to prove they do.
    """

    @pytest.fixture()
    def beyond_int64(self, monkeypatch):
        def tripwire(*_args, **_kwargs):
            raise AssertionError("reachable_csr ran beyond int64")

        monkeypatch.setattr(batch_solver, "_INT64_SPACE", 1)
        monkeypatch.setattr(batch_solver, "reachable_csr", tripwire)

    @pytest.mark.parametrize(
        "algo,n,k,scheduler,explorable",
        [
            ("pef3+-always-turn", 6, 3, "fsync", False),
            ("pef3+", 5, 3, "fsync", True),
            ("two:91", 4, 2, "ssync", False),
        ],
    )
    def test_verify_matches_packed(
        self, beyond_int64, algo, n, k, scheduler, explorable
    ) -> None:
        if algo.startswith("two:"):
            algorithm = family_maker("two")(int(algo[4:]))
        else:
            algorithm = get_algorithm(algo)
        vec, packed = (
            verify_exploration(
                algorithm, RingTopology(n), k=k, backend=backend,
                scheduler=scheduler,
            )
            for backend in ("vector", "packed")
        )
        assert vec.explorable is packed.explorable is explorable
        assert (vec.states_explored, vec.transitions_explored) == (
            packed.states_explored, packed.transitions_explored
        )
        if explorable:
            assert vec.certificate is packed.certificate is None
        else:
            assert dumps(vec.certificate) == dumps(packed.certificate)

    def test_product_graph_matches_packed(self, beyond_int64) -> None:
        algorithm = get_algorithm("pef3+")
        vector = default_chirality_vectors(3)[1]
        vec, packed = (
            ProductSystem(
                RingTopology(5), algorithm, vector, backend=backend
            ).reachable()
            for backend in ("vector", "packed")
        )
        assert vec == packed
