"""Scenario registry and persistent campaign runner.

This subpackage turns the fast verification kernel *and* the simulation
engines into a service: a workload is a declarative, content-hashed
:class:`ScenarioSpec` (:mod:`~repro.scenarios.spec`); named workload
families live in a registry (:mod:`~repro.scenarios.registry`); and a
campaign executes a scenario chunk-by-chunk against an append-only
result store with checkpointing, resume and dedup
(:mod:`~repro.scenarios.store`, :mod:`~repro.scenarios.campaign`).
``highly-dynamic`` scenarios are solved exactly by the game solver;
schedule-family scenarios pin a concrete evolving graph
(:mod:`~repro.scenarios.dynamics`) and are executed by bounded-horizon
simulation (:mod:`~repro.scenarios.simulate`) on the same store. Both
paths run on a packed fast backend (the compiled-tables core of
:mod:`repro.verification.compiled`) or the object oracle, with
byte-identical tallies either way.

Campaigns are *crash-resilient*: chunks run under a supervisor with
per-chunk deadlines, dead-worker respawn, backed-off retries and
poisoned-chunk quarantine (:class:`RetryPolicy`); a corrupt checkpoint
log is salvageable (:meth:`ResultStore.recover` — ``campaign fsck``);
and the whole layer is exercised by a deterministic fault injector
(:mod:`~repro.scenarios.faults`). See ``docs/robustness.md``.

The CLI surface is
``repro-rings campaign list|run|status|report|fsck|retry-failed``; the
same machinery is importable::

    from repro.scenarios import CampaignRunner, ResultStore, get_scenario

    runner = CampaignRunner(ResultStore("campaigns"))
    outcome = runner.run(get_scenario("thm51-single-n3"))
    assert outcome.status.all_trapped

The names below resolve on first access (PEP 562), so a caller that
needs only the store or the registry does not load the campaign runner.
"""

from repro import _lazy_exports

__all__ = [
    "DEFAULT_HORIZON",
    "DYNAMICS_FAMILIES",
    "EXHAUSTIVE_LIMIT",
    "RANDOMIZED_FAMILIES",
    "SCENARIO_FORMAT_VERSION",
    "SCHEDULE_PARAMS",
    "build_schedule",
    "schedule_masks",
    "simulate_chunk",
    "simulation_placements",
    "validate_dynamics",
    "RobotClassSpec",
    "ScenarioSpec",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "iter_scenarios",
    "smallest_scenario",
    "FAULT_PLAN_ENV_VAR",
    "KILL_EXIT_CODE",
    "FaultPlan",
    "RecoveryReport",
    "ResultStore",
    "chunk_digest",
    "is_failure_record",
    "CampaignRunner",
    "CampaignRunOutcome",
    "CampaignStatus",
    "RetryPolicy",
]

_EXPORTS = {
    **dict.fromkeys(
        ("DEFAULT_HORIZON", "RANDOMIZED_FAMILIES", "SCHEDULE_PARAMS",
         "build_schedule", "schedule_masks", "validate_dynamics"),
        "repro.scenarios.dynamics",
    ),
    **dict.fromkeys(
        ("DYNAMICS_FAMILIES", "EXHAUSTIVE_LIMIT", "SCENARIO_FORMAT_VERSION",
         "RobotClassSpec", "ScenarioSpec"),
        "repro.scenarios.spec",
    ),
    **dict.fromkeys(
        ("simulate_chunk", "simulation_placements"), "repro.scenarios.simulate"
    ),
    **dict.fromkeys(
        ("get_scenario", "iter_scenarios", "register_scenario",
         "scenario_names", "smallest_scenario"),
        "repro.scenarios.registry",
    ),
    "FAULT_PLAN_ENV_VAR": "repro.scenarios.faults:ENV_VAR",
    **dict.fromkeys(("KILL_EXIT_CODE", "FaultPlan"), "repro.scenarios.faults"),
    **dict.fromkeys(
        ("RecoveryReport", "ResultStore", "chunk_digest", "is_failure_record"),
        "repro.scenarios.store",
    ),
    **dict.fromkeys(
        ("CampaignRunner", "CampaignRunOutcome", "CampaignStatus",
         "RetryPolicy"),
        "repro.scenarios.campaign",
    ),
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
