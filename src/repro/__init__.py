"""repro — perpetual exploration of highly dynamic (connected-over-time) rings.

A full reproduction of:

    Marjorie Bournat, Swan Dubois, Franck Petit.
    *Computability of Perpetual Exploration in Highly Dynamic Rings.*
    ICDCS 2017 (arXiv:1612.05767).

The library provides, as importable building blocks:

* the evolving-graph model and a schedule library
  (:mod:`repro.graph`);
* the anonymous-robot Look–Compute–Move model, the paper's three
  algorithms ``PEF_3+`` / ``PEF_2`` / ``PEF_1``, baselines and
  transition-table machines (:mod:`repro.robots`);
* FSYNC and SSYNC simulation engines with traces and observers
  (:mod:`repro.sim`);
* the impossibility constructions as adaptive adversaries
  (:mod:`repro.adversary`);
* an exhaustive game solver deciding perpetual exploration on concrete
  instances and synthesizing replayable trap certificates
  (:mod:`repro.verification`);
* analysis, text visualization and the paper's experiment harnesses
  (:mod:`repro.analysis`, :mod:`repro.viz`, :mod:`repro.experiments`);
* a scenario registry and a persistent, resumable campaign runner over
  the verification kernel (:mod:`repro.scenarios`).

Quickstart::

    from repro import RingTopology, PEF3Plus, run_fsync, VisitTracker
    from repro.graph import EventuallyMissingEdgeSchedule

    ring = RingTopology(8)
    schedule = EventuallyMissingEdgeSchedule(ring, edge=3, vanish_time=50)
    tracker = VisitTracker()
    run_fsync(ring, schedule, PEF3Plus(), positions=[0, 3, 6],
              rounds=2000, observers=[tracker])
    assert tracker.cover_time is not None

The public names below are resolved on first access (PEP 562), so
``import repro.errors`` or the CLI's ``algos`` verb loads only the
layers it uses; ``from repro import X`` and ``from repro import *``
behave exactly as eager imports would.
"""

import importlib
import sys

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # types
    "Direction",
    "GlobalDirection",
    "Chirality",
    "LEFT",
    "RIGHT",
    "CW",
    "CCW",
    "AGREE",
    "DISAGREE",
    # errors
    "ReproError",
    "TopologyError",
    "ScheduleError",
    "ConfigurationError",
    "AlgorithmError",
    "VerificationError",
    "CertificateError",
    # graph
    "Topology",
    "RingTopology",
    "ChainTopology",
    "EvolvingGraph",
    # robots
    "Algorithm",
    "PEF3Plus",
    "PEF2",
    "PEF1",
    "registry",
    "get_algorithm",
    # sim
    "Configuration",
    "ExecutionTrace",
    "RunResult",
    "run_fsync",
    "run_ssync",
    "VisitTracker",
    "TowerLogger",
    # adversaries
    "OscillationTrap",
    "TheoremPhaseTrap",
    "WindowConfinementAdversary",
    "SsyncBlocker",
    # verification
    "verify_exploration",
    "synthesize_trap",
    "TrapCertificate",
    "validate_certificate",
    # analysis
    "exploration_report",
    "tower_report",
    "recurrence_report",
    # scenarios / campaigns
    "ScenarioSpec",
    "RobotClassSpec",
    "get_scenario",
    "scenario_names",
    "ResultStore",
    "CampaignRunner",
]

#: Public name → the module it is imported from (``"module:attr"`` when
#: the attribute is named differently there).
_EXPORTS = {
    **dict.fromkeys(
        ("AGREE", "CCW", "CW", "DISAGREE", "LEFT", "RIGHT", "Chirality",
         "Direction", "GlobalDirection"),
        "repro.types",
    ),
    **dict.fromkeys(
        ("AlgorithmError", "CertificateError", "ConfigurationError",
         "ReproError", "ScheduleError", "TopologyError", "VerificationError"),
        "repro.errors",
    ),
    **dict.fromkeys(
        ("ChainTopology", "EvolvingGraph", "RingTopology", "Topology"),
        "repro.graph",
    ),
    **dict.fromkeys(("PEF1", "PEF2", "PEF3Plus"), "repro.robots"),
    **dict.fromkeys(
        ("Algorithm", "get_algorithm", "registry"), "repro.robots.algorithms"
    ),
    **dict.fromkeys(
        ("Configuration", "ExecutionTrace", "RunResult", "TowerLogger",
         "VisitTracker", "run_fsync", "run_ssync"),
        "repro.sim",
    ),
    **dict.fromkeys(
        ("OscillationTrap", "SsyncBlocker", "TheoremPhaseTrap",
         "WindowConfinementAdversary"),
        "repro.adversary",
    ),
    **dict.fromkeys(
        ("TrapCertificate", "synthesize_trap", "validate_certificate",
         "verify_exploration"),
        "repro.verification",
    ),
    **dict.fromkeys(
        ("exploration_report", "recurrence_report", "tower_report"),
        "repro.analysis",
    ),
    **dict.fromkeys(
        ("CampaignRunner", "ResultStore", "RobotClassSpec", "ScenarioSpec",
         "get_scenario", "scenario_names"),
        "repro.scenarios",
    ),
}


def _lazy_exports(package: str, exports: dict[str, str]) -> tuple:
    """PEP 562 ``__getattr__`` and ``__dir__`` for a package's exports.

    A public name is imported from its module on first access and then
    cached in the package namespace, so later lookups never come back
    here. Any other name raises :class:`AttributeError`, which is also
    what lets ``from package import submodule`` fall through to the
    import system.
    """

    def __getattr__(name: str):
        try:
            module, _, attribute = exports[name].partition(":")
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), attribute or name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
