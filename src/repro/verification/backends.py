"""The one registry of execution backends.

Every layer that lets a caller pick an execution substrate — the CLI
(``campaign run --backend``, ``verify --backend``, ``sweep --backend``),
:func:`repro.verification.game.verify_exploration`,
:class:`repro.verification.product.ProductSystem`,
:func:`repro.scenarios.simulate.simulate_chunk`,
:func:`repro.verification.sweeps.sweep_chunk` and
:class:`repro.scenarios.campaign.CampaignRunner` — derives its choices
from this module, so a new backend cannot drift out of a help text or an
error message.

Both dispatch paths — the exact game solver over the highly-dynamic
adversary and the bounded-horizon schedule-dynamics runner — offer the
same three backends, fastest first:

* ``vector`` — NumPy lockstep over a whole chunk of tables
  (:mod:`repro.verification.batch_solver` for the solver,
  :mod:`repro.verification.batch` for simulation);
* ``packed`` — flat int tables, one table at a time (the differential
  reference, and the solver's fallback for packed states beyond int64);
* ``object`` — the engine-driven semantics oracle.

NumPy is a required dependency, so ``auto`` (:data:`AUTO_BACKEND`, the
CLI-facing default) is ``vector`` on both paths. Backend choice is an
execution detail, never workload identity: all backends tally
byte-identically and scenario hashes, chunk records and report bytes
never record which one ran.
"""

from __future__ import annotations

from repro.errors import VerificationError

BACKENDS = ("vector", "packed", "object")
"""Concrete backends of both dispatch paths, fastest first."""

AUTO_BACKEND = "auto"
"""Sentinel choice: resolves to ``vector``."""

BACKEND_CHOICES = (AUTO_BACKEND,) + BACKENDS
"""Every name a caller may pass (CLI ``--backend`` choices)."""


def resolve_backend(choice: str) -> str:
    """The concrete backend for a choice: ``auto`` is ``vector``."""
    if choice == AUTO_BACKEND:
        return "vector"
    if choice not in BACKENDS:
        raise VerificationError(
            f"unknown backend {choice!r}; choose from {BACKEND_CHOICES}"
        )
    return choice
