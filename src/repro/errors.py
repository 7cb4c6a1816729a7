"""Exception hierarchy for the :mod:`repro` library.

All library-specific failures derive from :class:`ReproError` so callers can
catch one base class. Each subclass corresponds to a well-defined misuse or
model violation; none of them is raised during a correct simulation of a
well-initiated execution (in the sense of Section 2.4 of the paper).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the :mod:`repro` library."""


class TopologyError(ReproError):
    """A topology was constructed or queried in an inconsistent way.

    Examples: a ring with fewer than two nodes, an edge identifier outside
    the footprint, or asking a chain for the clockwise port of its last node
    in a context where a real edge is required.
    """


class ScheduleError(ReproError):
    """An evolving-graph schedule violates its own declared contract.

    Examples: a present-edge set containing identifiers outside the
    footprint, or an explicit schedule queried beyond its horizon without a
    declared suffix behaviour.
    """


class ConfigurationError(ReproError):
    """An execution was started from an invalid configuration.

    The paper (Section 2.4) requires *well-initiated* executions: strictly
    fewer robots than nodes and a towerless initial placement. Violations of
    either requirement — as well as malformed chirality vectors or positions
    outside the node range — raise this error.
    """


class AlgorithmError(ReproError):
    """A robot algorithm broke the model contract.

    Examples: returning a state object of an unexpected type, a state whose
    ``dir`` attribute is not a :class:`repro.types.Direction`, or an
    unhashable state handed to the exhaustive verifier.
    """


class VerificationError(ReproError):
    """The exhaustive verifier was asked an ill-posed question.

    Examples: verifying an algorithm whose state space is not finite or not
    hashable, or requesting trap synthesis for an instance that was proven
    explorable (no trap exists).
    """


class ScenarioError(ReproError):
    """A scenario spec, result store or campaign is inconsistent.

    Examples: an unknown dynamics/scheduler/property name in a scenario
    spec, a result store whose checkpoint records disagree with the
    scenario they claim to belong to, or a campaign report requested
    before every chunk has been verified.
    """


class CampaignIncompleteError(ScenarioError):
    """A campaign report was requested before every chunk verified.

    The one *expected* mid-campaign failure: callers distinguishing
    "keep running" from genuine store corruption catch this subclass and
    the :class:`ScenarioError` base separately (the CLI maps them to
    exit codes :data:`EXIT_INCOMPLETE` and :data:`EXIT_USAGE`).
    """


class StoreCorruptionError(ScenarioError):
    """A result store holds records the strict reader refuses.

    Examples: an undecodable non-final checkpoint line, a record whose
    content check does not match its body, conflicting completed records
    for one chunk, a chunk digest that disagrees with the spec's own
    chunking, or two different scenarios colliding on one directory.
    The strict read path *always* raises on these — silent corruption
    must never masquerade as success; ``campaign fsck``
    (:meth:`repro.scenarios.store.ResultStore.recover`) is the explicit,
    opt-in salvage path.
    """


class ChunkTimeoutError(ScenarioError):
    """A campaign chunk exceeded its per-chunk deadline.

    Never raised: the supervised executor builds one when a worker fails
    to deliver a chunk tally within ``RetryPolicy.chunk_timeout``
    seconds, kills and retires that worker, and records the error as the
    attempt's failure (``"ChunkTimeoutError: …"``); the chunk is retried
    with backoff, then quarantined.
    """


class WorkerCrashError(ScenarioError):
    """A campaign worker died without delivering its chunk tally.

    Covers both real worker deaths (the supervisor observed an exit
    without a result and records this error's text as the attempt's
    failure) and injected crashes from a
    :class:`~repro.scenarios.faults.FaultPlan` on the in-process path
    (raised and caught by the serial retry loop).
    """


class ChunkPoisonedError(ScenarioError):
    """A chunk failed every allowed attempt.

    With quarantine enabled (the default) the failure is *recorded* in
    the store instead and the campaign completes degraded; this error is
    raised only under ``RetryPolicy(quarantine=False)`` — fail-fast
    callers who prefer a crash over a degraded report.
    """


class CampaignDegradedError(ScenarioError):
    """A clean report was requested from a degraded campaign.

    A degraded campaign settled every chunk but quarantined at least
    one; callers must either pass ``allow_degraded=True`` (the report
    then names the failed chunks) or re-execute them via
    ``campaign retry-failed``.
    """


class CampaignInterruptedError(ScenarioError):
    """A campaign run was stopped by SIGINT/SIGTERM.

    The runner's signal handlers finish fsyncing the in-flight chunk
    record before raising this, so an interrupt never leaves a torn
    non-final line; the CLI maps it to :data:`EXIT_INTERRUPTED`.
    """


# ----------------------------------------------------------------------
# CLI exit codes — the error taxonomy, visible to shell scripts.
# ----------------------------------------------------------------------
EXIT_OK = 0
"""Success (for ``campaign run``: every chunk verified, none failed)."""

EXIT_INCOMPLETE = 1
"""Expected mid-campaign state: not every chunk has checkpointed yet."""

EXIT_USAGE = 2
"""Bad invocation or an inconsistent scenario/spec (generic error)."""

EXIT_CORRUPT = 3
"""Store corruption: operator intervention (``campaign fsck``) needed."""

EXIT_DEGRADED = 4
"""The campaign settled but quarantined chunks (partial results)."""

EXIT_INTERRUPTED = 130
"""The run was stopped cleanly by SIGINT/SIGTERM (128 + SIGINT)."""


def exit_code_for(exc: BaseException) -> int:
    """Map a library exception onto the CLI exit-code taxonomy."""
    if isinstance(exc, CampaignInterruptedError):
        return EXIT_INTERRUPTED
    if isinstance(exc, StoreCorruptionError):
        return EXIT_CORRUPT
    if isinstance(exc, (CampaignDegradedError, ChunkPoisonedError)):
        return EXIT_DEGRADED
    if isinstance(exc, CampaignIncompleteError):
        return EXIT_INCOMPLETE
    return EXIT_USAGE


class CertificateError(ReproError):
    """A trap certificate failed independent replay validation.

    Raised when a lasso schedule synthesized by the game solver does not
    starve its target node, or does not keep its recurrent edges recurrent,
    when replayed through the simulator. This error indicates a bug in
    either the solver or the engine and is never expected in a release.
    """
