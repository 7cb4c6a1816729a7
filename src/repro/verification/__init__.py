"""Exhaustive verification: exact Table 1 verdicts on concrete instances.

The paper's Table 1 claims are universally quantified ("no deterministic
algorithm…", "…any connected-over-time ring"). For a *fixed* finite-state
algorithm on a *fixed* ring size, perpetual exploration against the
strongest adversary is decidable — the interaction is a game on the finite
product of robot positions, robot states and adversarial edge choices.
This subpackage decides it, through three mutually-checking layers:

* :mod:`repro.verification.product` — the object-level product transition
  system, driven by the very same :func:`repro.sim.engine.step_fsync` the
  simulator uses (the semantics oracle);
* :mod:`repro.verification.compiled` — the compiled-tables core: product
  states as single ints, edge/activation sets as bitmasks, the whole
  Look–Compute logic folded into flat integer tables, shared with the
  simulation chunk runner (:mod:`repro.scenarios.simulate`);
* :mod:`repro.verification.batch` — the simulation vector backend:
  whole chunks of simulated tables stepped in NumPy lockstep
  (structure-of-arrays rows, one gather per robot per round);
* :mod:`repro.verification.batch_solver` — the solver vector backend:
  whole chunks of tables *game-solved* in NumPy lockstep (dense product
  spaces, bit-parallel reachability and winning-SCC detection), and
  single instances of any size solved sparsely (int64-frontier BFS, a
  vectorized winning-SCC screen), with bit-identical verdicts;
* :mod:`repro.verification.backends` — the one registry of backend
  names that the CLI, the chunk runners and the campaign runner all
  derive from; NumPy is a required dependency, so ``auto`` is
  ``vector`` on both dispatch paths;
* :mod:`repro.verification.kernel` — the packed-state kernel: the game
  solver's consumer of the compiled tables, adding adversarial move
  enumeration and labeled reachability. The ``packed`` backend — the
  differential reference, and the ``vector`` solver's fallback for
  packed states beyond int64; differentially tested against the other
  two layers;
* :mod:`repro.verification.game` — the solver: the adversary wins iff,
  from some well-initiated configuration, some reachable SCC of the
  target-node-avoiding subgraph leaves at most one ring edge never
  present — and, under ``scheduler="ssync"``, activates every robot
  (fairness; see the soundness/completeness argument in the module
  docstring). Emits replayable lasso certificates on wins; runs on
  any backend (``backend="vector" | "packed" | "object"``, or ``"auto"``)
  and either scheduler (``"fsync" | "ssync"``);
* :mod:`repro.verification.certificates` — certificate datatypes and the
  *independent* replay validator (simulator-checked, period-exact);
* :mod:`repro.verification.enumeration` — exhaustive sweeps over whole
  algorithm classes (e.g. all 256 memoryless single-robot algorithms);
* :mod:`repro.verification.sweeps` — the parallel sweep engine: shards a
  table class across a process pool with deterministic chunk merging.
"""

from repro.verification.backends import (
    AUTO_BACKEND,
    BACKENDS,
    BACKEND_CHOICES,
    resolve_backend,
)
from repro.verification.certificates import (
    TrapCertificate,
    certificate_schedule,
    validate_certificate,
)
from repro.verification.game import (
    PROPERTIES,
    ExplorationVerdict,
    check_property,
    synthesize_trap,
    verify_exploration,
)
from repro.verification.compiled import CompiledTables
from repro.verification.kernel import PackedKernel, check_scheduler
from repro.verification.product import ProductSystem, SysState
from repro.verification.enumeration import (
    SweepResult,
    sample_table_patterns,
    sweep_single_robot_memoryless,
    sweep_two_robot_memory2,
    sweep_two_robot_memoryless,
)
from repro.verification.sweeps import (
    START_POLICIES,
    TABLE_FAMILIES,
    available_cpus,
    run_table_sweep,
    sweep_chunk,
)

__all__ = [
    "AUTO_BACKEND",
    "BACKENDS",
    "BACKEND_CHOICES",
    "PROPERTIES",
    "resolve_backend",
    "START_POLICIES",
    "TABLE_FAMILIES",
    "CompiledTables",
    "PackedKernel",
    "ProductSystem",
    "SysState",
    "ExplorationVerdict",
    "check_property",
    "check_scheduler",
    "verify_exploration",
    "synthesize_trap",
    "TrapCertificate",
    "certificate_schedule",
    "validate_certificate",
    "SweepResult",
    "available_cpus",
    "sample_table_patterns",
    "sweep_single_robot_memoryless",
    "sweep_two_robot_memoryless",
    "sweep_two_robot_memory2",
    "run_table_sweep",
    "sweep_chunk",
]
