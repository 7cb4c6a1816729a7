"""End-to-end benchmark of the repro CLI: what a user waits for.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` (the timed run) repeats the workload's CLI invocations —
each a fresh process tree on a cold store, run in sequence with
``--jobs 2`` — for ``S`` seconds, then reruns the command with no work
left to time set-up, then runs the correctness checks. It reports the
median over repetitions of:

* ``wall_s`` — spawn of the invocation(s) until the last one exits with
  its report or verdict written (summed over sequential invocations);
* ``tables_per_s`` — tables decided / ``wall_s`` (a verified instance
  counts as one table);
* ``setup_s`` — wall time of the command with no work left (a cache-hit
  rerun; ``repro algos`` for ``pef3-verify``);
* ``cpu_s`` — user + system CPU of the invocation tree;
* ``peak_rss_mb`` — the largest RSS of any process in the tree.

``--trace 1`` (the traced run) times the calls into each layer instead
(see ``layers.py``). Both print human-readable lines, append a result
record to ``.perfbench/history.jsonl`` and end with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0
only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

import harness
import workloads
from harness import Runner, median, percentile

E2E_METRICS = (
    ("wall_s", "s"),
    ("tables_per_s", "1/s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Cache-hit reruns per run; ``setup_s`` is their median.
SETUP_REPS = 9
#: Upper bound on timed repetitions, whatever ``--seconds`` says.
MAX_REPS = 200


def timed_run(workload, runner: Runner, run_dir: Path, seed: int,
              seconds: float, setup_reps: int) -> tuple:
    """Repeat the workload for ``seconds``.

    Returns ``(metrics, attempted, failed, problems, detail)``.
    """
    reps: list[dict] = []
    check = workloads.CheckResult()
    previous = None
    start = time.monotonic()
    end = start + seconds
    # Start another repetition while it should end no more than half a
    # repetition past the window: the run stays close to ``seconds`` and
    # slow workloads still get a median of several repetitions.
    while not reps or (
        time.monotonic() + (time.monotonic() - start) / len(reps) / 2 <= end
        and len(reps) < MAX_REPS
    ):
        rep_dir = harness.fresh_dir(run_dir / f"rep{len(reps)}")
        results = [
            runner.run(argv, rep_dir)
            for argv in workload.invocations(runner.python, rep_dir)
        ]
        check.add(workload.check_rep(rep_dir, results))
        wall = sum(r["wall_s"] for r in results)
        reps.append({
            "wall_s": wall,
            "tables_per_s": workload.tables_per_rep / wall,
            "cpu_s": sum(r["cpu_s"] for r in results),
            "peak_rss_mb": max(r["maxrss_mb"] for r in results),
        })
        if previous is not None:
            shutil.rmtree(previous, ignore_errors=True)
        previous = rep_dir
    attempted = workload.ops_per_rep * len(reps)

    setup = []
    for _ in range(setup_reps):
        account = runner.run(
            workload.setup_invocation(runner.python, previous), previous / "setup"
        )
        setup.append(account["wall_s"])
        # A rerun covers every operation of the workload again.
        if account["exit_code"] != 0:
            check.fail(workload.ops_per_rep,
                       f"set-up command exited {account['exit_code']}")
        elif workload.kind == "campaign" and " ran 0 chunks" not in account["stdout"]:
            check.fail(workload.ops_per_rep, "set-up rerun was not a cache hit")

    check.add(workload.check_final(
        runner.python, previous, seed,
        lambda argv: runner.run(argv, previous / "untimed"),
    ))

    metrics = {
        name: median(setup) if name == "setup_s"
        else median([rep[name] for rep in reps])
        for name, _ in E2E_METRICS
    }
    spread = {
        name: (percentile([rep[name] for rep in reps], 25),
               percentile([rep[name] for rep in reps], 75))
        for name in ("wall_s", "cpu_s")
    }
    spread["setup_s"] = (percentile(setup, 25), percentile(setup, 75))
    detail = {"reps": len(reps), "setup_reps": len(setup), "spread": spread}
    return metrics, attempted, check.failed, check.problems, detail


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "small"), default="full",
        help="'small' shrinks every workload (for the benchmark's own tests)",
    )
    args = parser.parse_args(argv)
    if not harness.source_present():
        print(f"perfbench: no program source under {harness.SRC}",
              file=sys.stderr)
        return 2
    env = harness.bench_env()
    if dict(os.environ) != env:
        # Start over under the children's environment, so that processes
        # the traced run starts in-process (``spawn``/``forkserver``
        # workers) import exactly as the CLI's do — interpreter flags such
        # as -B are inherited from this process's start-up environment.
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()), *argv], env)
    runner = Runner()
    workload = workloads.build(args.workload, args.seed, args.scale)
    run_dir = harness.fresh_dir(
        runner.work / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    )
    started = time.monotonic()
    try:
        runner.warm_up(run_dir / "warm-up")
        if args.trace:
            import layers

            metrics, attempted, failed, problems, detail = layers.traced_run(
                workload, runner, run_dir, args.seed
            )
            units = dict((name, unit) for name, unit, _ in layers.PER_LAYER)
        else:
            setup_reps = SETUP_REPS if args.scale == "full" else 2
            metrics, attempted, failed, problems, detail = timed_run(
                workload, runner, run_dir, args.seed, args.seconds, setup_reps
            )
            units = dict(E2E_METRICS)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    correct = failed == 0 and not problems

    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace} scale={args.scale}: "
          f"{time.monotonic() - started:.1f} s, "
          + ", ".join(f"{k}={v}" for k, v in detail.items()
                      if k != "spread"))
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    print(f"  {'failed_frac':28s} {failed / attempted:14.6g} "
          f"({failed}/{attempted} operations)")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    record = harness.context(
        args.workload, args.seed, workload.start_method, bool(args.trace),
        args.scale,
    )
    record.update({
        "seconds": args.seconds, "correct": correct, "attempted": attempted,
        "failed": failed, "problems": problems, "detail": detail,
        "metrics": metrics,
    })
    print(f"  record appended to {harness.append_history(record)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
