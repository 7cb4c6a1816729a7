"""Run one command as a child subreaper and account for its whole tree.

Usage::

    python3 perfbench/reaper.py OUT.json TIMEOUT_S -- CMD [ARG ...]

The reaper marks itself ``PR_SET_CHILD_SUBREAPER``, so every process the
command leaves behind (a ``forkserver`` and the workers it forked, say)
is re-parented here instead of to init when its parent exits. It reaps
them all, then writes one JSON object to ``OUT.json``:

* ``wall_s`` — from just before the command is spawned until the
  command itself exits (orphans that outlive it are not waited for in
  this figure);
* ``exit_code`` — the command's exit status (negative: killed by signal);
* ``cpu_s`` / ``user_s`` / ``sys_s`` — ``RUSAGE_CHILDREN`` of the reaper,
  i.e. the CPU of the command and of every descendant;
* ``maxrss_mb`` — ``RUSAGE_CHILDREN.ru_maxrss``: the largest resident set
  of any process in the tree (MiB);
* ``reaped`` — how many processes were reaped, the command included.

``ru_maxrss`` only ever grows, which is why each invocation gets a fresh
reaper. The command inherits the reaper's standard streams. A command
that outlives ``TIMEOUT_S``, or orphans that outlive the command by as
long, are killed with their whole tree.
"""

from __future__ import annotations

import ctypes
import json
import os
import resource
import signal
import subprocess
import sys
import time

PR_SET_CHILD_SUBREAPER = 36


class _Overdue(Exception):
    """Raised from the alarm handler to break a blocking ``wait4``."""


def _on_alarm(signum, frame):
    raise _Overdue()


def _become_subreaper() -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        err = ctypes.get_errno()
        raise OSError(err, f"prctl(PR_SET_CHILD_SUBREAPER): {os.strerror(err)}")


def _children() -> list[int]:
    """PIDs of this process's live children (adopted orphans included)."""
    pids: list[int] = []
    task_dir = f"/proc/{os.getpid()}/task"
    for tid in os.listdir(task_dir):
        try:
            with open(f"{task_dir}/{tid}/children", encoding="ascii") as handle:
                pids.extend(int(pid) for pid in handle.read().split())
        except FileNotFoundError:
            continue
    return pids


def _kill_tree() -> None:
    for pid in _children():
        try:
            os.killpg(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def run(cmd: list[str], timeout_s: float) -> dict:
    """Spawn ``cmd``, reap it and every descendant, return the account."""
    _become_subreaper()
    signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    child = subprocess.Popen(cmd, start_new_session=True)
    wall = None
    exit_code = None
    reaped = 0
    killed = False
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        while True:
            try:
                pid, status, _ = os.wait4(-1, 0)
            except ChildProcessError:
                break
            except _Overdue:
                killed = True
                _kill_tree()
                signal.setitimer(signal.ITIMER_REAL, timeout_s)
                continue
            reaped += 1
            if pid == child.pid:
                wall = time.perf_counter() - start
                exit_code = os.waitstatus_to_exitcode(status)
                # The command is gone; give its orphans their own budget.
                signal.setitimer(signal.ITIMER_REAL, timeout_s)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    # Popen never saw the child's status (wait4 took it); keep it quiet.
    child.returncode = exit_code
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "wall_s": wall,
        "exit_code": exit_code,
        "killed": killed,
        "user_s": usage.ru_utime,
        "sys_s": usage.ru_stime,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
        "reaped": reaped,
    }


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, timeout_s, cmd = argv[0], float(argv[1]), argv[3:]
    account = run(cmd, timeout_s)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(account, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
