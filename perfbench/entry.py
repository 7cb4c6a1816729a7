"""Benchmark entry script: the repro CLI under a pinned start method.

Usage::

    python3 perfbench/entry.py --start-method fork|forkserver|spawn \
        [--spec SPEC_JSON] -- CLI_ARG ...

``--spec`` carries a generated scenario as its ``ScenarioSpec.to_dict``
JSON; it is registered with ``register_scenario`` so the CLI can name
it. Everything after ``--`` goes verbatim to ``repro.cli.main``, so the
measured code path is the CLI's own.

All work happens under the ``__main__`` guard: ``forkserver`` and
``spawn`` children import this file again as ``__mp_main__``, and an
unguarded ``set_start_method`` would fail in each of them ("context has
already been set"), quarantining every chunk.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--start-method", required=True,
        choices=multiprocessing.get_all_start_methods(),
    )
    parser.add_argument("--spec", default=None, metavar="SPEC_JSON")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args
    if cli_args[:1] == ["--"]:
        cli_args = cli_args[1:]
    multiprocessing.set_start_method(args.start_method)

    from repro.cli import main as cli_main
    from repro.scenarios import ScenarioSpec, register_scenario

    if args.spec is not None:
        register_scenario(ScenarioSpec.from_dict(json.loads(args.spec)))
    return cli_main(cli_args)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
