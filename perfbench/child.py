"""One benchmark sample in its own process: a batch of ``cli.main`` calls.

Usage: ``python3 perfbench/child.py ARGV_JSON RESULT_JSON [--trace | --tracemalloc]``

``ARGV_JSON`` holds a list of ``stream-mwm`` argument lists; each is run
in-process with ``stream_mwm.cli.main``. ``RESULT_JSON`` receives the exit
codes and, with ``--trace``, the tracer summary or, with ``--tracemalloc``,
the traced memory figures. The package must be importable (``src`` on
``PYTHONPATH``).
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    argv_file, result_file, *mode = argv
    with open(argv_file, encoding="utf-8") as fp:
        runs = json.load(fp)
    from stream_mwm import cli

    result: dict = {}
    if mode == ["--trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        call = tracer.wrap("cli.main", cli.main)
    elif mode == ["--tracemalloc"]:
        import tracing

        result["memory"] = {}
        tracing.install_tracemalloc(result["memory"])
        call = cli.main
    elif not mode:
        call = cli.main
    else:
        print(f"child.py: unknown mode {mode}", file=sys.stderr)
        return 2

    result["exit_codes"] = [call(run) for run in runs]
    if mode == ["--trace"]:
        result["trace"] = tracer.summary()
    with open(result_file, "w", encoding="utf-8") as fp:
        json.dump(result, fp)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
