"""Run one twoatom CLI command in-process with its layer boundaries traced.

    python bench/traced.py SPANS_JSON SUBCOMMAND [FLAGS...]

Wraps the names in ``layers.BOUNDARIES``, calls ``twoatom.cli.main`` with
the remaining arguments, and writes the spans and counters to SPANS_JSON
after the command has finished.  Exits with the command's exit code.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402

from layers import BOUNDARIES  # noqa: E402
from tracer import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer(origin=T0)
    with tracer.span("process", start=0.0):
        with tracer.span("cli.import"):
            import twoatom.cli
        tracer.install(BOUNDARIES)
        try:
            with tracer.span("cli.main"):
                code = twoatom.cli.main(cli_args)
        finally:
            tracer.uninstall()
    with open(spans_path, "w") as fh:
        json.dump({"spans": [asdict(s) for s in tracer.spans],
                   "counters": tracer.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
