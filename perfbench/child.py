"""Runs `oneshot-ids` in this process, as its console script would.

    python3 child.py T0 MARKS_JSON SPANS_JSON|- ARGS...

T0 is the parent's `time.monotonic()` just before it spawned this process.
MARKS_JSON receives the time the first experiment began. With a SPANS_JSON
path every call listed in `tracer.TRACED` is recorded and the spans are
written there when the run ends; with `-` only the first-experiment mark
is taken. The exit code is the CLI's own.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    t0, marks_path, spans_path, cli_args = float(argv[0]), Path(argv[1]), argv[2], argv[3:]
    import oneshot_ids.cli as cli

    marks: dict[str, float] = {}
    run_experiment = getattr(cli, "run_experiment", None)
    if run_experiment is not None:  # without it set-up time is reported missing

        def marked(*args, **kwargs):
            marks.setdefault("first_experiment", time.monotonic())
            return run_experiment(*args, **kwargs)

        cli.run_experiment = marked
    if spans_path == "-":
        code = cli.main(cli_args)
    else:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
        root = tracer.open("process", start=t0)
        try:
            code = cli.main(cli_args)
        finally:
            tracer.close(root)
            tracer.dump(spans_path)
    marks_path.write_text(json.dumps(marks) + "\n", encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
