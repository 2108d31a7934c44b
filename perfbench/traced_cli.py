"""Run one hmetric CLI command with spans around the public functions it
calls through ``hmetric.cli``, then write the spans as JSON.

    python3 perfbench/traced_cli.py SPANS_JSON COMMAND [ARGS...]

The command's own span is named ``cli.<command>``; its self time is the
command's work outside those calls, such as writing the curve CSVs.
"""

from __future__ import annotations

import sys
from pathlib import Path

from spans import Tracer

# Library functions the curves command calls through hmetric.cli; a name
# the module no longer imports is skipped.
CALLEES = ("read_scores_csv", "ingest", "empirical_cdfs", "resolve_priors", "resolve_weight",
           "loss_curve")


def main(spans_path: str, args: list[str]) -> int:
    import hmetric.cli as cli

    tracer = Tracer()
    for name in CALLEES:
        if hasattr(cli, name):
            setattr(cli, name, tracer.wrap(f"cli.{name}", getattr(cli, name)))
    try:
        with tracer.span(f"cli.{args[0]}"):
            cli.main.main(args=args, standalone_mode=False)
    finally:
        tracer.dump(Path(spans_path))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
