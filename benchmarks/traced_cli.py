"""Run the repca command line with the benchmark's tracing wrappers installed.

usage: python3 benchmarks/traced_cli.py SPANS_JSON REPCA_ARGS...

Behaves like the ``repca`` console command, then writes the recorded spans,
their file sizes and the moment ``import repca.cli`` returned (on the
monotonic clock, which the parent process shares) to SPANS_JSON.
"""
import json
import sys
import time

import repca.cli

IMPORTED_AT = time.monotonic()

from tracing import CLI_TARGETS, LIBRARY_TARGETS, Tracer  # noqa: E402  (after the timestamp)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.installed(LIBRARY_TARGETS + CLI_TARGETS), tracer.unit_span("cli.main", 0):
        code = repca.cli.main(argv)
    with open(spans_path, "w", encoding="ascii") as fh:
        json.dump({"imported_at": IMPORTED_AT, "spans": tracer.spans, "sizes": tracer.sizes}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
