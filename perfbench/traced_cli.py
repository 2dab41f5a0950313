"""Run one recipnn CLI invocation with timing wrappers installed.

Usage: python3 traced_cli.py SPANS.json <recipnn arguments...>

Times `import recipnn.cli`, wraps the bindings listed in layers.BINDINGS,
calls recipnn.cli.main with the remaining arguments, puts the bindings back
and writes the import time, absent bindings and spans to SPANS.json. Exits
with the CLI's own exit code. The package must be importable, e.g. through
PYTHONPATH=src.
"""

from __future__ import annotations

import json
import sys
import time

from layers import BINDINGS
from tracing import Tracer, install


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    t0 = time.perf_counter()
    import recipnn.cli
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    restore, absent = install(tracer, BINDINGS)
    try:
        code = recipnn.cli.main(cli_argv)
    finally:
        restore()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "absent": absent,
                   "spans": [s.to_row() for s in tracer.spans]}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
