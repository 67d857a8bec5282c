"""Run one morsecontrol CLI command with call-site tracing on.

    python3 perfbench/traced_cli.py SPANS_JSON COMMAND [ARGS ...]

Behaves like ``python -m morsecontrol.cli COMMAND ARGS`` (same exit code and
outputs) and writes the spans the command produced to SPANS_JSON.
"""

import json
import sys

from tracer import Tracer

if __name__ == "__main__":
    import morsecontrol.cli

    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = morsecontrol.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.take(), fh)
    sys.exit(code)
