#!/usr/bin/env python3
"""sha256 of every file the eight CLI commands write, in both output formats.

    python scripts/output_digest.py [--set KEY=VALUE ...]

Runs each command of ``morsecontrol.cli`` from this checkout's ``src/`` (no
install needed) in this process with the given ``--set`` pairs, once with
``format=full`` and once with ``format=compact``, into a temporary directory. Prints one ``exit CODE  FORMAT/COMMAND`` line per
run and one ``SHA256  FORMAT/FILE`` line per file written, so two checkouts
compare by diffing this output. A command that rejects the configuration
(for example a list of times for ``carpet``) shows up as its exit code, and
its message goes to stderr.
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from morsecontrol.cli import COMMANDS, main


def digest(settings: list[str]) -> list[str]:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for fmt in ("full", "compact"):
            outdir = root / fmt
            for command in COMMANDS:
                argv = [command, "--outdir", str(outdir), "--set", f"format={fmt}"]
                for item in settings:
                    argv += ["--set", item]
                lines.append(f"exit {main(argv)}  {fmt}/{command}")
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            sha = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{sha}  {path.relative_to(root).as_posix()}")
    return lines


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="configuration override passed to every command (repeatable)")
    print("\n".join(digest(parser.parse_args().set)))
