"""Run one epops CLI invocation under a Tracer and write its spans as JSON.

Usage: python3 perfbench/traced_cli.py SPANS.json <epops arguments...>
The exit code is the CLI's own.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    spans, argv = Path(sys.argv[1]), sys.argv[2:]
    import epops.cli

    tracer = Tracer()
    tracer.install()
    try:
        return epops.cli.main(argv)
    finally:
        tracer.uninstall()
        spans.write_text(json.dumps(tracer.snapshot()))


if __name__ == "__main__":
    sys.exit(main())
