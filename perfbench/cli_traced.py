"""Run one listfair CLI command with its layers traced.

The traced twin of ``python -m listfair ARG...``: it times
``import listfair.cli`` as the ``cli.import`` span, wraps the layers (see
``spans.py``), calls ``listfair.cli.main`` and writes the spans, plus any
wrapped name that no longer exists, to SPANS_DIR. The exit code is the
CLI's own.

Usage: python3 perfbench/cli_traced.py SPANS_DIR ARG...
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import spans


def main() -> int:
    out_dir = Path(sys.argv[1])
    start = time.perf_counter()
    import listfair.cli

    rec = spans.Recorder(out_dir)
    rec.add(spans.CLI_IMPORT, start, time.perf_counter())
    missing = spans.install(rec)
    try:
        # looked up on the module so that the traced wrapper is the one called
        return listfair.cli.main(sys.argv[2:])
    finally:
        rec.flush()
        if missing:
            (out_dir / "missing.json").write_text(json.dumps(missing), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
