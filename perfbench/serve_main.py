"""Run the ``repro`` CLI with the layer wrappers installed.

Usage: ``python3 perfbench/serve_main.py FLUSH_DIR serve start ...``

The serve workload starts its traced server through this launcher: the
wrappers go in before the server forks its worker pool, so the pool
inherits them, and the server's own counters are written to
``FLUSH_DIR`` when the CLI returns (after a drain).
"""

from __future__ import annotations

import os
import sys


def main(argv: list) -> int:
    flush_dir, cli_args = argv[0], argv[1:]
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    from layers import LayerProfiler

    import repro.cli

    profiler = LayerProfiler(flush_dir)
    profiler.install()
    try:
        return repro.cli.main(cli_args)
    finally:
        profiler.flush(main=True)
        profiler.remove()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
