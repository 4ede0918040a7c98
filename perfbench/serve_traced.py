"""``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/serve_traced.py SPANS_PATH [serve arguments...]``

Installs the wrappers, then runs the ``serve`` subcommand (which calls
``repro.service.server.run`` with the command-line defaults).  When the
server has drained after SIGTERM, the spans are written to ``SPANS_PATH``
once, and the process exits with the server's exit code.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.spans import Recorder
    from repro.cli import main as cli_main

    spans_path, serve_args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    code = cli_main(["serve", *serve_args])
    recorder.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
