#!/usr/bin/env python3
"""Show every compilation stage for one source file: tokens, AST, desugared
core, block classification, and grammar automata.

    python scripts/dump_stages.py FILE.cyan [PROTO]
"""

import os
import sys

# the checkout's sources come first, installed or not
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from cyanine.cli import main as cli_main  # noqa: E402


def main(argv):
    if not argv:
        print(__doc__)
        return 64
    path = argv[0]
    proto = argv[1] if len(argv) > 1 else None
    for flag in ("--dump-tokens", "--dump-ast", "--dump-desugar", "--dump-blocks"):
        print(f"==== {flag} {path}")
        cli_main([flag, path])
    if proto:
        print(f"==== --dump-grammar {proto}")
        cli_main(["--dump-grammar", proto, path])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
