#!/usr/bin/env python3
"""Run the oracle verification suite from the command line.

Equivalent to `meshrates verify`; kept as a script so the suite can be run
straight from a checkout. Optional args: seed (default 0) and a check-name
filter substring.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from meshrates.cli import main  # noqa: E402

if __name__ == "__main__":
    args = ["verify"]
    if len(sys.argv) > 1:
        args += ["--seed", sys.argv[1]]
    if len(sys.argv) > 2:
        args += ["--filter", sys.argv[2]]
    sys.exit(main(args))
