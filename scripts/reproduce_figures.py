#!/usr/bin/env python3
"""Regenerate the figure sweep CSVs from the checked-in configs.

Writes one CSV per config into out/ (optimal power fractions at 0/10 dB and
the full scheme comparison at 3/10 dB). Feed the CSVs to any plotting tool;
the f-hat curves live in the rate_splitting_f1 column, the rate curves in
the per-scheme rate columns.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from meshrates.cli import main  # noqa: E402

CONFIGS = ["fig3_p0db.cfg", "fig3_p10db.cfg", "fig4_p3db.cfg", "fig5_p10db.cfg"]


def run() -> int:
    out_dir = ROOT / "out"
    out_dir.mkdir(exist_ok=True)
    for name in CONFIGS:
        target = out_dir / name.replace(".cfg", ".csv")
        code = main(["sweep",
                     "--config", str(ROOT / "configs" / name),
                     "--output", str(target)])
        if code != 0:
            print(f"sweep failed for {name} (exit {code})", file=sys.stderr)
            return code
        print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
