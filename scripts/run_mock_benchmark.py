#!/usr/bin/env python3
"""Run the full retrospective benchmark on the bundled demo survey.

Materializes a self-contained workspace (survey, outline, feeds, span
annotations, scripted mock scenario), runs the framework and both
baselines over it, and prints the resulting report. Everything is
offline and deterministic; re-running reproduces the same bytes.

Usage:
    python scripts/run_mock_benchmark.py [--workdir DIR] [--methods LIST]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from dynsurvey.benchmark import METHODS
from dynsurvey.cli import main as cli_main
from dynsurvey.demo import write_demo_workspace


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="demo_run",
                        help="directory for the generated workspace (default: demo_run)")
    parser.add_argument("--methods", default=",".join(METHODS),
                        help="comma-separated methods to run")
    args = parser.parse_args()

    paths = write_demo_workspace(args.workdir)
    print(f"demo workspace written to {Path(args.workdir).resolve()}")
    code = cli_main(["--config", str(paths["config"]),
                     "benchmark", "--methods", args.methods])
    if code != 0:
        return code
    report = Path(args.workdir) / "out" / "report.txt"
    print()
    print(report.read_text(encoding="utf-8"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
