#!/usr/bin/env python3
"""Check that the working tree writes the same output bytes as another revision.

For each seed, writes the three perfbench workspaces (by running
``perfbench/workspace.py`` of the working tree in a subprocess; perfbench
is only read), then runs the ``dynsurvey`` command line on them from the
working tree and from an export of ``REV``:

- ``update`` on ``update_feed``, comparing ``survey.updated.json`` and
  ``audit.ndjson``;
- ``benchmark --methods framework`` on ``retro_framework_embed`` and
  ``benchmark --methods one_step,oracle`` on ``retro_baselines``,
  comparing ``report.csv`` and ``report.txt``.

``REV`` is exported with ``git archive`` into a temporary directory, so an
interrupted run leaves nothing registered in the repository. Prints one
line per compared file and exits 1 if any file differs or a command
fails.

Usage:
    python3 scripts/check_outputs.py --against HEAD~1 --seeds 1 2
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Workload, command-line arguments after the config, and the files to compare.
RUNS = (
    ("update_feed", ["update"], ("survey.updated.json", "audit.ndjson")),
    ("retro_framework_embed", ["benchmark", "--methods", "framework"],
     ("report.csv", "report.txt")),
    ("retro_baselines", ["benchmark", "--methods", "one_step,oracle"],
     ("report.csv", "report.txt")),
)
CLI = "import sys; from dynsurvey.cli import main; sys.exit(main(sys.argv[1:]))"


def export(rev: str, out: Path) -> None:
    """Write the files of ``rev`` into ``out``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    out.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(out)], input=archive, check=True)


def run_cli(tree: Path, workspace: Path, out: Path, args: list[str]) -> None:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    subprocess.run([sys.executable, "-c", CLI, "--config", str(workspace / "config.json"),
                    "--out", str(out), *args],
                   check=True, env=env, cwd=workspace, capture_output=True, text=True)


def check(rev: str, seeds: list[int], scratch: Path) -> int:
    base = scratch / "rev"
    export(rev, base)
    different = 0
    for seed in seeds:
        for workload, args, names in RUNS:
            workspace = scratch / f"{workload}-seed{seed}"
            subprocess.run([sys.executable, str(ROOT / "perfbench" / "workspace.py"),
                            "--workload", workload, "--seed", str(seed),
                            "--out", str(workspace)], check=True)
            outs = {}
            for label, tree in (("tree", ROOT), ("rev", base)):
                outs[label] = workspace / f"out-{label}"
                run_cli(tree, workspace, outs[label], args)
            for name in names:
                same = (outs["tree"] / name).read_bytes() == (outs["rev"] / name).read_bytes()
                different += not same
                print(f"{'same' if same else 'DIFFERENT'}  seed {seed}  {workload}/{name}")
    return different


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--against", required=True, metavar="REV",
                        help="git revision to compare the working tree with")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2],
                        help="perfbench workspace seeds (default: 1 2)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="check-outputs-") as scratch:
        try:
            different = check(args.against, args.seeds, Path(scratch))
        except subprocess.CalledProcessError as exc:
            stderr = exc.stderr or ""
            if isinstance(stderr, bytes):
                stderr = stderr.decode(errors="replace")
            print(f"command failed with exit code {exc.returncode}: {exc.cmd}\n{stderr}",
                  file=sys.stderr)
            return 1
    print("outputs identical" if not different else f"{different} file(s) differ")
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main())
