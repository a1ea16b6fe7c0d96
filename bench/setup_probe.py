"""One set-up: import harqpower from the checkout and resolve a workload's inputs.

run.py starts this script in a fresh interpreter several times and reports
the median wall time of those processes as `setup_s`.

    python3 bench/setup_probe.py --workload train --seed 1
"""
from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from harqpower import cli
    from workloads import plan

    parser = cli.build_parser()
    for op in plan(args.workload, args.seed):
        cli.resolve_config(parser.parse_args(list(op.argv)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
