"""Time a training step of this tree against a git ref's.

Usage: python tools/step_timing.py REF

Extracts REF's src/ with same_outputs.extract_src, then times train_stack
on the default dataset (1,000 samples, batches of 50) for 25 epochs, at
stacks of R = 1, 3 and 21 runs taken in order from 14-20 dBW x the three
schemes.  Each timing runs in a fresh interpreter, REF's and this tree's
alternating, which one goes first swapping from pair to pair; each
interpreter makes one warm-up call and then times one call, whose setup
(dataset constants, profiles, dead-network check) is counted in its
microseconds per step.  Prints, for each R, both trees' median
microseconds per step over PAIRS pairs and how many pairs each one won.
Exits 2 when REF has no src/ to archive.
"""
from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from same_outputs import ROOT, extract_src

PAIRS = 10
STACKS = (1, 3, 21)
EPOCHS = 25

# one interpreter's timing: argv[1] is R; prints microseconds per step
CHILD = f"""
import sys, time
from harqpower.training import TrainConfig, train_stack
from harqpower.types import ChannelParams, LinkConfig, Scheme
runs = [(scheme, LinkConfig(power_budget_dbw=float(budget)))
        for budget in range(14, 21) for scheme in Scheme][:int(sys.argv[1])]
cfg, proto = TrainConfig(epochs={EPOCHS}), ChannelParams(rho=0.0)
train_stack(runs, proto, cfg)
start = time.perf_counter()
train_stack(runs, proto, cfg)
steps = cfg.epochs * (cfg.dataset_size // cfg.batch_size)
print(1e6 * (time.perf_counter() - start) / steps)
"""


def step_us(src: Path, n_runs: int) -> float:
    """Microseconds per step of one timed train_stack call on `src`."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(n_runs)],
                          env=env, capture_output=True, text=True, check=True)
    return float(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git ref to compare against, e.g. HEAD~1")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        try:
            ref_src = extract_src(args.ref, Path(tmp) / "ref")
        except subprocess.CalledProcessError:
            print(f"error: git cannot archive src/ at {args.ref}",
                  file=sys.stderr)
            return 2
        trees = {args.ref: ref_src, "this tree": ROOT / "src"}
        for n_runs in STACKS:
            times = {name: [] for name in trees}
            for pair in range(PAIRS):
                names = list(trees)[::1 if pair % 2 == 0 else -1]
                for name in names:
                    times[name].append(step_us(trees[name], n_runs))
            (ref, ref_t), (new, new_t) = times.items()
            ref_wins = sum(r < n for r, n in zip(ref_t, new_t))
            new_wins = sum(n < r for r, n in zip(ref_t, new_t))
            print(f"R={n_runs}: {ref} {statistics.median(ref_t):.1f} us/step, "
                  f"{new} {statistics.median(new_t):.1f} us/step (medians "
                  f"of {PAIRS} pairs); {ref} won {ref_wins}, {new} won "
                  f"{new_wins}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
