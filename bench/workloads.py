"""Workload plans: the CLI commands one round of each workload runs.

A plan depends only on the workload name, the benchmark seed and the
processor count, so the same seed always gives the same commands.  Each
round of a run repeats the same commands; the program is deterministic in
its inputs, so every round must write the same bytes.

Why the inputs vary as they do:

* Training always uses the program's default seed (4).  Most other
  initialisation seeds give a network whose every output is zero, and
  training from them ends at the power floor (see FOUND in CHANGES.md); a
  seed-dependent failure cannot be part of a workload.  The benchmark seed
  varies the power budgets instead, on 0.5 dB lattices from 14.5 dBW up,
  where 25 epochs reach within the stated gap of the optimum.
* Monte-Carlo uses a seed drawn from the benchmark seed.
* The oracle's correlation and budget are drawn from small lattices.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass

WORKLOADS = ("train", "sweep", "certify")

EPOCHS = 25
# dataset_size / batch_size at the CLI defaults (1000 / 50)
STEPS_PER_EPOCH = 20
TRAIN_SEED = 4
RHO_POINTS = 15
MC_TRIALS = 1 << 18          # eight 32768-trial chunks, so two threads split evenly
MC_ROWS = 9                  # report rows: 3 schemes x K=3 rounds
ORACLE_POINTS = 100


@dataclass(frozen=True)
class Op:
    name: str       # unique within a round; also the output directory name
    argv: tuple     # CLI arguments without --out


def threads_hi() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


def plan(workload: str, seed: int) -> list:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "train":
        budget = rng.choice((14.5, 15.0, 15.5, 16.0))
        return [Op("train", ("train", "--scheme", "ir", "--epochs", str(EPOCHS),
                             "--power-budget-dbw", str(budget),
                             "--seed", str(TRAIN_SEED)))]
    if workload == "sweep":
        # one budget per round, so that a run holds several rounds
        budget = rng.choice((14.5, 15.0, 15.5, 16.0, 16.5, 17.0, 17.5))
        rho_budget = rng.choice((14.5, 15.0, 15.5, 16.0))
        return [
            Op("sweep-power", ("sweep-power", "--epochs", str(EPOCHS),
                               "--budget-lo-dbw", str(budget),
                               "--budget-hi-dbw", str(budget),
                               "--seed", str(TRAIN_SEED))),
            Op("sweep-rho", ("sweep-rho", "--epochs", str(EPOCHS),
                             "--rho-points", str(RHO_POINTS),
                             "--power-budget-dbw", str(rho_budget),
                             "--seed", str(TRAIN_SEED))),
        ]
    if workload == "certify":
        mc_seed = rng.randrange(1 << 31)
        rho = rng.choice((0.3, 0.4, 0.5, 0.6, 0.7))
        budget = rng.choice((14.0, 15.0, 16.0))
        ops = []
        for estimator in ("direct", "conditional"):
            for threads in sorted({1, threads_hi()}):
                ops.append(Op(f"mc-{estimator}-{threads}t",
                              ("mc-validate", "--estimator", estimator,
                               "--trials", str(MC_TRIALS),
                               "--threads", str(threads),
                               "--seed", str(mc_seed))))
        ops.append(Op("oracle", ("oracle", "--scheme", "ir",
                                 "--points", str(ORACLE_POINTS),
                                 "--rho", str(rho),
                                 "--power-budget-dbw", str(budget))))
        return ops
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
