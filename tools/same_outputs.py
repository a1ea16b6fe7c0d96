"""Check that this tree's CLI writes the same bytes as a git ref's.

Usage: python tools/same_outputs.py REF

Extracts REF's src/ with `git archive` into a temporary directory, then
runs each command of COMMANDS in a fresh interpreter against REF's src/
and against this tree's src/, each in an empty directory with HARQPOWER_SEED
unset.  In a command, the value after --config is the text of a config
file, written to run.cfg in that directory first.  It compares the exit
codes, stdout, stderr and every file the command wrote; the path of each
src/ reads as <src> in stdout and stderr, so a traceback differs only if
its text does.  Prints one line per command and exits 1 when any command
differs, naming each difference (for a checkpoint, with the largest move
of a weight in units in the last place), and 2 when REF has no src/ to
archive.
"""
from __future__ import annotations

import argparse
import os
import shlex
import struct
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TINY_TRAIN = ("--epochs", "1", "--dataset-size", "10", "--batch-size", "10")
MC_BIG = ("--trials", "262144")
MC_K4 = ("--trials", "70001", "--rounds", "4", "--rho", "0.9",
         "--power-dbw", "10")
MC_K1 = ("--trials", "70001", "--rounds", "1", "--rho", "0",
         "--power-dbw", "0")
# one Adam step sends the weights to about 1e300, where the network's
# products overflow
LR_HUGE = ("--config", "lr_weights = 1e300", "--dataset-size", "10",
           "--batch-size", "10")
# one trial past a direct block and one past a chunk, at K=3 and K=1
MC_EDGES = [("--trials", trials) + rounds for trials in ("4097", "32769")
            for rounds in ((), ("--rounds", "1"))]

COMMANDS = [
    ("train", "--epochs", "25", "--scheme", "ir", "--power-budget-dbw", "14.5"),
    ("train", "--epochs", "25", "--scheme", "cc", "--power-budget-dbw", "16"),
    ("train", "--epochs", "25", "--scheme", "type1",
     "--power-budget-dbw", "15.5"),
    ("train", "--power-budget-dbw", "1000") + TINY_TRAIN,
    ("train", "--power-budget-dbw", "2000") + TINY_TRAIN,
    ("train", "--seed", "-1") + TINY_TRAIN,
    # a dead seed: the initial network outputs the floor for every sample
    ("train", "--seed", "7") + TINY_TRAIN,
    ("train", "--rounds", "400") + TINY_TRAIN,
    ("train", "--rounds", "8") + TINY_TRAIN,
    ("sweep-power", "--epochs", "25", "--budget-lo-dbw", "14.5",
     "--budget-hi-dbw", "17.5"),
    ("sweep-power", "--epochs", "25"),
    # the default: 7 budgets x 3 schemes at 500 epochs, the only command
    # that trains the 21-run stack for 10,000 steps, where any ulp shows
    ("sweep-power",),
    ("sweep-rho", "--epochs", "25"),
    ("sweep-rho", "--epochs", "1", "--rounds", "6", "--rho-points", "5"),
    ("sweep-power", "--budget-lo-dbw=-1e8", "--budget-hi-dbw=-1e8")
    + TINY_TRAIN,
    # low budgets where some runs take half-size (guarded) steps and others
    # do not
    ("sweep-power", "--budget-lo-dbw", "8", "--budget-hi-dbw", "10",
     "--epochs", "5"),
    # every sample's average power is finite, but the batch's sum overflows
    ("train", "--scheme", "type1", "--rounds", "1", "--power-budget-dbw",
     "3075") + TINY_TRAIN,
    # training steps that fail, each naming its run
    ("train", "--epochs", "1") + LR_HUGE,
    ("train", "--epochs", "2") + LR_HUGE,
    ("sweep-power", "--epochs", "2") + LR_HUGE,
    ("train", "--config", "lr_weights = 1.79e308", "--epochs", "1",
     "--scheme", "cc", "--power-budget-dbw", "10", "--dataset-size", "10",
     "--batch-size", "10"),
    # the training step's shape edges: one round (no retransmission terms),
    # a stack of 15 five-round runs, and two rounds
    ("train", "--rounds", "1", "--epochs", "25"),
    ("sweep-power", "--rounds", "5", "--epochs", "5", "--budget-lo-dbw", "14",
     "--budget-hi-dbw", "16"),
    ("sweep-rho", "--rounds", "2", "--epochs", "5"),
    # a dataset size that is not a multiple of the batch size: each epoch
    # leaves samples over, alone and in a stack
    ("train", "--epochs", "2", "--dataset-size", "23", "--batch-size", "5"),
    ("sweep-power", "--epochs", "2", "--budget-lo-dbw", "14",
     "--budget-hi-dbw", "15", "--dataset-size", "37", "--batch-size", "9"),
    *[("mc-validate", "--estimator", est, "--threads", threads) + MC_BIG
      for est in ("direct", "conditional") for threads in ("1", "2", "3")],
    *[("mc-validate", "--estimator", est, "--threads", threads) + mc
      for mc in (MC_K4, MC_K1, *MC_EDGES) for est in ("direct", "conditional")
      for threads in ("1", "3")],
    ("mc-validate", "--power-dbw", "600"),
    ("mc-validate", "--power-dbw", "1000", "--trials", "1000"),
    ("mc-validate", "--power-dbw", "3000", "--trials", "1000"),
    ("mc-validate", "--trials", "1000", "--rate", "1000"),
    ("mc-validate", "--rounds", "12", "--trials", "2000"),
    ("mc-validate", "--rate", "3", "--rounds", "25", "--trials", "1000"),
    ("mc-validate", "--rate", "17.75", "--rounds", "55", "--power-dbw=-60",
     "--trials", "1000"),
    # ir's rate factor of round 2 cancels to 0 at this rate: train uses
    # only type1's, mc-validate all three schemes'
    ("train", "--scheme", "type1", "--rate", "1e-15", "--rounds", "2")
    + TINY_TRAIN,
    ("mc-validate", "--rate", "1e-15", "--rounds", "2", "--trials", "1000"),
    ("oracle", "--points", "40"),
    ("oracle", "--rounds", "4", "--points", "12"),
    ("oracle", "--points", "100", "--rho", "0.6"),
    # the oracle bisects each row's last-round axis: one round (a single
    # row), two, both correlation extremes and a deep outage target
    ("oracle", "--rounds", "1", "--power-budget-dbw", "30"),
    ("oracle", "--rounds", "2", "--points", "100"),
    ("oracle", "--rho", "0"),
    ("oracle", "--rho", "0.99"),
    ("oracle", "--outage-target", "1e-6", "--power-budget-dbw", "30"),
    # a budget that no grid point meets: exit 1
    ("oracle", "--power-budget-dbw", "5"),
    # latencies flat in the last power (tiny outages), which the search
    # breaks toward the smallest one, and latencies that overflow
    ("oracle", "--scheme", "type1", "--config", "rate = 1e-15"),
    ("oracle", "--scheme", "cc", "--config", "bandwidth_hz = 1e-300"),
    ("selftest",),
]


def extract_src(ref: str, dest: Path) -> Path:
    """REF's src/ under dest; raises CalledProcessError for a bad ref."""
    dest.mkdir()
    archive = dest / "src.tar"
    subprocess.run(["git", "-C", str(ROOT), "archive", f"--output={archive}",
                    ref, "src"], check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def run_command(src: Path, argv, cwd: Path) -> dict:
    """Exit code, stdout, stderr and output files of one command."""
    argv = list(argv)
    if "--config" in argv:
        at = argv.index("--config") + 1
        (cwd / "run.cfg").write_text(argv[at] + "\n")
        argv[at] = "run.cfg"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("HARQPOWER_SEED", None)
    proc = subprocess.run([sys.executable, "-m", "harqpower", *argv,
                           "--out", "out"], cwd=cwd, env=env,
                          capture_output=True)
    here = str(src).encode()
    result = {"exit code": proc.returncode,
              "stdout": proc.stdout.replace(here, b"<src>"),
              "stderr": proc.stderr.replace(here, b"<src>")}
    for path in sorted(cwd.rglob("*")):
        if path.is_file():
            result[str(path.relative_to(cwd))] = path.read_bytes()
    return result


def checkpoint_weights(text: bytes) -> list:
    """The weights of a checkpoint file, in file order."""
    return [float(x) for line in text.decode().splitlines()[4:]
            if not line.startswith("matrix") for x in line.split()]


def ordered(x: float) -> int:
    """x's place among the doubles: adjacent doubles differ by one."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def differences(ref: dict, new: dict) -> list:
    diffs = []
    for key in sorted(set(ref) | set(new)):
        if key not in new:
            diffs.append(f"{key} missing")
        elif key not in ref:
            diffs.append(f"{key} new")
        elif key == "exit code" and ref[key] != new[key]:
            diffs.append(f"exit code {ref[key]} -> {new[key]}")
        elif ref[key] != new[key]:
            diffs.append(f"{key} differs")
            if Path(key).name.startswith("checkpoint_"):
                old, now = (checkpoint_weights(ref[key]),
                            checkpoint_weights(new[key]))
                if len(old) == len(now):
                    ulp = max(abs(ordered(a) - ordered(b))
                              for a, b in zip(old, now))
                    diffs[-1] += f" (weights move by up to {ulp} ulp)"
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git ref to compare against, e.g. HEAD~1")
    args = parser.parse_args(argv)
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        try:
            ref_src = extract_src(args.ref, tmp / "ref")
        except subprocess.CalledProcessError:
            print(f"error: git cannot archive src/ at {args.ref}",
                  file=sys.stderr)
            return 2
        for i, command in enumerate(COMMANDS):
            outputs = []
            for name, src in (("ref", ref_src), ("new", ROOT / "src")):
                cwd = tmp / f"{i}-{name}"
                cwd.mkdir()
                outputs.append(run_command(src, command, cwd))
            diffs = differences(*outputs)
            differ += bool(diffs)
            line = shlex.join(command)
            print(f"DIFF  {line}: {'; '.join(diffs)}" if diffs
                  else f"same  {line}", flush=True)
    print(f"{differ} of {len(COMMANDS)} commands differ from {args.ref}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
