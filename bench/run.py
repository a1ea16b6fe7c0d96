"""harqpower benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload {train,sweep,certify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The program is imported from ./src and
driven through its CLI entry point `harqpower.cli.main`, in-process.  A run
repeats whole rounds of the workload's commands (bench/workloads.py) until
`--seconds` have passed, checks the first round's outputs against
bench/reference.py and every later round against the first, and prints one
JSON object as its last line of output:

* --trace 0: the end-to-end metrics of BENCHMARK.json;
* --trace 1: the per-layer metrics of bench/spans.py.  Rounds alternate
  between untraced and traced, so the run also reports the tracing overhead.

Outputs go under ./.bench_out/<workload>/.  The exit code is 2, with no
result line, when the checkout has no harqpower sources.
"""
from __future__ import annotations

import argparse
import contextlib
import filecmp
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 7
sys.path.insert(0, HERE)

from workloads import WORKLOADS, Op, plan  # noqa: E402


@dataclass
class Done:
    op: Op
    out: str
    stdout: str
    error: str | None


def die(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_program() -> dict:
    if not os.path.isfile(os.path.join(SRC, "harqpower", "cli.py")):
        die(f"no harqpower sources under {SRC}")
    sys.path.insert(0, SRC)
    from harqpower import autodiff, cli, montecarlo, training
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        die(f"imported harqpower from {cli.__file__}, not from {SRC}")
    return {"cli": cli, "training": training, "autodiff": autodiff,
            "montecarlo": montecarlo}


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import harqpower and
    resolve the workload's command lines."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"),
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            die(f"set-up probe failed:\n{proc.stderr}")
    return statistics.median(times)


def run_round(cli, ops, round_dir):
    done = []
    for op in ops:
        out = os.path.join(round_dir, op.name)
        buf = io.StringIO()
        error = None
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(op.argv) + ["--out", out])
            if rc != 0:
                error = f"exit code {rc}"
        except (Exception, SystemExit) as exc:  # a failed operation, counted
            error = f"{type(exc).__name__}: {exc}"
        done.append(Done(op, out, buf.getvalue(), error))
    return done


def same_outputs(a: Done, b: Done) -> bool:
    names = sorted(os.listdir(a.out))
    return (a.stdout == b.stdout and names == sorted(os.listdir(b.out))
            and all(filecmp.cmp(os.path.join(a.out, n), os.path.join(b.out, n),
                                shallow=False) for n in names))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    modules = load_program()
    cli = modules["cli"]
    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    ops = plan(args.workload, args.seed)
    work_dir = os.path.join(OUT, args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer(modules)
    rounds, walls, cpus, traced_walls = [], [], [], []
    begin = time.perf_counter()
    while (time.perf_counter() - begin < args.seconds
           or (tracer is not None and not traced_walls)):
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            done = run_round(cli, ops, os.path.join(work_dir,
                                                    f"round-{len(rounds)}"))
        finally:
            if traced:
                tracer.uninstall()
        (traced_walls if traced else walls).append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
        rounds.append(done)
    # the program's peak, read before the checks import the reference code
    # (scipy.stats, scipy.optimize) and run its solvers in this process
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = [d for r in rounds for d in r if d.error]
    for d in failed:
        print(f"bench: {d.op.name} failed: {d.error}", file=sys.stderr)
    first = rounds[0]
    if any(d.error for d in first):
        problems = ["round 0 failed, so its outputs were not checked"]
    else:
        from checks import check
        problems = check(args.workload, ops, [d.out for d in first],
                         [d.stdout for d in first])
    for i, r in enumerate(rounds[1:], 1):
        for a, b in zip(first, r):
            if not (a.error or b.error or same_outputs(a, b)):
                problems.append(f"round {i} {b.op.name}: outputs differ from round 0")
        shutil.rmtree(os.path.join(work_dir, f"round-{i}"), ignore_errors=True)
    for p in problems:
        print(f"bench: check failed: {p}", file=sys.stderr)

    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds of "
          f"{len(ops)} commands: {', '.join(' '.join(op.argv) for op in ops)}")
    print("round wall s: " + " ".join(f"{w:.3f}" for w in walls))
    print("round cpu s: " + " ".join(f"{c:.3f}" for c in cpus))
    if tracer is not None:
        from spans import PER_LAYER, layer_metrics
        values = layer_metrics(tracer, len(traced_walls), traced_walls, walls)
        tracer.dump(os.path.join(OUT, f"{args.workload}-trace.jsonl"))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        # Means over the run's rounds, not medians: the host switches between
        # a fast and a slow state in phases of seconds, and a run's median
        # round jumps from one state to the other while its mean moves with
        # the share of time spent in each (see bench/README.md).
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.fmean(walls), "unit": "s"},
            "cpu_s": {"value": statistics.fmean(cpus), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems,
                      "attempted": sum(len(r) for r in rounds),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
