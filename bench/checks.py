"""Output checks for each workload, against bench/reference.py.

check(workload, ops, outs, stdouts) takes one round's commands, their output
directories and their printed output, and returns a list of problems; an
empty list means the round's outputs are correct.  Nothing here reads a stored
copy of earlier output: every expected value is computed by the reference
code or is a property the method must have.
"""
from __future__ import annotations

import csv
import math
import os
import re

import numpy as np

import reference as ref
from workloads import EPOCHS, ORACLE_POINTS, RHO_POINTS, STEPS_PER_EPOCH

# Tolerated distance of a learned policy's latency from the SLSQP optimum
# after 25 epochs.  On the budget lattices the workloads draw from, the
# largest gap measured was 0.49% for IR alone and 0.82% over all schemes
# (Type-I at 14.5 dBW); the default 500 epochs close it to ~0.2%.
TRAIN_GAP = 0.01
SWEEP_GAP = 0.015
# The CLI's own audit slack for learned policies (outage, power).
AUDIT_SLACK = (1.05, 1.01)
# Values written with "%.5e" carry six significant digits.
CSV_REL = 1e-5
# Monte-Carlo agreement, in standard errors.
MC_SIGMAS = 4.0
# Allowed bias of the high-SNR asymptote at 30 dBW per round, where it is
# O(1/SNR); the exact Type-I outage sits 0.46% below it at K=3, rho=0.5.
ASYMPTOTE_BIAS = 0.01
# Direct-estimator rows are compared only when they saw this many outages.
MIN_EVENTS = 100
# CLI defaults the workloads leave in place: learned policies are scored at
# rho = 0.5, and mc-validate runs at rho = 0.5, R = 2, 30 dBW per round.
RHO = 0.5
RATE = 2.0
MC_POWER_W = 1000.0
SLSQP_TOL = 1e-6
# A 100-point geometric grid from 1e-6 W steps powers by ~20%; its best
# point was measured at most 1.2% above the SLSQP optimum (14 dBW).
ORACLE_GAP = 0.025


def _rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, rel: float = CSV_REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _flag(argv, name, default):
    argv = list(argv)
    return float(argv[argv.index(name) + 1]) if name in argv else default


def _gap_problems(label, tau, scheme, budget, gap):
    opt = ref.optimum(scheme, RHO, ref.Link(budget_dbw=budget))
    rel = tau / opt.latency_s - 1.0
    if abs(rel) > gap:
        return [f"{label}: latency {tau:.6e} is {100 * rel:+.3f}% from the "
                f"SLSQP optimum {opt.latency_s:.6e} (allowed {100 * gap}%)"]
    return []


def check_train(op, out, stdout):
    problems = []
    budget = _flag(op.argv, "--power-budget-dbw", 15.0)
    link = ref.Link(budget_dbw=budget)
    hist = _rows(os.path.join(out, "history.csv"))
    if len(hist) != EPOCHS * STEPS_PER_EPOCH:
        problems.append(f"history.csv has {len(hist)} rows, "
                        f"expected {EPOCHS * STEPS_PER_EPOCH}")
    if [int(r["iter"]) for r in hist] != list(range(len(hist))):
        problems.append("history.csv iterations are not 0..n-1")
    if not all(math.isfinite(float(v)) for r in hist for k, v in r.items()
               if k != "iter"):
        problems.append("history.csv holds a non-finite value")
    m = re.search(r"tau=(\S+) pout_K=(\S+) pavg=(\S+) feasible=(\d)", stdout)
    if not m:
        return problems + [f"train printed no summary: {stdout!r}"]
    net = ref.read_checkpoint(os.path.join(out, "checkpoint_ir.txt"))
    s = ref.score("ir", ref.policy_powers(net, RHO, 3, link.budget_w), RHO, link)
    for name, printed, mine in (("tau", m.group(1), s.latency_s),
                                ("pout_K", m.group(2), s.outage[-1]),
                                ("pavg", m.group(3), s.average_power_w)):
        if not _close(float(printed), mine):
            problems.append(f"train printed {name}={printed}, the checkpoint "
                            f"rescores to {mine:.6e}")
    if not ref.feasible(s, link, *AUDIT_SLACK) or m.group(4) != "1":
        problems.append(f"trained policy infeasible: pout={s.outage[-1]:.3e} "
                        f"pavg={s.average_power_w:.4f} W, printed "
                        f"feasible={m.group(4)}")
    return problems + _gap_problems("train", s.latency_s, "ir", budget, TRAIN_GAP)


def check_sweep_power(op, out, stdout):
    problems = []
    lo = _flag(op.argv, "--budget-lo-dbw", 12.0)
    hi = _flag(op.argv, "--budget-hi-dbw", 18.0)
    rows = _rows(os.path.join(out, "sweep_power.csv"))
    expect = [(b, s) for b in np.arange(lo, hi + 0.5, 1.0) for s in ref.SCHEMES]
    got = [(float(r["pbar_dbw"]), r["scheme"]) for r in rows]
    if len(got) != len(expect) or any(
            not _close(g[0], e[0]) or g[1] != e[1] for g, e in zip(got, expect)):
        return [f"sweep_power.csv rows {got} differ from {expect}"]
    for r in rows:
        budget, scheme = float(r["pbar_dbw"]), r["scheme"]
        link = ref.Link(budget_dbw=budget)
        label = f"sweep-power {budget:g} dBW {scheme}"
        ok = (float(r["pout_K"]) <= AUDIT_SLACK[0] * link.outage_target
              and float(r["pavg_w"]) <= AUDIT_SLACK[1] * link.budget_w)
        if r["feasible"] != "1" or not ok:
            problems.append(f"{label}: not feasible ({r})")
        problems += _gap_problems(label, float(r["tau_s"]), scheme, budget,
                                  SWEEP_GAP)
    return problems


def check_sweep_rho(op, out, stdout):
    problems = []
    budget = _flag(op.argv, "--power-budget-dbw", 15.0)
    link = ref.Link(budget_dbw=budget)
    rows = _rows(os.path.join(out, "sweep_rho.csv"))
    if len(rows) != len(ref.SCHEMES) * RHO_POINTS:
        problems.append(f"sweep_rho.csv has {len(rows)} rows")
    nets = {s: ref.read_checkpoint(os.path.join(out, f"checkpoint_{s}.txt"))
            for s in ref.SCHEMES}
    for r in rows:
        rho, scheme = float(r["rho"]), r["scheme"]
        p = ref.policy_powers(nets[scheme], rho, 3, link.budget_w)
        s = ref.score(scheme, p, rho, link)
        if not (_close(float(r["tau_s"]), s.latency_s)
                and _close(float(r["pout_K"]), s.outage[-1])):
            problems.append(f"sweep-rho {scheme} rho={rho}: CSV tau={r['tau_s']} "
                            f"pout={r['pout_K']}, reference {s.latency_s:.5e} "
                            f"{s.outage[-1]:.5e}")
    return problems


def _mc_rows(out):
    rows = _rows(os.path.join(out, "mc_report.csv"))
    return {(r["scheme"], int(r["k"])): {k: float(v) for k, v in r.items()
                                         if k not in ("scheme", "k")}
            for r in rows}


def check_certify(ops, outs):
    """All certify commands of one round together: the checks compare the
    estimators and thread counts with each other."""
    problems = []
    by_name = dict(zip((op.name for op in ops), zip(ops, outs)))
    reports = {}
    for name, (op, out) in by_name.items():
        if not name.startswith("mc-"):
            continue
        estimator = name.split("-")[1]
        with open(os.path.join(out, "mc_report.csv"), "rb") as fh:
            blob = fh.read()
        if estimator in reports and reports[estimator][0] != blob:
            problems.append(f"{name}: report differs from the other thread count")
        reports.setdefault(estimator, (blob, _mc_rows(out), op))

    powers = [MC_POWER_W] * 3
    exact = [ref.type1_exact_outage(powers, RHO, RATE, k) for k in (1, 2, 3)]
    _, cond, op = reports["conditional"]
    _, direct, _ = reports["direct"]
    trials = int(_flag(op.argv, "--trials", 0))
    for scheme in ref.SCHEMES:
        asym = ref.asymptotic_outage(scheme, powers, RHO, RATE)
        for k in (1, 2, 3):
            c, d = cond[(scheme, k)], direct[(scheme, k)]
            label = f"mc {scheme} k={k}"
            for est, row in (("direct", d), ("conditional", c)):
                if not _close(row["analytic"], asym[k - 1]):
                    problems.append(f"{label} {est}: analytic {row['analytic']} "
                                    f"!= reference {asym[k - 1]:.5e}")
            if scheme == "type1":
                if abs(c["mc_mean"] - exact[k - 1]) > MC_SIGMAS * c["mc_stderr"]:
                    problems.append(f"{label}: conditional {c['mc_mean']:.5e} +- "
                                    f"{c['mc_stderr']:.2e} vs exact "
                                    f"{exact[k - 1]:.5e}")
            else:
                allowed = MC_SIGMAS * c["mc_stderr"] + ASYMPTOTE_BIAS * asym[k - 1]
                if abs(c["mc_mean"] - asym[k - 1]) > allowed:
                    problems.append(f"{label}: conditional {c['mc_mean']:.5e} +- "
                                    f"{c['mc_stderr']:.2e} vs asymptote "
                                    f"{asym[k - 1]:.5e}")
            if d["mc_mean"] * trials >= MIN_EVENTS:
                se = math.hypot(d["mc_stderr"], c["mc_stderr"])
                if abs(d["mc_mean"] - c["mc_mean"]) > MC_SIGMAS * se:
                    problems.append(f"{label}: direct {d['mc_mean']:.5e} vs "
                                    f"conditional {c['mc_mean']:.5e} (se {se:.2e})")

    op, out = by_name["oracle"]
    problems += check_oracle(op, out)
    return problems


def check_oracle(op, out):
    rho = _flag(op.argv, "--rho", RHO)
    link = ref.Link(budget_dbw=_flag(op.argv, "--power-budget-dbw", 15.0))
    points = int(_flag(op.argv, "--points", ORACLE_POINTS))
    (row,) = _rows(os.path.join(out, "oracle.csv"))
    lo, hi = ref.POWER_FLOOR_W, 10.0 ** ((link.budget_dbw + 3.0) / 10.0)
    nodes = []
    for j in (1, 2, 3):
        node = ref.grid_node(float(row[f"p{j}_w"]), lo, hi, points, CSV_REL)
        if node is None:
            return [f"oracle power p{j}={row[f'p{j}_w']} is not on the "
                    f"{points}-point geometric grid"]
        nodes.append(node)
    s = ref.score("ir", nodes, rho, link)
    problems = []
    if not ref.feasible(s, link):
        problems.append(f"oracle choice {nodes} is infeasible: "
                        f"pout={s.outage[-1]:.3e} pavg={s.average_power_w:.4f}")
    if not _close(float(row["tau_s"]), s.latency_s):
        problems.append(f"oracle tau={row['tau_s']}, reference {s.latency_s:.5e}")
    opt = ref.optimum("ir", rho, link)
    if s.latency_s < opt.latency_s * (1.0 - SLSQP_TOL):
        problems.append(f"oracle latency {s.latency_s:.6e} beats the SLSQP "
                        f"optimum {opt.latency_s:.6e}")
    if s.latency_s > opt.latency_s * (1.0 + ORACLE_GAP):
        problems.append(f"oracle latency {s.latency_s:.6e} is more than "
                        f"{100 * ORACLE_GAP}% above the SLSQP optimum "
                        f"{opt.latency_s:.6e}")
    return problems


SINGLE = {"train": check_train, "sweep-power": check_sweep_power,
          "sweep-rho": check_sweep_rho}


def check(workload, ops, outs, stdouts) -> list:
    if workload == "certify":
        return check_certify(ops, outs)
    problems = []
    for op, out, stdout in zip(ops, outs, stdouts):
        problems += SINGLE[op.argv[0]](op, out, stdout)
    return problems
