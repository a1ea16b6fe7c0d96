"""Command-line experiment harness.

Subcommands:
  train        train one policy network, write history.csv + checkpoint
  sweep-power  train one network per (budget, scheme) point, all in one
               stack, write sweep_power.csv
  sweep-rho    train one network per scheme in one stack, evaluate on a rho
               grid
  mc-validate  asymptote-vs-Monte-Carlo outage report, write mc_report.csv
  oracle       grid-search baseline, write oracle.csv
  selftest     run the built-in invariant battery

Configuration is a flat key=value text file; command-line flags override it,
and the environment variable HARQPOWER_SEED overrides any configured seed
(but not an explicit --seed).  Every run writes a manifest.txt of the fully
resolved configuration; feeding a manifest back through --config reproduces
the run's CSV outputs byte for byte.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import os
import re
import sys

import numpy as np

from .analytics import evaluate, rate_factors
from .gcn import save_checkpoint
from .montecarlo import estimate_outage_conditional
# bench/spans.py traces the direct estimator under the name estimate_outage
from .montecarlo import estimate_profile as estimate_outage
from .oracle import ComplexityGuard, GridInfeasible, default_grid, grid_search
from .training import (HISTORY_FIELDS, TrainConfig, TrainingDiverged,
                       evaluate_policy, train, train_stack)
from .types import (P_MIN_WATTS, ChannelParams, LinkConfig, PowerPolicy,
                    Scheme, dbw_to_watts)

SEED_ENV_VAR = "HARQPOWER_SEED"

# audit slack applied when reporting a *learned* policy as feasible: the
# dual ascent settles on the constraint boundary, so exact comparisons flip
# on harmless residual oscillation
OUTAGE_AUDIT_SLACK = 1.05
POWER_AUDIT_SLACK = 1.01


class ConfigError(ValueError):
    pass


class CommandError(RuntimeError):
    """A command cannot produce its output; main exits 1."""


CONFIG_SCHEMA = {
    "scheme": str, "rounds": int, "delta": int, "rho": float, "rate": float,
    "payload_bits": float, "bandwidth_hz": float, "outage_target": float,
    "power_budget_dbw": float, "epochs": int, "dataset_size": int,
    "batch_size": int, "lr_weights": float, "lr_lambda": float,
    "lr_upsilon": float, "seed": int, "trials": int, "threads": int,
    "power_dbw": float, "estimator": str, "points": int, "rho_points": int,
    "budget_lo_dbw": float, "budget_hi_dbw": float,
}

# the string keys and the values each accepts, as flags and in a config
CHOICES = {"scheme": tuple(s.value for s in Scheme),
           "estimator": ("direct", "conditional")}

# dBW keys and their bounds: the watts of any accepted value, and of the
# oracle grid's top 3 dB above it, stay finite and normal (floats span about
# 10 ** -307.65 to 10 ** 308.25), and a 1e-9 dB step still moves a value
DBW_KEYS = ("power_dbw", "power_budget_dbw", "budget_lo_dbw", "budget_hi_dbw")
MAX_DBW = math.floor(10.0 * math.log10(sys.float_info.max)) - 3.0
MIN_DBW = math.ceil(10.0 * math.log10(sys.float_info.min))

# smallest accepted value of the integer keys that count something, and
# of the seed (numpy's seed sequences take only non-negative integers)
MIN_INT_VALUES = {"trials": 1, "threads": 1, "epochs": 1, "points": 2,
                  "rho_points": 1, "rounds": 1, "seed": 0}

# LinkConfig and TrainConfig fields are config keys of the same name
DEFAULTS = {
    **{f.name: f.default for f in dataclasses.fields(LinkConfig)},
    **{f.name: f.default for f in dataclasses.fields(TrainConfig)},
    "scheme": "ir", "rounds": 3, "delta": 1, "rho": 0.5,
    "trials": 1_000_000, "threads": 1, "power_dbw": 30.0,
    "estimator": "conditional", "points": 40, "rho_points": 15,
    "budget_lo_dbw": 12.0, "budget_hi_dbw": 18.0,
}


def read_config(path: str) -> dict:
    out = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = body.partition("=")
        key, value = key.strip(), value.strip()
        if key == "command":
            continue  # informational echo in manifests
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = CONFIG_SCHEMA[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}")
    return out


def resolve_config(args: argparse.Namespace) -> dict:
    """defaults < config file < HARQPOWER_SEED < explicit flags."""
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(read_config(args.config))
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            cfg["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}")
    for key in CONFIG_SCHEMA:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    for key, lowest in MIN_INT_VALUES.items():
        if cfg[key] < lowest:
            raise ConfigError(f"{key} must be >= {lowest}, got {cfg[key]}")
    for key, kind in CONFIG_SCHEMA.items():
        if kind is float and not math.isfinite(cfg[key]):
            raise ConfigError(f"{key} must be finite, got {cfg[key]}")
    for key in DBW_KEYS:
        if not MIN_DBW <= cfg[key] <= MAX_DBW:
            raise ConfigError(f"{key} must lie in [{MIN_DBW:g}, {MAX_DBW:g}] "
                              f"dBW, where watts stay finite and normal, "
                              f"got {cfg[key]}")
    if cfg["budget_lo_dbw"] > cfg["budget_hi_dbw"]:
        raise ConfigError(f"budget_lo_dbw {cfg['budget_lo_dbw']} exceeds "
                          f"budget_hi_dbw {cfg['budget_hi_dbw']}")
    # PowerPolicy floors every power at P_MIN_WATTS, so a lower power_dbw
    # would be computed at the floor but reported as itself
    floor_dbw = 10.0 * math.log10(P_MIN_WATTS)
    if cfg["power_dbw"] < floor_dbw:
        raise ConfigError(f"power_dbw must be >= {floor_dbw:g} (the "
                          f"{P_MIN_WATTS:g} W power floor), got {cfg['power_dbw']}")
    for key, allowed in CHOICES.items():
        if cfg[key] not in allowed:
            raise ConfigError(f"unknown {key} {cfg[key]!r}")
    # train and oracle use the configured scheme; the others use all three
    schemes = ((Scheme(cfg["scheme"]),) if args.command in ("train", "oracle")
               else tuple(Scheme))
    # the dataclasses check their own fields; every command builds its
    # objects from this config, so none of them can fail later
    try:
        _channel(cfg)
        _build(LinkConfig, cfg)
        _build(TrainConfig, cfg)
        # a huge rate overflows the factors of the command's schemes
        factors = [(k, scheme, f) for scheme in schemes for k, f in enumerate(
            rate_factors(scheme, cfg["rate"], cfg["rounds"]), 1)]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    except OverflowError:
        factors = None
    if factors is None or not all(math.isfinite(f) for _, _, f in factors):
        raise ConfigError(f"rate {cfg['rate']:g} overflows a rate factor "
                          f"within {cfg['rounds']} rounds")
    # rounding can leave a factor at or below 0 (IR's alternating sum
    # cancels, a factorial overflows, every scheme's 2^rate - 1 of round 1
    # is 0 at a tiny rate), where outages would not be positive
    for k, scheme, f in sorted(factors, key=lambda kf: kf[0]):
        if f <= 0.0:
            advice = ("2^rate - 1 rounds to 0 at this rate" if k == 1
                      else "use fewer rounds")
            raise ConfigError(f"rate {cfg['rate']:g} leaves the {scheme.value} "
                              f"rate factor of round {k} at {f:g}, not "
                              f"positive; {advice}")
    return cfg


def _channel(cfg: dict, rho=None) -> ChannelParams:
    return ChannelParams(rho=cfg["rho"] if rho is None else rho,
                         delta=cfg["delta"], num_rounds=cfg["rounds"])


def _build(cls, cfg: dict, **overrides):
    """Dataclass `cls` from the config keys named after its fields."""
    values = {f.name: cfg[f.name] for f in dataclasses.fields(cls)}
    return cls(**{**values, **overrides})


def fmt(x) -> str:
    return "%.5e" % float(x)


def write_csv(path: str, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def write_manifest(out_dir: str, command: str, cfg: dict) -> None:
    lines = [f"command = {command}"]
    for key in sorted(cfg):
        lines.append(f"{key} = {cfg[key]}")
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _audited_feasible(report, link: LinkConfig) -> bool:
    return (report.outage_profile[-1] <= OUTAGE_AUDIT_SLACK * link.outage_target
            and report.average_power_w <= POWER_AUDIT_SLACK * link.power_budget_w)


def cmd_train(cfg: dict, out_dir: str) -> int:
    scheme = Scheme(cfg["scheme"])
    link = _build(LinkConfig, cfg)
    proto = _channel(cfg, rho=0.0)
    result = train(scheme, link, proto, _build(TrainConfig, cfg))
    rows = [(str(int(r[0])), *map(fmt, r[1:])) for r in result.history]
    write_csv(os.path.join(out_dir, "history.csv"), HISTORY_FIELDS, rows)
    save_checkpoint(os.path.join(out_dir, f"checkpoint_{scheme.value}.txt"),
                    result.weights)
    write_manifest(out_dir, "train", cfg)
    _, rep = evaluate_policy(result.weights, _channel(cfg), link, scheme)
    print(f"trained {scheme.value}: iterations={len(result.history)} "
          f"tau={fmt(rep.latency_s)} pout_K={fmt(rep.outage_profile[-1])} "
          f"pavg={fmt(rep.average_power_w)} "
          f"feasible={int(_audited_feasible(rep, link))}")
    return 0


def cmd_sweep_power(cfg: dict, out_dir: str) -> int:
    # whole-dB steps up to hi; the 1e-9 dB margin keeps hi when rounding leaves
    # decimal ends such as 15.3 and 17.3 a hair short of whole dB apart
    budgets = np.arange(cfg["budget_lo_dbw"], cfg["budget_hi_dbw"] + 1e-9, 1.0)
    runs = [(scheme, _build(LinkConfig, cfg, power_budget_dbw=float(budget)))
            for budget in budgets for scheme in Scheme]
    results = train_stack(runs, _channel(cfg, rho=0.0),
                          _build(TrainConfig, cfg))
    rows = []
    for (scheme, link), result in zip(runs, results):
        _, rep = evaluate_policy(result.weights, _channel(cfg), link, scheme)
        ok = _audited_feasible(rep, link)
        budget = link.power_budget_dbw
        rows.append((fmt(budget), scheme.value, fmt(rep.latency_s),
                     fmt(rep.outage_profile[-1]),
                     fmt(rep.average_power_w), str(int(ok))))
        print(f"budget={budget:g} dBW {scheme.value}: tau={fmt(rep.latency_s)} "
              f"pout_K={fmt(rep.outage_profile[-1])} feasible={int(ok)}")
    write_csv(os.path.join(out_dir, "sweep_power.csv"),
              ("pbar_dbw", "scheme", "tau_s", "pout_K", "pavg_w", "feasible"),
              rows)
    write_manifest(out_dir, "sweep-power", cfg)
    return 0


def cmd_sweep_rho(cfg: dict, out_dir: str) -> int:
    link = _build(LinkConfig, cfg)
    rho_grid = np.linspace(0.0, 0.98, cfg["rho_points"])
    results = train_stack([(scheme, link) for scheme in Scheme],
                          _channel(cfg, rho=0.0), _build(TrainConfig, cfg))
    rows = []
    for scheme, result in zip(Scheme, results):
        name = scheme.value
        save_checkpoint(os.path.join(out_dir, f"checkpoint_{name}.txt"),
                        result.weights)
        for rho in rho_grid:
            _, rep = evaluate_policy(result.weights, _channel(cfg, rho=float(rho)),
                                     link, scheme)
            rows.append((fmt(rho), name, fmt(rep.latency_s),
                         fmt(rep.outage_profile[-1])))
        print(f"swept rho for {name}: {len(rho_grid)} points")
    write_csv(os.path.join(out_dir, "sweep_rho.csv"),
              ("rho", "scheme", "tau_s", "pout_K"), rows)
    write_manifest(out_dir, "sweep-rho", cfg)
    return 0


def cmd_mc_validate(cfg: dict, out_dir: str) -> int:
    channel = _channel(cfg)
    power_w = dbw_to_watts(cfg["power_dbw"])
    policy = PowerPolicy((power_w,) * cfg["rounds"])
    link = _build(LinkConfig, cfg)
    # every ratio divides by the analytic outage, which has no value when
    # the power product underflows to 0 at low powers, and underflows to 0
    # at high ones; such a report has no meaning, so nothing is sampled
    try:
        profiles = {scheme: evaluate(policy, channel, scheme, link).outage_profile
                    for scheme in Scheme}
    except ZeroDivisionError:
        raise CommandError(
            f"the analytic outages divide by zero at {cfg['power_dbw']:g} dBW "
            f"over {cfg['rounds']} rounds, so no Monte-Carlo ratio has a "
            "value") from None
    for scheme, profile in profiles.items():
        if 0.0 in profile:
            raise CommandError(
                f"the analytic {scheme.value} outage after round "
                f"{profile.index(0.0) + 1} underflows to 0 at "
                f"{cfg['power_dbw']:g} dBW, so its Monte-Carlo ratio is "
                "undefined")
    estimator = (estimate_outage_conditional if cfg["estimator"] == "conditional"
                 else estimate_outage)
    estimates = estimator(policy, channel, cfg["rate"], trials=cfg["trials"],
                          seed=cfg["seed"], workers=cfg["threads"])
    rows = []
    for scheme, profile in profiles.items():
        for k, (analytic, est) in enumerate(zip(profile, estimates[scheme]),
                                            start=1):
            ratio = est.mean / analytic
            rows.append((scheme.value, str(k), fmt(analytic), fmt(est.mean),
                         fmt(est.stderr), fmt(ratio)))
            print(f"{scheme.value} k={k}: analytic={fmt(analytic)} "
                  f"mc={fmt(est.mean)} ratio={fmt(ratio)}")
    write_csv(os.path.join(out_dir, "mc_report.csv"),
              ("scheme", "k", "analytic", "mc_mean", "mc_stderr", "ratio"),
              rows)
    write_manifest(out_dir, "mc-validate", cfg)
    return 0


def cmd_oracle(cfg: dict, out_dir: str) -> int:
    scheme = Scheme(cfg["scheme"])
    link = _build(LinkConfig, cfg)
    channel = _channel(cfg)
    result = grid_search(channel, scheme, link,
                         default_grid(link, points=cfg["points"]))
    header = ("scheme", "tau_s", "pout_K", "pavg_w") + tuple(
        f"p{j + 1}_w" for j in range(cfg["rounds"]))
    row = (scheme.value, fmt(result.latency_s), fmt(result.outage_k),
           fmt(result.average_power_w)) + tuple(fmt(p) for p in
                                                result.policy.powers)
    write_csv(os.path.join(out_dir, "oracle.csv"), header, [row])
    write_manifest(out_dir, "oracle", cfg)
    print(f"oracle {scheme.value}: tau={fmt(result.latency_s)} "
          f"powers={[round(p, 4) for p in result.policy.powers]}")
    return 0


def cmd_selftest(cfg: dict, out_dir: str) -> int:
    from .selftest import run_selftest
    results = run_selftest()
    failed = 0
    for name, ok, detail in results:
        line = f"{'PASS' if ok else 'FAIL'} {name}"
        if detail:
            line += f": {detail}"
        print(line)
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


COMMANDS = {
    "train": cmd_train,
    "sweep-power": cmd_sweep_power,
    "sweep-rho": cmd_sweep_rho,
    "mc-validate": cmd_mc_validate,
    "oracle": cmd_oracle,
    "selftest": cmd_selftest,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="harqpower",
                                     description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *keys):
        # so that "-1e-05" and "-inf" after a flag are values, not options;
        # argparse's own negative-number pattern takes only plain decimals
        p._negative_number_matcher = re.compile(r"-\.?\d|-inf|-nan", re.I)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int)
        for key in keys:
            flag = "--" + key.replace("_", "-")
            if key in CHOICES:
                p.add_argument(flag, choices=CHOICES[key])
            else:
                p.add_argument(flag, type=CONFIG_SCHEMA[key])

    common(sub.add_parser("train", help="train one policy network"),
           "scheme", "epochs", "power_budget_dbw", "rounds", "rate",
           "outage_target", "dataset_size", "batch_size")
    common(sub.add_parser("sweep-power", help="latency/outage vs power budget"),
           "epochs", "rho", "budget_lo_dbw", "budget_hi_dbw", "rounds",
           "dataset_size", "batch_size")
    common(sub.add_parser("sweep-rho", help="latency/outage vs correlation"),
           "epochs", "rho_points", "power_budget_dbw", "rounds",
           "dataset_size", "batch_size")
    common(sub.add_parser("mc-validate", help="Monte-Carlo vs asymptote report"),
           "trials", "threads", "rho", "power_dbw", "estimator", "rounds",
           "rate")
    common(sub.add_parser("oracle", help="grid-search baseline"),
           "scheme", "points", "rho", "power_budget_dbw", "rounds",
           "outage_target")
    common(sub.add_parser("selftest", help="run built-in invariant checks"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out
    try:
        os.makedirs(out_dir, exist_ok=True)
        return COMMANDS[args.command](cfg, out_dir)
    except (CommandError, GridInfeasible, TrainingDiverged, ComplexityGuard,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
