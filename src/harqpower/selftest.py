"""Built-in invariant battery, runnable without any test framework.

Each check returns quickly and is deterministic, so the battery is safe to
run in CI or on an install target.  Checks favor identities and exact
expected values over statistical assertions; the two Monte-Carlo checks use
fixed seeds and generous sigma margins.
"""
from __future__ import annotations

import math
import os
import tempfile

import numpy as np

from . import autodiff as ad
from .analytics import (analytic_chain, correlation_factor, evaluate,
                        rate_factors)
from .gcn import (forward, init_weights, load_checkpoint, profile,
                  save_checkpoint)
from .graph import session_adjacency
from .montecarlo import estimate_outage_conditional, estimate_profile
from .oracle import GridInfeasible, GridSpec, default_grid, grid_search
from .training import (AdamState, adam_update, batch_lagrangian,
                       dataset_constants)
from .types import ChannelParams, LinkConfig, PowerPolicy, Scheme


def _expect(ok, what: str = "") -> None:
    """Fail the current check; an explicit raise still runs under python -O."""
    if not ok:
        raise AssertionError(what)


def _check_correlation_identities():
    for rho in (0.0, 0.1, 0.37, 0.73, 0.98):
        _expect(correlation_factor(rho, 1)[0] == 1.0, f"single round at rho={rho}")
    _expect(np.all(correlation_factor(0.0, 5) == 1.0), "rho=0 at k=1..5")
    _expect(correlation_factor(0.5, 2)[1] == 0.984375, "dyadic value at rho=0.5")
    vals = correlation_factor(np.array([0.2, 0.6, 0.9]), 5)
    _expect(np.all((0.0 < vals) & (vals <= 1.0)), "range at rho=0.2, 0.6, 0.9")
    _expect(np.all(vals[:-1] >= vals[1:]), "nonincreasing in k")


def _check_rate_factor():
    ir = Scheme.INCREMENTAL
    for rate in (0.5, 1.0, 2.0, 4.0):
        _expect(rate_factors(ir, rate, 1) == [2.0 ** rate - 1.0], f"K=1 at rate={rate}")
    _expect(rate_factors(ir, 0.0, 4) == [0.0] * 4, "zero rate at k=1..4")
    x = 2.0 * math.log(2.0)
    _expect(abs(rate_factors(ir, 2.0, 3)[2] - (-1.0 + 4.0 * (x * x / 2.0 - x + 1.0)))
            < 1e-12, "closed form at rate=2, K=3")
    for rate in (0.5, 1.0, 2.0, 3.0, 4.0):
        ordered = [rate_factors(s, rate, 5) for s in (ir, Scheme.CHASE, Scheme.TYPE_I)]
        for k, (i, c, t) in enumerate(zip(*ordered), 1):
            _expect(0.0 <= i <= c <= t, f"ordering at rate={rate}, k={k}")


def _check_evaluate():
    link = LinkConfig()
    channel = ChannelParams(rho=0.5)
    policy = PowerPolicy((27.0, 35.0, 25.0))
    rep = evaluate(policy, channel, Scheme.INCREMENTAL, link)
    floor = link.payload_bits / (link.bandwidth_hz * link.rate)
    _expect(rep.latency_s >= floor, "latency below the floor")
    _expect(rep.average_power_w <= sum(policy.powers), "average power too large")
    _expect(all(a >= b for a, b in zip(rep.outage_profile, rep.outage_profile[1:])),
            "outage profile must not increase")
    # Type-I at rate 1 has unit rate factors, so inv_corr sets the outages
    # directly: (1/2, 1/4, 1/8) on powers (2, 4, 8)
    _, eta, _, pavg = analytic_chain((2.0, 4.0, 8.0), (1.0, 2.0, 8.0),
                                     rate_factors(Scheme.TYPE_I, 1.0, 3),
                                     LinkConfig(rate=1.0))
    _expect(eta == 0.5, "throughput hand value")
    _expect(pavg == 6.0, "average power hand value")
    rep = evaluate(PowerPolicy((10.0,)), ChannelParams(rho=0.0, num_rounds=1),
                   Scheme.TYPE_I, link)
    _expect(abs(rep.outage_profile[0] - 0.3) < 1e-15, "single-round outage")


def _check_graph():
    a = session_adjacency(ChannelParams(rho=0.5))
    _expect(np.allclose(a, a.T), "adjacency must be symmetric")
    _expect(a[0, 1] > a[0, 2] > a[1, 2] > 0.0, "off-diagonals decay with i+j")
    # row sums of the normalized adjacency hug 1 at every rho
    for rho in (0.0, 0.3, 0.7, 0.98):
        au = session_adjacency(ChannelParams(rho=rho))
        rows = au.sum(axis=1)
        _expect(np.all(np.abs(rows - 1.0) < 0.02), f"row sums {rows} at rho={rho}")
    ident = session_adjacency(ChannelParams(rho=0.0))
    _expect(np.array_equal(ident, np.eye(3)), "rho=0 must give the identity")
    # hand value: H01 = 0.125, degrees (1.1875, 1.15625)
    expect = 0.125 / math.sqrt(1.1875 * 1.15625)
    _expect(abs(a[0, 1] - expect) < 1e-15, "normalized hand value")


def _check_autodiff():
    # the hand-derived training gradient of a two-layer network against
    # central differences, at weights where no relu or floor switches
    rng = np.random.default_rng(5)
    mats = [rng.uniform(0.5, 1.5, (1, 3)), rng.uniform(0.5, 1.5, (3, 1))]
    adj, inv_corr = dataset_constants(np.array([0.1, 0.5, 0.85]),
                                      ChannelParams(rho=0.0))
    d, runs = profile(adj, len(mats)), [(Scheme.CHASE, LinkConfig())]

    def lagrangian(params):
        return batch_lagrangian(params, d, inv_corr, runs, 0.02, 1e-4)[0]

    params = [ad.parameter(m) for m in mats]
    root = lagrangian(params)
    ad.backward(root)
    grads = [p.adjoint.copy() for p in params]
    step = 1e-6
    for m, g in zip(mats, grads):
        for idx in np.ndindex(m.shape):
            base = m[idx]
            m[idx] = base + step
            hi = float(lagrangian([ad.constant(x) for x in mats]).value)
            m[idx] = base - step
            lo = float(lagrangian([ad.constant(x) for x in mats]).value)
            m[idx] = base
            fd = (hi - lo) / (2.0 * step)
            _expect(abs(fd - g[idx]) <= 1e-6 * max(abs(fd), abs(g[idx])),
                    f"finite-difference mismatch {fd} vs {g[idx]}")
    ad.backward(root)
    _expect(all(np.array_equal(g, p.adjoint) for g, p in zip(grads, params)),
            "backward must be idempotent")
    # train_stack's step on a fresh build: the two ops' computes, then their
    # products from the root's adjoint 1, bit for bit backward's gradient
    root = lagrangian([ad.parameter(m) for m in mats])
    (network,) = root.parents
    network.compute()
    root.compute()
    got = network.vjp(*root.vjp(1.0))
    _expect(all(g.tobytes() == s.tobytes() for g, s in zip(grads, got)),
            "the training step's gradient must equal backward's")


def _check_gcn():
    out = forward(np.eye(3), [np.array([[2.0]])], p_bar_w=6.0).out
    _expect(np.array_equal(out[:, 0], np.array([4.0, 4.0, 4.0])),
            "identity adjacency forward")
    full = init_weights(seed=3)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "ckpt.txt")
        save_checkpoint(path, full)
        back = load_checkpoint(path)
    _expect(all(np.array_equal(a, b)
                for a, b in zip(full.matrices, back.matrices)),
            "checkpoint round trip")


def _check_montecarlo():
    link_rate = 2.0
    ch = ChannelParams(rho=0.0, num_rounds=1)
    est = estimate_profile(PowerPolicy((10.0,)), ch, link_rate,
                           trials=100_000, seed=11)[Scheme.TYPE_I][0]
    exact = 1.0 - math.exp(-0.3)
    _expect(abs(est.mean - exact) <= 4.0 * est.stderr, "direct MC bracket")
    est2 = estimate_outage_conditional(PowerPolicy((1000.0,)), ch, link_rate,
                                       trials=100_000,
                                       seed=11)[Scheme.TYPE_I][0]
    exact2 = 1.0 - math.exp(-0.003)
    _expect(abs(est2.mean / exact2 - 1.0) < 0.01, "conditional MC accuracy")


def _check_oracle():
    ch = ChannelParams(rho=0.5, num_rounds=1)
    link_lo = LinkConfig(power_budget_dbw=18.0, outage_target=0.1)
    link_hi = LinkConfig(power_budget_dbw=21.0, outage_target=0.1)
    grid = GridSpec(points_per_axis=20, p_max_w=100.0)
    lo = grid_search(ch, Scheme.INCREMENTAL, link_lo, grid)
    hi = grid_search(ch, Scheme.INCREMENTAL, link_hi, grid)
    _expect(hi.latency_s <= lo.latency_s, "more budget cannot hurt")
    try:
        grid_search(ch, Scheme.INCREMENTAL, LinkConfig(outage_target=1e-2),
                    default_grid(LinkConfig(), points=10))
    except GridInfeasible:
        pass
    else:
        raise AssertionError("single-round 1e-2 target at 15 dBW must be infeasible")


def _check_adam():
    x = np.array([1.0])
    st = AdamState.like(x)
    adam_update(st, x, np.array([0.3]), lr=0.1)
    expect = 1.0 - 0.1 * 0.3 / (0.3 + 1e-8)
    _expect(abs(x[0] - expect) < 1e-6, "first Adam step")
    adam_update(st, x, np.array([0.0]), lr=0.1)
    frozen = x[0]
    adam_update(st, x, np.array([0.0]), lr=0.0)
    _expect(x[0] == frozen, "zero learning rate must not move weights")


CHECKS = [
    ("correlation-identities", _check_correlation_identities),
    ("rate-factor", _check_rate_factor),
    ("analytic-evaluate", _check_evaluate),
    ("correlation-graph", _check_graph),
    ("autodiff-gradients", _check_autodiff),
    ("gcn-forward-checkpoint", _check_gcn),
    ("monte-carlo", _check_montecarlo),
    ("grid-oracle", _check_oracle),
    ("adam-step", _check_adam),
]


def run_selftest():
    """Run every check; returns a list of (name, passed, detail)."""
    results = []
    for name, fn in CHECKS:
        try:
            fn()
            results.append((name, True, ""))
        except AssertionError as exc:
            results.append((name, False, str(exc)))
        except Exception as exc:  # broken invariant, not just a failed assert
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
    return results
