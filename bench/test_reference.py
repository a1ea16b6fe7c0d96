"""Tests of the benchmark's reference checker.

    python3 -m pytest bench/test_reference.py
"""
from __future__ import annotations

import math

import numpy as np
import pytest

import reference as ref


def test_penalty_identities():
    for rho in (0.0, 0.3, 0.9):
        assert ref.correlation_penalty(rho, 1) == pytest.approx(1.0, abs=1e-15)
    for k in (1, 2, 5):
        assert ref.correlation_penalty(0.0, k) == 1.0
    # t = (1/4, 1/16): (3/4)(15/16)(1 + 1/3 + 1/15) = 63/64
    assert ref.correlation_penalty(0.5, 2) == pytest.approx(63 / 64, rel=1e-15)


def test_rate_factors():
    for rate in (0.5, 2.0, 4.0):
        x = 2.0 ** rate - 1.0
        assert ref.rate_factor("ir", rate, 1) == pytest.approx(x, rel=1e-12)
        c = rate * math.log(2.0)
        # int_0^c s e^s ds = e^c (c - 1) + 1
        assert ref.rate_factor("ir", rate, 2) == pytest.approx(
            2.0 ** rate * (c - 1.0) + 1.0, rel=1e-12)
        for k in (1, 2, 3, 4):
            ir, cc, t1 = (ref.rate_factor(s, rate, k) for s in ("ir", "cc", "type1"))
            assert ir <= cc * (1 + 1e-12) and cc <= t1
    assert ref.rate_factor("cc", 2.0, 3) == 27.0 / 6.0


def test_exact_type1_independent_rounds():
    # rho = 0: rounds are independent unit exponentials
    p = [3.0, 5.0, 7.0]
    exact = ref.type1_exact_outage(p, 0.0, 2.0, 3)
    assert exact == pytest.approx(np.prod([1 - math.exp(-3.0 / q) for q in p]),
                                  rel=1e-9)


def test_exact_type1_matches_sampling():
    rng = np.random.default_rng(12345)
    n, rho, p = 400_000, 0.6, np.array([10.0, 20.0, 30.0])
    t = ref.shared_share(rho, 3)
    a0 = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
    ak = (rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))) / math.sqrt(2)
    h = np.sqrt(1 - t) * ak + np.sqrt(t) * a0[:, None]
    event = np.all(p * np.abs(h) ** 2 < 3.0, axis=1)
    est, se = event.mean(), event.std() / math.sqrt(n)
    assert abs(est - ref.type1_exact_outage(p, rho, 2.0, 3)) < 4 * se


def test_asymptote_converges_to_exact():
    for rho in (0.0, 0.5, 0.8):
        for k in (1, 2, 3):
            p = [1e5] * 3
            asym = ref.asymptotic_outage("type1", p, rho, 2.0)[k - 1]
            assert ref.type1_exact_outage(p, rho, 2.0, k) == pytest.approx(
                asym, rel=5e-4)


def test_known_quadrature_values():
    # quadrature at rho = 0.5, 30 dBW per round, R = 2
    got = [ref.type1_exact_outage([1000.0] * 3, 0.5, 2.0, k) for k in (1, 2, 3)]
    assert got == pytest.approx([2.99550e-3, 9.11504e-6, 2.74262e-8], rel=2e-6)


def test_score_latency_floor():
    link = ref.Link()
    s = ref.score("ir", [1e9] * 3, 0.5, link)
    floor = link.payload_bits / (link.bandwidth_hz * link.rate)
    assert s.latency_s == pytest.approx(floor, rel=1e-8)
    assert s.average_power_w == pytest.approx(1e9, rel=1e-6)


def test_propagation_matrix():
    assert np.allclose(ref.propagation_matrix(0.0, 3), np.eye(3))
    a = ref.propagation_matrix(0.7, 4)
    assert np.allclose(a, a.T)
    assert np.all(a > 0)


def test_checkpoint_forward(tmp_path):
    path = tmp_path / "ck.txt"
    path.write_text("HARQPOWER-GCN 1\ndims 1 2 1\nactivations relu linear\n"
                    "seed 0\nmatrix 0 1 2\n1.0 -1.0\nmatrix 1 2 1\n2.0\n5.0\n")
    net = ref.read_checkpoint(path)
    assert [m.shape for m in net.matrices] == [(1, 2), (2, 1)]
    # rho = 0: identity propagation, relu keeps the first feature only
    p = ref.policy_powers(net, 0.0, 3, 30.0)
    assert np.allclose(p, 2.0 * 10.0)


def test_checkpoint_shape_mismatch(tmp_path):
    path = tmp_path / "ck.txt"
    path.write_text("HARQPOWER-GCN 1\ndims 1 3\nactivations linear\nseed 0\n"
                    "matrix 0 1 2\n1.0 2.0\n")
    with pytest.raises(ValueError):
        ref.read_checkpoint(path)


@pytest.mark.parametrize("scheme", ref.SCHEMES)
def test_optimum_beats_random_feasible_points(scheme):
    link = ref.Link()
    opt = ref.optimum(scheme, 0.5, link)
    assert ref.feasible(opt, link, 1 + 1e-9, 1 + 1e-9)
    assert opt.average_power_w == pytest.approx(link.budget_w, rel=1e-6)
    rng = np.random.default_rng(7)
    for x in rng.uniform(math.log(1.0), math.log(100.0), size=(3000, 3)):
        s = ref.score(scheme, np.exp(x), 0.5, link)
        if ref.feasible(s, link):
            assert s.latency_s >= opt.latency_s * (1 - 1e-9)


def test_optimum_matches_roadmap_ir_figure():
    assert ref.optimum("ir", 0.5, ref.Link()).latency_s == pytest.approx(
        5.529e-2, rel=1e-3)


def test_grid_node():
    axis = np.geomspace(1e-6, 63.0957, 100)
    for v in axis[[0, 37, 99]]:
        assert ref.grid_node(float("%.5e" % v), 1e-6, 63.0957, 100,
                             1e-5) == pytest.approx(v, rel=1e-12)
    assert ref.grid_node(math.sqrt(axis[10] * axis[11]), 1e-6, 63.0957, 100,
                         1e-5) is None
    assert ref.grid_node(100.0, 1e-6, 63.0957, 100, 1e-5) is None
