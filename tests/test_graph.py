"""Tests for the session correlation graph and its normalization.

The hand values below were computed from the exact rational degrees of the
three-round graph at a correlation of one half: the matrix entries are the
dyadic powers 1/8, 1/16, 1/32 and the degrees are 19/16, 37/32 and 35/32.
With unit gains the normalized diagonal is 1/degree, so the correlation
matrix is recovered as H_ij = A_ij / sqrt(A_ii A_jj).
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harqpower.graph import (batch_adjacency, normalize_adjacency,
                             session_adjacency)
from harqpower.types import ChannelParams


def unit_gain_correlation(a: np.ndarray) -> np.ndarray:
    """Correlation matrix behind a normalized adjacency."""
    d = np.sqrt(np.diag(a))
    return a / d[:, None] / d[None, :]


def loop_adjacency(channel: ChannelParams) -> np.ndarray:
    """Reference builder: one scalar loop over the matrix entries."""
    k = channel.num_rounds
    h = np.zeros((k, k))
    for i in range(k):
        h[i, i] = 1.0
        for j in range(i + 1, k):
            expo = (i + 1) + (j + 1) + 2 * channel.delta - 2
            h[i, j] = h[j, i] = channel.rho ** expo
    d = h.sum(axis=1)
    return h / np.sqrt(np.outer(d, d))


def test_uncorrelated_adjacency_is_identity():
    a = session_adjacency(ChannelParams(rho=0.0))
    assert np.array_equal(a, np.eye(3))


def test_correlation_matrix_hand_values():
    h = unit_gain_correlation(session_adjacency(ChannelParams(rho=0.5)))
    assert h[0, 1] == pytest.approx(0.125, rel=1e-15)
    assert h[0, 2] == pytest.approx(0.0625, rel=1e-15)
    assert h[1, 2] == pytest.approx(0.03125, rel=1e-15)


def test_normalized_hand_values():
    a = session_adjacency(ChannelParams(rho=0.5))
    assert a[0, 1] == pytest.approx(0.10667614941253299, rel=1e-15)
    assert a[0, 2] == pytest.approx(0.05484084971070817, rel=1e-15)
    assert a[1, 2] == pytest.approx(0.02778850071883642, rel=1e-15)
    # degrees 19/16, 37/32, 35/32 drive the diagonal
    assert a[0, 0] == pytest.approx(1.0 / 1.1875, rel=1e-15)
    assert a[1, 1] == pytest.approx(1.0 / 1.15625, rel=1e-15)
    assert a[2, 2] == pytest.approx(1.0 / 1.09375, rel=1e-15)


def test_larger_gap_attenuates_edges():
    near = unit_gain_correlation(session_adjacency(ChannelParams(rho=0.5, delta=1)))
    far = unit_gain_correlation(session_adjacency(ChannelParams(rho=0.5, delta=2)))
    assert far[0, 1] == pytest.approx(0.03125, rel=1e-15)  # exponent 3 -> 5
    assert np.all(far[~np.eye(3, dtype=bool)] < near[~np.eye(3, dtype=bool)])


@pytest.mark.parametrize("delta", (1, 2), ids=("unit_gains", "unit_gains_delta2"))
def test_matches_loop_reference(delta):
    rho = np.array([0.0, 0.2, 0.31, 0.5, 0.77, 0.9, 0.98])
    batched = batch_adjacency(rho, 3, delta)
    for i, r in enumerate(rho):
        ref = loop_adjacency(ChannelParams(rho=float(r), delta=delta))
        np.testing.assert_allclose(batched[i], ref, rtol=1e-14, atol=0.0)


def test_batch_slices_do_not_depend_on_the_batch():
    rho = np.random.default_rng(3).random(101)
    full = batch_adjacency(rho, 3, 1)
    assert full.shape == (101, 3, 3)
    sel = np.array([5, 77, 0, 42])
    assert np.array_equal(batch_adjacency(rho[sel], 3, 1), full[sel])
    for i in sel:
        single = session_adjacency(ChannelParams(rho=float(rho[i])))
        assert np.array_equal(single, full[i])


def test_row_sums_stay_near_one_with_uniform_gains():
    for rho in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98, 0.999):
        a = session_adjacency(ChannelParams(rho=rho))
        rows = a.sum(axis=1)
        assert np.all(np.abs(rows - 1.0) < 0.02), (rho, rows)


@given(rho=st.floats(0.0, 0.999), delta=st.integers(1, 4))
@settings(max_examples=60)
def test_adjacency_symmetric_and_positive(rho, delta):
    a = session_adjacency(ChannelParams(rho=rho, delta=delta))
    # normalization multiplies the two degree factors in row order, so
    # symmetry holds to the last rounding only
    assert np.allclose(a, a.T, rtol=0.0, atol=1e-15)
    assert np.all(a >= 0.0)
    assert np.all(np.diag(a) > 0.0)


@given(rho=st.floats(0.01, 0.99))
@settings(max_examples=40)
def test_edges_decay_with_round_distance(rho):
    a = session_adjacency(ChannelParams(rho=rho))
    assert a[0, 1] > a[0, 2] > a[1, 2] > 0.0


def test_normalization_rejects_nonpositive_degrees():
    bad = np.array([[1.0, -3.0], [-3.0, 1.0]])
    with pytest.raises(ValueError):
        normalize_adjacency(bad)
    with pytest.raises(ValueError):
        normalize_adjacency(np.stack([np.eye(2), bad]))


def test_two_round_sessions_supported():
    a = session_adjacency(ChannelParams(rho=0.6, num_rounds=2))
    assert a.shape == (2, 2)
    assert a[0, 1] == pytest.approx(0.6 ** 3 / (1.0 + 0.6 ** 3), rel=1e-14)


@pytest.mark.parametrize("rounds", (1, 3, 8, 40))
@pytest.mark.parametrize("delta", (1, 2))
def test_distinct_powers_match_the_full_formula(rounds, delta):
    # batch_adjacency evaluates the 2K - 1 distinct powers rho^(i+j+2 delta)
    # per session; every entry, and so every degree, keeps the bits of the
    # K^2 formula
    rho = np.concatenate([np.random.default_rng(rounds).random(500),
                          [0.0, 0.5, 0.25, 1e-300, 0.999999]])
    i, j = np.meshgrid(np.arange(rounds), np.arange(rounds), indexing="ij")
    h = rho[:, None, None] ** (i + j + 2 * delta)[None, :, :]
    h[:, np.arange(rounds), np.arange(rounds)] = 1.0
    got = batch_adjacency(rho, rounds, delta)
    assert got.tobytes() == normalize_adjacency(h).tobytes()
