"""Correlation graph of a HARQ session and its normalized adjacency.

Rounds are graph vertices.  Edge (i, j) carries the magnitude of the
cross-correlation between the round-i and round-j channel coefficients,
which is symmetric in (i, j); vertex i carries the round's own average
gain, which is one.  The propagation matrix is the symmetric degree
normalization D^{-1/2} H D^{-1/2} with D the diagonal matrix of row sums.

The row sums of the normalized adjacency stay within 2% of 1 for every
correlation level (K = 3, delta = 1), so feature propagation neither
amplifies nor attenuates as the correlation grows.  The policy network is
exactly (p_bar / K) phi A^L 1 above its floor, one weight-only scalar phi
times a fixed profile (see gcn's docstring), and at L = 5 that profile
A^L 1 stays within 3% of 1: a nearly correlation-independent power profile.
"""
from __future__ import annotations

import numpy as np

from .types import ChannelParams

__all__ = ["batch_adjacency", "normalize_adjacency", "session_adjacency"]


def normalize_adjacency(h: np.ndarray) -> np.ndarray:
    """Symmetric degree normalization D^{-1/2} H D^{-1/2}, D = diag(row sums).

    Works on one (K, K) matrix or a stack (..., K, K).  Raises on any
    nonpositive degree.
    """
    d = h.sum(axis=-1)
    if np.any(d <= 0):
        raise ValueError("adjacency degrees must be strictly positive")
    inv_sqrt = 1.0 / np.sqrt(d)
    return h * inv_sqrt[..., :, None] * inv_sqrt[..., None, :]


def batch_adjacency(rho: np.ndarray, num_rounds: int, delta: int) -> np.ndarray:
    """Normalized adjacencies of sessions with correlations `rho`, shape (B, K, K).

    The correlation matrix H has H[i, i] = 1 and, for i != j (0-based),
    H[i, j] = rho^{(i+1) + (j+1) + 2*delta - 2}, the second-order statistic
    of the shared-component fading model.
    """
    k = num_rounds
    # entry (i, j) depends on i + j only: 2K - 1 powers per session
    i, j = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    powers = rho[:, None] ** np.arange(2 * delta, 2 * (k + delta) - 1)
    h = np.take(powers, i + j, axis=1)
    h[:, np.arange(k), np.arange(k)] = 1.0
    return normalize_adjacency(h)


def session_adjacency(channel: ChannelParams) -> np.ndarray:
    """Normalized adjacency of one session, shape (K, K)."""
    return batch_adjacency(np.array([channel.rho]), channel.num_rounds,
                           channel.delta)[0]
