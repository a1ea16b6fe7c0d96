"""Independent reference computations for the benchmark's output checks.

Everything here is derived from the system model, not from harqpower's code:

* round k of a HARQ session sees h_k = sqrt(xi_k) (sqrt(1 - t_k) a_k +
  sqrt(t_k) a_0), t_k = rho^{2(k + delta - 1)}, with a_0..a_K i.i.d. CN(0, 1);
* outage after k rounds at rate R is the event that the received SNRs
  g_j = p_j |h_j|^2 fail the scheme's decoding rule (Type-I: every g_j <
  2^R - 1; chase combining: sum g_j < 2^R - 1; incremental redundancy:
  sum log2(1 + g_j) < R);
* at high SNR that probability is (density of (|h_1|^2..|h_k|^2) at the
  origin) x (volume of the outage region in |h|^2 space).

The density at the origin is E_{a_0}[prod_j exp(-t_j |a_0|^2 / (1 - t_j)) /
(xi_j (1 - t_j))] = 1 / (prod_j xi_j * penalty_k), because |a_0|^2 is a unit
exponential; penalty_k = prod_j (1 - t_j) * (1 + sum_j t_j / (1 - t_j)).
The region's volume is g_k(R) / prod_j p_j, where g_k is the scheme's rate
factor: (2^R - 1)^k for Type-I, (2^R - 1)^k / k! for chase combining, and
for incremental redundancy the integral int_0^{R ln 2} e^s s^{k-1}/(k-1)! ds
(substitute s_j = ln(1 + u_j); the simplex sum s = sum s_j has density
s^{k-1}/(k-1)!).

The module also holds a numpy forward pass of the graph-convolutional policy
read from a checkpoint file, the constrained optimum found by SLSQP over
log-powers, and the exact Type-I outage by quadrature over |a_0|^2 with
noncentral chi-square conditionals.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize, stats

SCHEMES = ("type1", "cc", "ir")

# The network output is floored at this power before it is scored.
POWER_FLOOR_W = 1e-6
# Reported outage probabilities are capped just below one.
OUTAGE_CAP = 1.0 - 1e-9


@dataclass(frozen=True)
class Link:
    rate: float = 2.0               # bits/s/Hz
    payload_bits: float = 1e6
    bandwidth_hz: float = 1e7
    outage_target: float = 1e-2
    budget_dbw: float = 15.0

    @property
    def budget_w(self) -> float:
        return 10.0 ** (self.budget_dbw / 10.0)


@dataclass(frozen=True)
class Score:
    outage: tuple          # capped outage after rounds 1..K
    latency_s: float
    average_power_w: float


def shared_share(rho: float, k: int, delta: int = 1) -> np.ndarray:
    """t_j = rho^{2(j + delta - 1)} for rounds j = 1..k."""
    return float(rho) ** (2.0 * (np.arange(1, k + 1) + delta - 1))


def correlation_penalty(rho: float, k: int, delta: int = 1) -> float:
    t = shared_share(rho, k, delta)
    return float(np.prod(1.0 - t) * (1.0 + np.sum(t / (1.0 - t))))


@functools.lru_cache(maxsize=None)
def rate_factor(scheme: str, rate: float, k: int) -> float:
    x = 2.0 ** rate - 1.0
    if scheme == "type1":
        return x ** k
    if scheme == "cc":
        return x ** k / math.factorial(k)
    if scheme == "ir":
        norm = math.factorial(k - 1)
        val, _ = integrate.quad(lambda s: math.exp(s) * s ** (k - 1) / norm,
                                0.0, rate * math.log(2.0),
                                epsabs=0.0, epsrel=1e-13)
        return val
    raise ValueError(f"unknown scheme {scheme!r}")


def asymptotic_outage(scheme: str, powers, rho: float, rate: float,
                      delta: int = 1, xi=None) -> tuple:
    """Uncapped high-SNR outage after rounds 1..K."""
    p = np.asarray(powers, dtype=np.float64)
    xi = np.ones_like(p) if xi is None else np.asarray(xi, dtype=np.float64)
    out = []
    for k in range(1, len(p) + 1):
        density = 1.0 / (np.prod(xi[:k]) * correlation_penalty(rho, k, delta))
        out.append(density * rate_factor(scheme, rate, k) / np.prod(p[:k]))
    return tuple(float(v) for v in out)


def score(scheme: str, powers, rho: float, link: Link, delta: int = 1) -> Score:
    """Latency L / (B * eta) and average power sum_k p_k P_{k-1} of a policy,
    with eta = R (1 - P_K) / (1 + sum_{k<K} P_k)."""
    p = [float(x) for x in powers]
    pout = [min(v, OUTAGE_CAP)
            for v in asymptotic_outage(scheme, p, rho, link.rate, delta)]
    eta = link.rate * (1.0 - pout[-1]) / (1.0 + sum(pout[:-1]))
    tau = link.payload_bits / (link.bandwidth_hz * eta)
    pavg = sum(pk * prev for pk, prev in zip(p, [1.0] + pout[:-1]))
    return Score(outage=tuple(pout), latency_s=tau, average_power_w=pavg)


def feasible(s: Score, link: Link, outage_slack: float = 1.0,
             power_slack: float = 1.0) -> bool:
    return (s.outage[-1] <= outage_slack * link.outage_target
            and s.average_power_w <= power_slack * link.budget_w)


# --- graph-convolutional policy -------------------------------------------

@dataclass(frozen=True)
class Network:
    activations: tuple
    matrices: tuple


def read_checkpoint(path) -> Network:
    """Parse the plain-text checkpoint: a magic/version line, `dims ...`,
    `activations ...`, `seed ...`, then per layer `matrix i rows cols`
    followed by `rows` whitespace-separated rows."""
    with open(path) as fh:
        lines = [ln.split() for ln in fh if ln.strip()]
    fields = {ln[0]: ln[1:] for ln in lines[:4]}
    dims = [int(d) for d in fields["dims"]]
    acts = tuple(fields["activations"])
    mats, pos = [], 4
    while pos < len(lines):
        tag, _, rows, cols = lines[pos]
        if tag != "matrix":
            raise ValueError(f"{path}: expected a matrix block at line {pos}")
        rows, cols = int(rows), int(cols)
        mats.append(np.array(lines[pos + 1:pos + 1 + rows], dtype=np.float64)
                    .reshape(rows, cols))
        pos += 1 + rows
    if [m.shape for m in mats] != list(zip(dims[:-1], dims[1:])):
        raise ValueError(f"{path}: matrix shapes disagree with dims {dims}")
    return Network(activations=acts, matrices=tuple(mats))


def propagation_matrix(rho: float, k: int, delta: int = 1) -> np.ndarray:
    """Covariance of (h_1..h_k) under unit gains, symmetrically normalised by
    its row sums: C_ij = sqrt(t_i t_j) off the diagonal, 1 on it."""
    s = np.sqrt(shared_share(rho, k, delta))
    c = np.outer(s, s)
    np.fill_diagonal(c, 1.0)
    d = 1.0 / np.sqrt(c.sum(axis=1))
    return d[:, None] * c * d[None, :]


def policy_powers(net: Network, rho: float, k: int, budget_w: float,
                  delta: int = 1) -> np.ndarray:
    a = propagation_matrix(rho, k, delta)
    v = np.full((k, 1), budget_w / k)
    for w, act in zip(net.matrices, net.activations):
        v = a @ v @ w
        if act == "relu":
            v = np.maximum(v, 0.0)
    return np.maximum(v[:, 0], POWER_FLOOR_W)


# --- constrained optimum ---------------------------------------------------

def optimum(scheme: str, rho: float, link: Link, k: int = 3,
            delta: int = 1) -> Score:
    """Minimum-latency feasible policy, by SLSQP over x = ln p.

    Constraints are written scale-free: ln target - ln P_K >= 0 and
    1 - pavg / budget >= 0.  Three starts; the feasible end point of least
    latency wins.
    """
    tau_floor = link.payload_bits / (link.bandwidth_hz * link.rate)
    budget = link.budget_w

    def parts(x):
        return score(scheme, np.exp(x), rho, link, delta)

    cons = (
        {"type": "ineq", "fun": lambda x: math.log(link.outage_target)
         - math.log(parts(x).outage[-1])},
        {"type": "ineq", "fun": lambda x: 1.0 - parts(x).average_power_w / budget},
    )
    lo, hi = math.log(POWER_FLOOR_W), math.log(10.0 * k * budget)
    best = None
    for decay in (1.0, 0.5, 0.25):
        shape = decay ** np.arange(k)
        x0 = np.log(budget * shape / shape[0])
        res = optimize.minimize(lambda x: parts(x).latency_s / tau_floor, x0,
                                method="SLSQP", bounds=[(lo, hi)] * k,
                                constraints=cons,
                                options={"ftol": 1e-14, "maxiter": 500})
        s = parts(res.x)
        if not feasible(s, link, 1.0 + 1e-9, 1.0 + 1e-9):
            continue
        if best is None or s.latency_s < best.latency_s:
            best = s
    if best is None:
        raise RuntimeError(f"SLSQP found no feasible point for {scheme} "
                           f"at rho={rho}, {link.budget_dbw} dBW")
    return best


# --- exact Type-I outage ----------------------------------------------------

def type1_exact_outage(powers, rho: float, rate: float, k: int,
                       delta: int = 1) -> float:
    """P(p_j |h_j|^2 < 2^R - 1 for j = 1..k), unit gains.

    Given s = |a_0|^2, 2 |h_j|^2 / (1 - t_j) is noncentral chi-square with 2
    degrees of freedom and noncentrality 2 t_j s / (1 - t_j), independently
    across rounds; s itself is a unit exponential.
    """
    thr = 2.0 ** rate - 1.0
    t = shared_share(rho, k, delta)
    x = 2.0 * thr / (np.asarray(powers[:k], dtype=np.float64) * (1.0 - t))

    def integrand(s):
        nc = 2.0 * t * s / (1.0 - t)
        return math.exp(-s) * float(np.prod(stats.ncx2.cdf(x, 2, nc)))

    val, _ = integrate.quad(integrand, 0.0, np.inf, epsabs=0.0,
                            epsrel=1e-10, limit=200)
    return val


def grid_node(value: float, lo: float, hi: float, points: int,
              rel_tol: float):
    """The node of np.geomspace(lo, hi, points) within rel_tol of `value`,
    computed as lo * (hi / lo)^(j / (points - 1)), or None."""
    j = round(math.log(value / lo) / math.log(hi / lo) * (points - 1))
    if not 0 <= j < points:
        return None
    node = lo * (hi / lo) ** (j / (points - 1))
    return node if abs(value - node) <= rel_tol * node else None
