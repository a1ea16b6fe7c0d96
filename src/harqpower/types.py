"""Shared domain types for the HARQ power-allocation package.

Conventions used throughout:
  * powers are linear watts; dBW appears only at configuration boundaries
  * round indices are 1-based in formulas and 0-based in arrays
  * rate is spectral efficiency in bits/s/Hz
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

# Floor applied to every per-round transmit power (watts).  Keeps the
# analytic outage expressions finite when a learned policy collapses.
P_MIN_WATTS = 1e-6

# Analytic outage values above this are clamped; the asymptotic series is
# only meaningful as a probability when it stays below 1.
OUTAGE_CAP = 1.0 - 1e-9


class Scheme(enum.Enum):
    """Retransmission combining scheme."""

    TYPE_I = "type1"
    CHASE = "cc"
    INCREMENTAL = "ir"


def dbw_to_watts(dbw: float) -> float:
    """Convert a dBW quantity to linear watts."""
    return 10.0 ** (dbw / 10.0)


@dataclass(frozen=True)
class ChannelParams:
    """Time-correlated Rayleigh fading description for one HARQ session.

    rho is the per-slot correlation coefficient, delta the slot gap between
    successive transmissions, and num_rounds the maximum number of
    transmissions K.  Every round has unit average channel gain.
    """

    rho: float
    delta: int = 1
    num_rounds: int = 3

    def __post_init__(self):
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")
        if self.delta < 1 or int(self.delta) != self.delta:
            raise ValueError(f"delta must be a positive integer, got {self.delta}")
        if self.num_rounds < 1 or int(self.num_rounds) != self.num_rounds:
            raise ValueError(f"num_rounds must be a positive integer, "
                             f"got {self.num_rounds}")


@dataclass(frozen=True)
class LinkConfig:
    """Static link parameters shared by every experiment.

    rate = payload bits per channel use.
    """

    rate: float = 2.0
    payload_bits: float = 1e6
    bandwidth_hz: float = 1e7
    outage_target: float = 1e-2
    power_budget_dbw: float = 15.0

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.payload_bits <= 0 or self.bandwidth_hz <= 0:
            raise ValueError("payload_bits and bandwidth_hz must be positive")
        if not 0.0 < self.outage_target < 1.0:
            raise ValueError("outage_target must lie in (0, 1)")

    @property
    def power_budget_w(self) -> float:
        return dbw_to_watts(self.power_budget_dbw)


@dataclass(frozen=True)
class PowerPolicy:
    """Per-round transmit powers in watts, floored at P_MIN_WATTS."""

    powers: tuple

    def __post_init__(self):
        floored = tuple(max(float(p), P_MIN_WATTS) for p in self.powers)
        if len(floored) < 1:
            raise ValueError("policy needs at least one round")
        object.__setattr__(self, "powers", floored)

    @property
    def num_rounds(self) -> int:
        return len(self.powers)


@dataclass
class PerformanceReport:
    """Analytic link metrics for one (policy, channel, scheme) triple."""

    outage_profile: tuple          # clamped P_out for rounds 1..K
    throughput: float              # long-term average throughput, bits/s/Hz
    latency_s: float               # expected delivery latency, seconds
    average_power_w: float         # expected consumed power, watts
    outage_feasible: bool = field(default=False)
    power_feasible: bool = field(default=False)

    @property
    def feasible(self) -> bool:
        return self.outage_feasible and self.power_feasible
