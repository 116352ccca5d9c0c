"""Roofline-style performance metrics over kernel ledgers.

A machine envelope (theoretical peak FLOP rate and streaming memory
bandwidth) bounds the achievable rate at a given arithmetic intensity:

    ideal = min(tpp, ai * streams_bw)

Efficiency compares the measured rate against that bound.  The byte
model assumes a perfect cache, so measured rates above the bound are
possible when real cache reuse beats it; such reports carry an
``over_unity`` flag instead of failing.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .errors import PerfModelError
from .sparse import OpLedger

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PerfEnvelope:
    """Peak FLOP rate (FLOPs/s) and streaming bandwidth (bytes/s)."""

    tpp: float
    streams_bw: float

    def __post_init__(self):
        if self.tpp <= 0.0 or self.streams_bw <= 0.0:
            raise PerfModelError("envelope rates must be positive")


def arithmetic_intensity(ledger: OpLedger) -> float:
    """Total FLOPs per modeled byte of memory traffic."""
    nbytes = ledger.bytes
    if nbytes <= 0:
        raise PerfModelError("arithmetic intensity undefined: no bytes recorded")
    return ledger.flops / nbytes


@dataclass(frozen=True)
class PerfReport:
    flops: int
    bytes: int
    ai: float
    wall_time: float
    measured_rate: float
    ideal_rate: float
    efficiency_pct: float
    bound: str  # "memory" | "compute"
    over_unity: bool
    kernels: tuple


def efficiency(ledger: OpLedger, wall_time: float, envelope: PerfEnvelope) -> PerfReport:
    if wall_time <= 0.0:
        raise PerfModelError("wall time must be positive")
    ai = arithmetic_intensity(ledger)
    bw_bound = ai * envelope.streams_bw
    if bw_bound < envelope.tpp:
        ideal, bound = bw_bound, "memory"
    else:
        ideal, bound = envelope.tpp, "compute"
    measured = ledger.flops / wall_time
    pct = 100.0 * measured / ideal
    over = pct > 100.0
    if over:
        logger.warning(
            "efficiency %.1f%% exceeds the perfect-cache bound "
            "(cache reuse beats the model)", pct,
        )
    kernels = tuple(
        {"name": name, "calls": t.calls, "flops": t.flops, "bytes": t.bytes}
        for name, t in sorted(ledger.breakdown().items())
    )
    return PerfReport(
        flops=ledger.flops,
        bytes=ledger.bytes,
        ai=ai,
        wall_time=wall_time,
        measured_rate=measured,
        ideal_rate=ideal,
        efficiency_pct=pct,
        bound=bound,
        over_unity=over,
        kernels=kernels,
    )


def report_as_dict(report: PerfReport) -> dict:
    return {
        "flops": report.flops,
        "bytes": report.bytes,
        "ai": report.ai,
        "wall_time_s": report.wall_time,
        "measured_flops_per_s": report.measured_rate,
        "ideal_flops_per_s": report.ideal_rate,
        "efficiency_pct": report.efficiency_pct,
        "bound": report.bound,
        "over_unity": report.over_unity,
        "kernels": list(report.kernels),
    }

