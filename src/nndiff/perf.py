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
import math
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
        if not (0.0 < self.tpp < math.inf and 0.0 < self.streams_bw < math.inf):
            raise PerfModelError("envelope rates must be positive and finite")


def arithmetic_intensity(ledger: OpLedger) -> float:
    """Total FLOPs per modeled byte of memory traffic."""
    nbytes = ledger.bytes
    if nbytes <= 0:
        raise PerfModelError("arithmetic intensity undefined: no bytes recorded")
    return ledger.flops / nbytes


def efficiency(ledger: OpLedger, wall_time: float, envelope: PerfEnvelope) -> dict:
    """The roofline report of one solve, as report.json's ``perf`` section holds it."""
    if not 0.0 < wall_time < math.inf:
        raise PerfModelError(f"wall time must be positive and finite, got {wall_time}")
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
    return {
        "flops": ledger.flops,
        "bytes": ledger.bytes,
        "ai": ai,
        "wall_time_s": wall_time,
        "measured_flops_per_s": measured,
        "ideal_flops_per_s": ideal,
        "efficiency_pct": pct,
        "bound": bound,  # "memory" | "compute"
        "over_unity": over,
        "kernels": [{"name": name, **tally} for name, tally in sorted(ledger.breakdown().items())],
    }
