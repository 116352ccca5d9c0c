"""STREAM-style triad and copy bandwidth with numpy (McCalpin, STREAM).

Each array is at least four times the last-level cache, so the loops
stream from main memory.  Bytes are counted the STREAM way: triad
``a = b + s*c`` moves 3 arrays, copy ``a = b`` moves 2, ignoring
write-allocate traffic.  The triad runs in cache-sized chunks so the
intermediate ``s*c`` stays in cache and memory sees one pass per array.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

LLC_PATH = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
MEMINFO_PATH = Path("/proc/meminfo")
CACHE_FACTOR = 4
CHUNK = 1 << 17  # elements; 1 MiB per array chunk
REPEATS = 3


def _parse_size(text: str) -> int:
    text = text.strip()
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text and text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text)


def llc_bytes() -> int | None:
    """Size of cpu0's level-3 cache, or None when the system does not say."""
    try:
        return _parse_size(LLC_PATH.read_text())
    except (OSError, ValueError):
        return None


def mem_available_bytes() -> int | None:
    try:
        for line in MEMINFO_PATH.read_text().splitlines():
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def plan(llc: int | None, available: int | None) -> tuple[int | None, str]:
    """Array size in bytes for the triad, or None with the reason it is skipped.

    The triad's three arrays must fit in half of the available memory.
    """
    if llc is None:
        return None, "last-level cache size unknown"
    array_bytes = CACHE_FACTOR * llc
    if available is None:
        return None, "MemAvailable unknown"
    if 3 * array_bytes > available // 2:
        return None, (
            f"3 arrays of {array_bytes / 2**20:.0f} MiB do not fit in half of "
            f"MemAvailable ({available / 2**20:.0f} MiB)"
        )
    return array_bytes, ""


def measure(array_bytes: int) -> dict:
    """Best-of-REPEATS triad and copy bandwidth in GB/s (1e9 bytes/s)."""
    n = array_bytes // 8
    a = np.zeros(n)
    b = np.full(n, 1.0)
    c = np.full(n, 2.0)
    tmp = np.empty(CHUNK)
    s = 3.0
    triad = copy = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for lo in range(0, n, CHUNK):
            hi = min(lo + CHUNK, n)
            t = tmp[: hi - lo]
            np.multiply(c[lo:hi], s, out=t)
            np.add(b[lo:hi], t, out=a[lo:hi])
        triad = min(triad, time.perf_counter() - t0)
        if a[0] != 7.0 or a[-1] != 7.0:
            raise RuntimeError("triad produced a wrong value")
        t0 = time.perf_counter()
        np.copyto(a, b)
        copy = min(copy, time.perf_counter() - t0)
    if a[0] != 1.0 or a[-1] != 1.0:
        raise RuntimeError("copy produced a wrong value")
    return {
        "triad_gbs": 3 * 8 * n / triad / 1e9,
        "copy_gbs": 2 * 8 * n / copy / 1e9,
        "array_mib": 8 * n / 2**20,
    }
