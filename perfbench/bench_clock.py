"""Wall times converted to a reference host speed.

The benchmark runs on a shared virtual machine whose speed drifts: the same
solve takes 38 ms in one 3-second window and 59 ms in the next, CPU time
drifts with wall time, and slow phases last from seconds to minutes (see
README.md).  A raw wall time therefore says as much about the host as about
the program.

So every timed call is bracketed by two runs of a gauge: a fixed
pure-Python loop of this file, which calls nothing of the program.  The
gauge does three kinds of work that the program's time is made of, and that
the host's drift slows by different amounts: interpreter work on small
objects (tuples hashed into a dict, list pushes and pops, integer
arithmetic), lookups spread over a table of a few megabytes, and products
of polynomials with big integer coefficients held in dicts.  A call's time
at reference speed is its wall time scaled by ``REFERENCE_S`` over the mean
of the two gauge times around it.  A change to the program leaves the gauge
as it is, so a program that does the same work in less wall time reads
lower here too.
"""

from __future__ import annotations

import gc
import time

# What one gauge run takes at the reference speed.  It is close to the
# gauge's median on the 2-vCPU host the reference figures were measured on,
# so reference seconds there read about like wall seconds.
REFERENCE_S = 0.0065
GAUGE_TRIES = 2
# Loop counts, chosen so that the three parts take about half, a quarter and a
# quarter of a gauge run; that mix tracked the program best (README.md).
_LOOPS = 4000
_LOOKUPS = 2400
_PRODUCTS = 3
_TABLE_SIZE = 1 << 16
_STRIDE = 40503  # odd, so the walk visits every key once per pass
_TABLE = {(i * 2654435761) & 0xFFFFFFFF: i & 255 for i in range(_TABLE_SIZE)}
_KEYS = list(_TABLE)
_POLY = {i: (i * 7919) ** 3 for i in range(-20, 20)}


def _gauge_once() -> int:
    seen: dict = {}
    stack: list = []
    x = 1
    for i in range(_LOOPS):
        key = (i & 255, i % 7, -(i & 15))
        seen[key] = seen.get(key, 0) + 1
        if stack and stack[-1] == -(i & 3):
            stack.pop()
        else:
            stack.append(i & 3)
        x = (x * 3 + i) % 2305843009213693951
    table, keys, j = _TABLE, _KEYS, 0
    for _ in range(_LOOKUPS):
        j = (j + _STRIDE) & (_TABLE_SIZE - 1)
        x += table[keys[j]]
    for _ in range(_PRODUCTS):
        product: dict = {}
        for i, a in _POLY.items():
            for k, b in _POLY.items():
                product[i + k] = product.get(i + k, 0) + a * b
        x += len(product)
    return x + len(seen) + len(stack)


def gauge() -> float:
    """Seconds one gauge run takes now: the faster of GAUGE_TRIES runs, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(GAUGE_TRIES):
            t0 = time.perf_counter()
            _gauge_once()
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


def at_reference(wall_s: float, gauge_before: float, gauge_after: float) -> float:
    """``wall_s`` at reference speed, given the gauge times just before and after it."""
    return wall_s * REFERENCE_S / ((gauge_before + gauge_after) / 2)
