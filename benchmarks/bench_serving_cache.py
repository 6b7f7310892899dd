"""Serving-cache floor: a put that evicts costs about what a put that fills costs.

One same-run ratio: per-put ``LRUCache.put_many`` time for 40,000 fresh keys
into a full 4,096-entry cache over the time per put for the 4,096 keys that
filled it.  Evicting the front of a plain dict walks the deleted slots that
earlier evictions left behind, which made that ratio 5-10; an O(1) eviction
keeps it near 1.5.  A ratio of two timings of one run needs no recorded
baseline and no machine constant.

    PYTHONPATH=src python -m pytest benchmarks/bench_serving_cache.py -m perf -s
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.serving import LRUCache

#: Most an evicting put may cost, as a multiple of a filling put.
EVICT_OVER_FILL_CEILING = 3.0

MAXSIZE = 4096
EVICTING_PUTS = 40_000


def measure_evict_over_fill(repeats: int = 5) -> float:
    """Per-put time under eviction over per-put time while filling: median of ``repeats``."""
    # Keys shaped like the serving core's: (digest, schema, canonical config, sigmas).
    keys = [
        ("0" * 64, 1, ("render", "gpu1-k40m", "raytrace", index, 200, 1024, 1024, 1000, True), 2.0)
        for index in range(MAXSIZE + EVICTING_PUTS)
    ]
    values = [(1.0, 0.5, 1.5, 0.25)] * len(keys)
    fill_keys, evict_keys = keys[:MAXSIZE], keys[MAXSIZE:]
    ratios = []
    for _ in range(repeats):
        cache = LRUCache(MAXSIZE)
        start = time.perf_counter()
        cache.put_many(fill_keys, values)
        fill = (time.perf_counter() - start) / MAXSIZE
        start = time.perf_counter()
        cache.put_many(evict_keys, values)
        evict = (time.perf_counter() - start) / EVICTING_PUTS
        if cache.evictions != EVICTING_PUTS or len(cache) != MAXSIZE:
            raise RuntimeError(f"expected {EVICTING_PUTS} evictions, got {cache.stats()}")
        ratios.append(evict / fill)
    return statistics.median(ratios)


@pytest.mark.perf
def test_an_evicting_put_costs_about_a_filling_put():
    ratio = measure_evict_over_fill()
    print(f"\nevict/fill per put {ratio:.2f}x (ceiling {EVICT_OVER_FILL_CEILING})")
    assert ratio <= EVICT_OVER_FILL_CEILING, f"evict/fill {ratio:.2f}x exceeds {EVICT_OVER_FILL_CEILING}x"
