"""Statistics the benchmark reports, kept apart so they can be self-tested.

- median / quartiles / spread: run-to-run figures (quartiles as Python's
  statistics.quantiles(values, n=4) gives them).
- tail(): the highest percentile, up to the one asked for, that keeps at
  least `min_beyond` samples beyond it (nearest rank).
- self_time(): a span's duration minus the part of it its children cover.
- attribute(): per-layer GP time from per-call times weighted by launch
  counts, with the unattributed rest as an explicit residual.
"""

import math
import statistics


def median(values):
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """(q1, q2, q3) by statistics.quantiles(values, n=4)."""
    values = list(values)
    if len(values) < 2:
        raise ValueError("quartiles need at least 2 samples")
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median (0 when the median is 0 and the quartiles agree)."""
    q1, _, q3 = quartiles(values)
    m = median(values)
    if m == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(m)


def tail(values, p=0.9, min_beyond=10):
    """Nearest-rank percentile at p, lowered until at least `min_beyond`
    samples lie beyond it, and never below the median.

    Returns (value, reported_p, n). With n >= min_beyond / (1 - p) samples
    the percentile is p itself; a short sample falls back to the median,
    and reported_p says which percentile the value is.
    """
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("tail of no samples")
    k = math.ceil(p * n - 1e-9)
    k = min(k, n - min_beyond)
    k = max(k, math.ceil(0.5 * n - 1e-9), 1)
    return max(s[k - 1], statistics.median(s)), k / n, n


def self_time(spans, index):
    """Duration of spans[index] minus the time its direct children cover.

    Spans are dicts with start_s, end_s and parent (index or -1). Child
    intervals are clipped to the parent and merged, so overlapping children
    are not counted twice.
    """
    span = spans[index]
    start, end = span["start_s"], span["end_s"]
    kids = sorted(
        (max(c["start_s"], start), min(c["end_s"], end))
        for c in spans
        if c["parent"] == index)
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in kids:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (end - start) - covered


def attribute(total_s, per_call_s, launches, layer_of):
    """Split a measured total into layers plus a residual.

    per_call_s: kernel -> seconds per call; launches: kernel -> calls in the
    run; layer_of: kernel -> layer name. Returns ({layer: seconds},
    residual) with sum(layers) + residual == total_s.
    """
    layers = {}
    for kernel, t in per_call_s.items():
        layer = layer_of[kernel]
        layers[layer] = layers.get(layer, 0.0) + t * launches.get(kernel, 0)
    residual = total_s - math.fsum(layers.values())
    return layers, residual
