"""Arithmetic that turns perfbench's raw measurements into metrics.

Kept apart from run.py so that test_metrics.py can check it on synthetic
inputs: the tail-percentile rule, the grid's busy fraction and tail time,
the cost per flit-hop, span self-time and the host-speed calibration.
"""

import math
import statistics

# The reference host's calibration sample, in ms. The end-to-end times are
# scaled to it: a run's host seconds times REF_CALIB_MS over the median of
# the calibration samples taken around the run's repetitions.
REF_CALIB_MS = 10.0

# Percentiles tried for a timing's tail, highest first.
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)
# A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def median(values):
    return statistics.median(values) if values else 0.0


def rank(n, pct):
    """1-based nearest rank of the pct-th percentile of n samples. The
    tolerance keeps 99.9% of 10000 at rank 9990 despite binary fractions."""
    return max(1, math.ceil(pct * n / 100.0 - 1e-9))


def percentile(values, pct):
    """Nearest-rank percentile: the smallest sample with at least pct% of
    the samples at or below it."""
    if not values:
        return 0.0
    return sorted(values)[rank(len(values), pct) - 1]


def beyond(n, pct):
    """Samples strictly above the nearest-rank pct-th percentile of n."""
    return n - rank(n, pct)


def tail(values):
    """(pct, value, n): the highest percentile of TAIL_LADDER with at least
    MIN_BEYOND samples beyond it. With fewer than 2 * MIN_BEYOND samples
    no percentile qualifies and the median is returned as pct 50; with no
    samples at all, everything is 0."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    for pct in TAIL_LADDER:
        if beyond(n, pct) >= MIN_BEYOND:
            return pct, percentile(values, pct), n
    return 50.0, percentile(values, 50.0), n


def busy_frac(point_walls, workers, grid_wall):
    """Share of the workers' time spent inside points:
    sum of point walls / (workers * grid wall)."""
    if workers <= 0 or grid_wall <= 0:
        return 0.0
    return sum(point_walls) / (workers * grid_wall)


def tail_s(done_times, workers, grid_wall):
    """Grid time after fewer points than workers remain unfinished, i.e.
    from the (N - workers + 1)-th completion to the end of the grid. A grid
    of fewer points than workers is tail from its start."""
    n = len(done_times)
    if n < workers:
        return grid_wall
    ordered = sorted(done_times)
    return max(0.0, grid_wall - ordered[n - workers])


def calibrated(seconds, calib_ms):
    """Host seconds as a host whose calibration sample takes REF_CALIB_MS
    would have spent them: the host's speed drifts by tens of percent over
    minutes, and a fixed integer loop timed around the work follows most
    of that drift."""
    return seconds * REF_CALIB_MS / median(calib_ms)


def ns_per_flit_hop(wall_s, flit_hops):
    return wall_s * 1e9 / flit_hops if flit_hops > 0 else 0.0


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its children cover. `spans` is a list of (start, end, parent) with
    parent an index into the list or -1. Returns the self times in the
    spans' own time unit."""
    children = [[] for _ in spans]
    for i, (_, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (start, end, _) in enumerate(spans):
        covered = 0
        cur_start = cur_end = None
        for lo, hi in sorted((max(spans[c][0], start), min(spans[c][1], end))
                             for c in children[i]):
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((end - start) - covered)
    return out
