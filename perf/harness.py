"""Pure measurement helpers shared by the runner, the workloads and the
comparator: windows, the percentile rule, spreads, the benchmark
declaration and the host fingerprint.  Imports nothing from ``repro``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence, Tuple

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(PERF_DIR, "out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

#: Every run is cut into this many equal windows; rates and medians are
#: reported as the median window, so a minority mode switch (one fresh
#: process in four runs ~15 % faster on serve_batch) cannot move them.
NUM_WINDOWS = 6

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_SAMPLES_BEYOND = 10


def load_declaration() -> Dict:
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def tail_percentile(num_samples: int,
                    at_most: float = TAIL_LADDER[0]) -> Optional[float]:
    """The highest ladder percentile (<= ``at_most``) that still has at
    least ten samples beyond it; None when even p75 is unsupported."""
    for pct in TAIL_LADDER:
        beyond_per_mille = round((100.0 - pct) * 10)  # exact, no float edge
        if pct <= at_most and \
                num_samples * beyond_per_mille >= MIN_SAMPLES_BEYOND * 1000:
            return pct
    return None


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (NumPy's default rule)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    rank = (len(data) - 1) * pct / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)


def window_index(t: float, t0: float, t1: float,
                 num_windows: int = NUM_WINDOWS) -> Optional[int]:
    if not t0 <= t < t1:
        return None
    return min(int((t - t0) / (t1 - t0) * num_windows), num_windows - 1)


def window_rates(event_times: Sequence[float], t0: float, t1: float,
                 weights: Optional[Sequence[float]] = None,
                 num_windows: int = NUM_WINDOWS) -> List[float]:
    """Events per second in each of ``num_windows`` equal windows."""
    totals = [0.0] * num_windows
    for i, t in enumerate(event_times):
        w = window_index(t, t0, t1, num_windows)
        if w is not None:
            totals[w] += 1.0 if weights is None else weights[i]
    width = (t1 - t0) / num_windows
    return [total / width for total in totals]


def window_medians(samples: Sequence[Tuple[float, float]], t0: float,
                   t1: float, num_windows: int = NUM_WINDOWS) -> List[float]:
    """Median of ``value`` per window for ``(time, value)`` samples;
    windows without samples are left out."""
    buckets: List[List[float]] = [[] for _ in range(num_windows)]
    for t, value in samples:
        w = window_index(t, t0, t1, num_windows)
        if w is not None:
            buckets[w].append(value)
    return [statistics.median(b) for b in buckets if b]


def median_window(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("no window holds a sample")
    return statistics.median(values)


def median_latency_ms(samples: Sequence[Tuple[float, float]], t0: float,
                      t1: float) -> float:
    """Median (of window medians) of ``(time, seconds)`` latency samples,
    in milliseconds."""
    return median_window(window_medians(samples, t0, t1)) * 1e3


def gaps_ms(event_times: Sequence[float], t0: float, t1: float) -> List[float]:
    """Gaps between consecutive events that end inside ``[t0, t1)``."""
    times = sorted(event_times)
    return [(b - a) * 1e3 for a, b in zip(times, times[1:]) if t0 <= b < t1]


def mean_gap_ms(event_times: Sequence[float], t0: float, t1: float) -> float:
    """The typical gap between recurring events (learner updates) in
    ``[t0, t1)``: window length over events in it.  The driver loops
    that produce them wake on timers, so single gaps cluster at
    multiples of the loop period and their median flips between clusters
    from run to run; at ~10 events a second, windows shorter than the
    whole phase would quantize the rate in steps of several percent."""
    count = sum(1 for t in event_times if t0 <= t < t1)
    if not count:
        raise ValueError("no event inside the measured window")
    return (t1 - t0) / count * 1e3


def pooled_tail(values_ms: Sequence[float],
                designed_tail: Optional[float]) -> Tuple[float, str]:
    """``(tail in ms, what it is)`` of latencies pooled over a run's
    processes.

    With a ``designed_tail`` percentile: that percentile, stepping down
    the ladder while fewer than ten samples lie beyond it (the median
    when even p75 is unsupported).

    With ``None``: the mean of the slowest tenth (at least ten samples).
    Gaps between learner updates number ~200 a run and cluster at
    multiples of the driver loop's period, so a single order statistic
    sits on a cluster edge and jumps by 30 % when the run is 10 % slower
    (p75 scattered by up to 29 % between runs at the seed, p90 by 17 %,
    this mean by 9-10 %)."""
    if designed_tail is None:
        slowest = sorted(values_ms)[-max(MIN_SAMPLES_BEYOND,
                                         len(values_ms) // 10):]
        return statistics.fmean(slowest), "mean of slowest 10 %"
    pct = tail_percentile(len(values_ms), at_most=designed_tail) or 50.0
    return percentile(values_ms, pct), f"p{pct:g}"


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread_share(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's
    steadiness measure)."""
    q1, _, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


# -- host fingerprint -------------------------------------------------------
def _first_line(cmd: List[str]) -> Optional[str]:
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    text = (out.stdout or out.stderr).strip()
    return text.splitlines()[0] if out.returncode == 0 and text else None


def fingerprint() -> Dict:
    """Where a study was measured: the checkout need not be a git
    repository and ``cc`` may be missing, so both may be None."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    cores = os.cpu_count() or 1
    load = os.getloadavg()[0]
    info = {
        "git_sha": _first_line(["git", "-C", ROOT, "rev-parse", "HEAD"]),
        "nproc": cores,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cc": _first_line(["cc", "--version"]),
        "load_1min_at_start": load,
    }
    if load > 0.5 * cores:
        print(f"warning: 1-min load average {load:.2f} exceeds half of "
              f"{cores} cores; timings will be noisy", file=sys.stderr)
    return info
