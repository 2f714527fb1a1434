"""Percentiles, histogram deltas and metric-name rules."""

from __future__ import annotations

import math
import re
from typing import Dict, Mapping, Sequence, Tuple

#: A metric or workload name, as BENCHMARK.json allows it.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: A unit, as BENCHMARK.json allows it.
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def nearest_rank(sorted_values: Sequence[float], q: float) -> Tuple[float, int]:
    """The nearest-rank ``q``-quantile of ascending values, and how many
    samples lie beyond it (``n - rank``)."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    rank = max(1, math.ceil(q * n - 1e-9))
    return sorted_values[rank - 1], n - rank


def highest_supported(n: int, candidates=(0.999, 0.99, 0.9, 0.5)) -> float:
    """The highest candidate quantile with at least :data:`MIN_BEYOND`
    samples beyond it among ``n`` samples (0.5 if none has)."""
    for q in candidates:
        if n - max(1, math.ceil(q * n - 1e-9)) >= MIN_BEYOND:
            return q
    return 0.5


# ---------------------------------------------------------------------------
# /metrics histogram snapshots (cumulative buckets keyed by bound text)
# ---------------------------------------------------------------------------
def histogram_delta(before: Mapping[str, object],
                    after: Mapping[str, object]) -> Dict[str, object]:
    """Per-bucket counts, count and sum observed between two snapshots."""
    def per_bucket(snapshot):
        if not snapshot:
            return {}
        out, previous = {}, 0
        for bound, cumulative in snapshot["buckets"].items():
            out[bound] = cumulative - previous
            previous = cumulative
        return out

    b, a = per_bucket(before), per_bucket(after)
    counts = {bound: a[bound] - b.get(bound, 0) for bound in a}
    return {
        "counts": counts,
        "count": (after or {}).get("count", 0) - (before or {}).get("count", 0),
        "sum": (after or {}).get("sum", 0.0) - (before or {}).get("sum", 0.0),
    }


def histogram_quantile(delta: Mapping[str, object], q: float) -> float:
    """``q``-quantile of a :func:`histogram_delta`, interpolated inside
    the bucket holding the rank (as the service's own histograms do)."""
    total = delta["count"]
    if total <= 0:
        return 0.0
    rank = q * total
    cumulative, lower = 0, 0.0
    last_finite = 0.0
    for bound_text, count in delta["counts"].items():
        if bound_text == "+Inf":
            break
        bound = float(bound_text)
        last_finite = bound
        previous = cumulative
        cumulative += count
        if cumulative >= rank and count:
            return lower + (bound - lower) * (rank - previous) / count
        lower = bound
    return last_finite
