"""Arithmetic and formatting of the benchmark's results.

Turns the raw samples csm_perfbench prints (one JSON object) into the
reported metrics, and renders them: a human-readable table and the one
result line (`{"correct", "attempted", "failed", "metrics"}`) that must be
the last line of standard output. Pure functions only; run.py does the
I/O and test_report.py checks the arithmetic.
"""

import json
import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# A tail percentile needs this many samples strictly beyond it.
TAIL_BEYOND = 10


def valid_name(name):
    """True if `name` is a legal metric or workload name."""
    return isinstance(name, str) and NAME_RE.match(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and UNIT_RE.match(unit) is not None


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


# Share of samples dropped at each end by trimmed_mean().
TRIM = 0.1


def trimmed_mean(values, trim=TRIM):
    """Mean of the samples left after dropping floor(trim * n) of the
    smallest and as many of the largest.

    On a shared host the latencies of one run come from a fast and a slow
    state of the machine. The median jumps between the two as their
    shares cross one half and the plain mean follows single spikes (a
    page-fault storm, a capacity growth); the trimmed mean does neither.
    """
    if not values:
        raise ValueError("mean of no samples")
    s = sorted(values)
    cut = int(trim * len(s))
    return statistics.fmean(s[cut:len(s) - cut])


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(samples):
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, n). With sorted samples s[0..n-1] the value
    is s[n-1-TAIL_BEYOND]: exactly TAIL_BEYOND samples lie after it, and
    it is the (n - TAIL_BEYOND)/n percentile. None when n is too small.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    s = sorted(samples)
    return s[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n


def failed_frac(attempted, failed):
    if attempted < 1:
        raise ValueError("no operations attempted")
    return failed / attempted


def end_to_end(raw):
    """Every end-to-end metric of one run, name -> value.

    The result line carries the ones BENCHMARK.json names; the rest are
    printed in the table only. failed_frac is 0 on a correct run, so the
    result line carries it as `failed` / `attempted` instead.
    """
    out = {
        "setup_s": median(raw["setup_s"]),
        "query_tmean_s": trimmed_mean(raw["query_s"]),
        "append_tmean_s": trimmed_mean(raw["append_s"]),
        "query_p50_s": median(raw["query_s"]),
        "rows_per_s": raw["rows_read"] / sum(raw["query_s"]),
        "append_p50_s": median(raw["append_s"]),
        "peak_state_entries": raw["peak_state_entries"],
        "peak_rss_mb": raw["peak_rss_mb"],
        "failed_frac": failed_frac(raw["attempted"], raw["failed"]),
    }
    for name, key in (("query_tail_s", "query_s"),
                      ("append_tail_s", "append_s")):
        t = tail(raw[key])
        if t is None:
            raise ValueError("%s: %d samples, a tail needs more than %d"
                             % (key, len(raw[key]), TAIL_BEYOND))
        out[name] = t[0]
    return out


def tail_label(samples):
    t = tail(samples)
    return "p%d of n=%d" % (int(t[1]), t[2]) if t else "n=%d" % len(samples)


def result_line(correct, attempted, failed, metrics, specs):
    """The final JSON line: `metrics` (name -> value) restricted to and
    ordered by `specs` (the BENCHMARK.json entries), each with its unit."""
    out = {}
    for spec in specs:
        name = spec["name"]
        if not valid_name(name) or not valid_unit(spec["unit"]):
            raise ValueError("bad metric spec %r" % (spec,))
        value = metrics[name]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError("metric %s is not a finite number" % name)
        out[name] = {"value": value, "unit": spec["unit"]}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": out})


def table(rows):
    """Left-aligned text table; rows are tuples of strings."""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
                     for r in rows)


def fmt(value):
    if isinstance(value, float) and value != 0 and (abs(value) < 1e-3 or
                                                    abs(value) >= 1e6):
        return "%.4g" % value
    if isinstance(value, float):
        return "%.4f" % value
    return str(value)
