"""Arithmetic of the benchmark, kept apart from process handling so that
the unit tests in test_benchlib.py can pin it down."""

import math
import random

# Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def parse_exit_stats(text):
    """The OCaml runtime's exit statistics (OCAMLRUNPARAM=v=0x400), as a
    dict of name -> number. Lines that are not `name: number` are skipped,
    so the parser can be handed a child's whole stderr."""
    stats = {}
    for line in text.splitlines():
        name, sep, value = line.partition(":")
        name = name.strip()
        if not sep or not name.replace("_", "").isalpha():
            continue
        value = value.strip()
        try:
            stats[name] = int(value)
        except ValueError:
            try:
                stats[name] = float(value)
            except ValueError:
                continue
    return stats


def heap_mib(stats):
    """Peak major heap of a 64-bit OCaml process, in MiB."""
    return stats["top_heap_words"] * 8 / 2**20


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least a share
    q of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail(values, beyond=TAIL_BEYOND):
    """The p99 when at least `beyond` samples lie above it; with fewer
    samples no percentile that high is resolved, and the p90 is reported
    instead (for a handful of samples, the second slowest rather than a
    lone worst case). Returns (label, value, samples)."""
    n = len(values)
    if n - math.ceil(0.99 * n) >= beyond:
        return ("p99", percentile(values, 0.99), n)
    return ("p90", percentile(values, 0.9), n)


def highest_resolved_percentile(n, beyond=TAIL_BEYOND):
    """The highest percentile (in %) that has at least `beyond` of n
    samples beyond it, or None when n is too small for any."""
    if n <= beyond:
        return None
    return 100.0 * (n - beyond) / n


def speed_factor(reference_s, before_s, after_s):
    """Factor that scales a wall time measured between two runs of the
    calibration kernel (taking before_s and after_s) to a machine on which
    the kernel takes reference_s."""
    return 2 * reference_s / (before_s + after_s)


def closure(layer_seconds, untraced_seconds):
    """Sum of the layers' self times over the untraced wall time of the
    same work: 1 when the layers account for all of it."""
    return sum(layer_seconds) / untraced_seconds


def rng(workload, seed):
    """The generator every input of one (workload, seed) is drawn from."""
    return random.Random("perfbench:%s:%d" % (workload, seed))


def request_schedule(generator, hot, cold, count, cold_share):
    """`count` request indices for the serve load: a share `cold_share` of
    them draw the next never-used cold body (indices hot..hot+cold-1), the
    rest a hot body uniformly. When the cold pool runs out the rest are
    hot, so no cold body is ever sent twice."""
    schedule = []
    next_cold = 0
    for _ in range(count):
        if generator.random() < cold_share and next_cold < cold:
            schedule.append(hot + next_cold)
            next_cold += 1
        else:
            schedule.append(generator.randrange(hot))
    return schedule
