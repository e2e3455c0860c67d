"""Seeded workload draws for the pilot benchmark.

A draw is a list of spec lines ("family p1 p2 ...") that `perfbench gen`
turns into AIGER files.  Every draw is stratified: each family contributes
a fixed number of cases, and each numeric parameter takes one value from
each of that many equal slices of its range.  Two seeds therefore give
different instances of the same shape and about the same total work, which
keeps the run-to-run spread of a workload's totals small.  README.md lists
the families and ranges of each workload and why it was chosen.
"""

import random

# The seed a claim is measured on, and the one it must also pass on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

ALL_IC3 = ["ic3-down", "ic3-down-pl", "ic3-ctg", "ic3-ctg-pl", "ic3-cav23",
           "ic3-dyn", "pdr"]

# Feedback taps of the LFSR widths used (those of the built-in suite).
LFSR_TAPS = {8: 0b10001110, 10: 0b1000000100, 12: 0b100000101001}


def stratified(rng, lo, hi, k):
    """k integers in [lo, hi], one drawn uniformly from each of k equal
    slices of the range, returned in a seeded order."""
    if k <= 0:
        return []
    if hi < lo:
        raise ValueError("empty range [%d, %d]" % (lo, hi))
    span = hi - lo + 1
    out = []
    for i in range(k):
        a = lo + (span * i) // k
        b = lo + (span * (i + 1)) // k - 1
        out.append(rng.randint(a, max(a, b)))
    rng.shuffle(out)
    return out


def cycle(values, k):
    """The first k items of `values` repeated: an even spread over widths."""
    return [values[i % len(values)] for i in range(k)]


def _by_width(rng, widths, k, lo_of, hi_of):
    """k (width, value) pairs: widths spread evenly, and per width the values
    stratified over [lo_of(w), hi_of(w)]."""
    ws = cycle(widths, k)
    pairs = []
    for w in widths:
        n = ws.count(w)
        pairs += [(w, v) for v in stratified(rng, lo_of(w), hi_of(w), n)]
    return pairs


def deep_prop(rng):
    specs = []
    # Wrapping counters checked against their largest value: IC3 learns
    # lemmas about every value up to the wrap limit and pushes each one
    # frame by frame, so propagation dominates.
    for w, n in [(7, 20), (8, 10)]:
        for limit in stratified(rng, 16, 120, n):
            specs.append("counter_wrap_safe %d %d %d"
                         % (w, limit, (1 << w) - 1))
    for t in stratified(rng, 40, 100, 8):
        specs.append("counter_unsafe 9 %d" % t)
    for t in stratified(rng, 40, 127, 8):
        specs.append("counter_enable_unsafe 7 %d" % t)
    for w in cycle([4, 5, 6, 7], 8):
        specs.append("gray_counter_safe %d" % w)
    for w in stratified(rng, 8, 40, 12):
        specs.append("twin_counters_safe %d" % w)
    return specs


# A slow case kept in every gen-heavy draw: on it ic3-ctg-pl takes about
# 1.6 times as long as ic3-ctg, the -pl slowdown this workload must show.
GEN_HEAVY_ANCHOR = "lfsr_unsafe 12 %d 60" % LFSR_TAPS[12]


def gen_heavy(rng):
    specs = [GEN_HEAVY_ANCHOR]
    steps = {8: (10, 26), 10: (15, 32), 12: (15, 28)}
    for w in LFSR_TAPS:
        for s in stratified(rng, steps[w][0], steps[w][1], 4):
            specs.append("lfsr_unsafe %d %d %d" % (w, LFSR_TAPS[w], s))
    for cap in stratified(rng, 32, 62, 16):
        specs.append("fifo_unsafe 6 %d" % cap)
    # The 7-bit FIFOs are the slowest block below the LFSRs, with capacities
    # fixed at even steps, so the p90 falls inside a block no seed changes.
    for i in range(20):
        specs.append("fifo_unsafe 7 %d" % (64 + 62 * i // 20))
    for w, n in [(8, 16), (9, 40)]:
        for cap in stratified(rng, 1 << (w - 1), (1 << w) - 2, n):
            specs.append("saturating_accumulator_unsafe %d %d" % (w, cap))
    for w, n in [(5, 10), (6, 16)]:
        for t in stratified(rng, 1 << (w - 1), (1 << w) - 1, n):
            specs.append("counter_enable_unsafe %d %d" % (w, t))
    return specs


def shallow_breadth(rng):
    """All 19 fuzz families at tiny-to-quick sizes, k cases each."""
    k = 16
    specs = []
    for w, t in _by_width(rng, [3, 4, 5], k, lambda w: 2,
                          lambda w: (1 << w) - 1):
        specs.append("counter_unsafe %d %d" % (w, t))
    for w, limit in _by_width(rng, [3, 4, 5], k, lambda w: 2,
                              lambda w: (1 << (w - 1)) - 1):
        target = rng.randint(limit, (1 << w) - 1)
        specs.append("counter_wrap_safe %d %d %d" % (w, limit, target))
    for w, t in _by_width(rng, [3, 4, 5], k, lambda w: 2,
                          lambda w: (1 << w) - 1):
        specs.append("counter_enable_unsafe %d %d" % (w, t))
    for stages in stratified(rng, 3, 6, k):
        digits = [rng.randint(0, 3) for _ in range(stages)]
        specs.append("combination_lock_unsafe 2 " + " ".join(map(str, digits)))
    for stages in stratified(rng, 3, 6, k):
        digits = [rng.randint(0, 3) for _ in range(stages)]
        broken = rng.randint(0, stages - 1)
        specs.append("combination_lock_safe 2 %d %s"
                     % (broken, " ".join(map(str, digits))))
    for i, w in enumerate(stratified(rng, 4, 19, k)):
        specs.append("shift_register %d %d" % (w, i % 2))
    for family, lo, hi in [("token_ring_safe", 3, 10),
                           ("token_ring_unsafe", 3, 10),
                           ("arbiter_safe", 3, 6),
                           ("arbiter_unsafe", 3, 6),
                           ("gray_counter_unsafe", 3, 6),
                           ("ring_parity_safe", 3, 6),
                           ("twin_counters_unsafe", 4, 11)]:
        for n in stratified(rng, lo, hi, k):
            specs.append("%s %d" % (family, n))
    # The two slowest families sit in the top sixth of check times with fixed
    # sizes, so the p90 falls inside a block whose make-up no seed changes.
    for w in cycle([3, 4], k * 3 // 2):
        specs.append("gray_counter_safe %d" % w)
    for w in cycle(list(range(4, 12)), k * 3 // 2):
        specs.append("twin_counters_safe %d" % w)
    for family in ["fifo_safe", "fifo_unsafe", "saturating_accumulator_safe",
                   "saturating_accumulator_unsafe"]:
        for w, cap in _by_width(rng, [3, 4], k, lambda w: 1 << (w - 1),
                                lambda w: (1 << w) - 2):
            specs.append("%s %d %d" % (family, w, cap))
    return specs


# name -> (engines, per-check budget in ms, draw function)
WORKLOADS = {
    "deep-prop": (["ic3-down", "ic3-down-pl"], 20000, deep_prop),
    "gen-heavy": (["ic3-ctg", "ic3-ctg-pl"], 30000, gen_heavy),
    "shallow-breadth": (ALL_IC3, 10000, shallow_breadth),
}


def draw(workload, seed):
    """The spec lines of `workload` for `seed`; the same seed always gives
    the same lines."""
    engines, budget_ms, fn = WORKLOADS[workload]
    return fn(random.Random("%s/%d" % (workload, seed)))
