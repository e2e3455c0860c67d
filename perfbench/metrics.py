"""Turns the raw records of `perfbench run` into the benchmark's metrics.

Records are JSON objects with a "type": "setup" (a set-up-only
repetition), "check" (one case x engine check of one pass), "pass" (one
whole pass of the workload) and "end".  Timings of one check are taken as
its median over the passes of a run; layer totals as their median over the
traced passes.
"""

import statistics

# Work counts that must repeat exactly, check by check, between every pass
# of a run -- the untraced and the traced ones alike.
DETERMINISTIC_COUNTS = ["sat_solves", "sat_conflicts", "push_queries",
                        "mic_queries", "generalizations", "prediction_queries"]


def percentile(values, q):
    """The q-th percentile (0 <= q <= 100) with linear interpolation
    between closest ranks; None for no values."""
    if not values:
        return None
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def ratio(num, den):
    """num / den, or 0.0 when the base is 0 (nothing was attempted)."""
    return num / den if den else 0.0


def median(values):
    return statistics.median(values) if values else 0.0


def by_type(records, kind):
    return [r for r in records if r["type"] == kind]


def is_pl(engine):
    return engine.endswith("-pl")


def definitive(check):
    return check["verdict"] in ("SAFE", "UNSAFE")


def correctness(checks):
    """Counts over the checks of one pass: unsolved (UNKNOWN), wrong
    verdicts and certificates that were rejected or missing."""
    unsolved = sum(1 for c in checks if not definitive(c))
    wrong = sum(1 for c in checks
                if definitive(c) and c["verdict"] != c["expected"])
    cert_failures = sum(1 for c in checks
                        if definitive(c) and c["cert"] != "ok")
    return unsolved, wrong, cert_failures


def determinism_mismatches(records):
    """Checks whose work counts differ between two passes in which both
    reached a verdict; returns (case name, engine, count, values) tuples."""
    seen = {}
    bad = []
    for c in by_type(records, "check"):
        if not definitive(c):
            continue
        key = (c["case"], c["engine"])
        counts = tuple(c[k] for k in DETERMINISTIC_COUNTS)
        if key not in seen:
            seen[key] = counts
        elif seen[key] != counts:
            for name, a, b in zip(DETERMINISTIC_COUNTS, seen[key], counts):
                if a != b:
                    bad.append((c["name"], c["engine"], name, (a, b)))
    return bad


def checks_of(records, pass_id):
    return [c for c in by_type(records, "check") if c["pass"] == pass_id]


def end_to_end(records):
    """Metrics of the untraced passes, and the sample counts behind them."""
    passes = [p for p in by_type(records, "pass") if not p["traced"]]
    setups = [s["setup_s"] for s in by_type(records, "setup")]
    setups += [p["setup_s"] for p in passes]
    ids = {p["pass"] for p in passes}
    per_check = {}
    for c in by_type(records, "check"):
        if c["pass"] in ids:
            per_check.setdefault((c["case"], c["engine"]), []).append(
                c["verdict_s"])
    verdict_s = [median(v) for v in per_check.values()]
    end = by_type(records, "end")[-1]
    return {
        "setup_s": median(setups),
        "wall_s": median([p["wall_s"] for p in passes]),
        "verdict_s_p50": percentile(verdict_s, 50),
        "verdict_s_p90": percentile(verdict_s, 90),
        "peak_rss_mb": end["peak_rss_kb"] / 1024.0,
    }, {"checks": len(verdict_s), "passes": len(passes),
        "setup_samples": len(setups)}


def _sum(checks, key):
    return sum(c[key] for c in checks)


def layers_of_pass(checks, pass_record):
    """Per-layer totals of one pass.  Phase seconds (ic3.*_s, sat.solve_s,
    sat.inprocess_s) are the engine's inclusive PhaseProfile rows; the
    aig/ts/cert/check seconds are the benchmark's own spans."""
    pl = [c for c in checks if is_pl(c["engine"])]
    solves = _sum(checks, "sat_solves")
    solve_s = _sum(checks, "sat_solve_s")
    gens = _sum(checks, "generalizations")
    gens_pl = _sum(pl, "generalizations")
    certified = [c for c in checks if c["cert"] in ("ok", "rejected")]
    return {
        "ic3.propagate_s": _sum(checks, "propagate_s"),
        "ic3.push_queries": _sum(checks, "push_queries"),
        "ic3.push_success_ratio": ratio(_sum(checks, "push_successes"),
                                        _sum(checks, "push_queries")),
        "ic3.generalize_s": _sum(checks, "generalize_s"),
        "ic3.predict_s": _sum(checks, "predict_s"),
        "ic3.generalizations": gens,
        "ic3.prediction_queries": _sum(checks, "prediction_queries"),
        "ic3.mic_queries_per_gen": ratio(_sum(checks, "mic_queries"), gens),
        "ic3.mic_drop_ratio": ratio(_sum(checks, "mic_drops"),
                                    _sum(checks, "mic_queries")),
        "ic3.sr_lp": ratio(_sum(pl, "successful_predictions"),
                           _sum(pl, "prediction_queries")),
        "ic3.sr_fp": ratio(_sum(pl, "found_failed_parents"), gens_pl),
        "ic3.sr_adv": ratio(_sum(pl, "successful_predictions"), gens_pl),
        "ic3.filter_saved_ratio": ratio(_sum(checks, "filter_solves_saved"),
                                        _sum(checks, "filter_checks")),
        "ic3.batch_answers_per_solve": ratio(
            _sum(checks, "batched_drop_answers"),
            _sum(checks, "batched_drop_solves")),
        "ic3.block_s": _sum(checks, "block_s"),
        "ic3.lift_s": _sum(checks, "lift_s"),
        "ic3.obligations": _sum(checks, "obligations"),
        "ic3.lemmas": _sum(checks, "lemmas"),
        "ic3.frames": _sum(checks, "frames"),
        "ic3.solver_rebuilds": _sum(checks, "solver_rebuilds"),
        "ic3.check_s.base": sum(c["make_s"] + c["engine_s"] for c in checks
                                if not is_pl(c["engine"])),
        "ic3.check_s.pl": sum(c["make_s"] + c["engine_s"] for c in pl),
        "sat.solves": solves,
        "sat.solve_s": solve_s,
        "sat.us_per_solve": ratio(solve_s * 1e6, solves),
        "sat.conflicts": _sum(checks, "sat_conflicts"),
        "sat.props_per_s": ratio(_sum(checks, "sat_propagations"), solve_s),
        "sat.trail_reuse_ratio": ratio(_sum(checks, "sat_trail_reuse_hits"),
                                       solves),
        "sat.inprocess_s": _sum(checks, "sat_inprocess_s"),
        "aig.parse_s": pass_record["parse_s"],
        "ts.build_s": pass_record["build_s"],
        "cert.check_s": sum(c["cert_build_s"] + c["cert_check_s"]
                            for c in checks),
        "cert.checks": len(certified),
    }


def per_layer(records):
    """Median over the traced passes of each layer total, plus the tracing
    overhead: median traced pass wall time over the untraced one, minus 1."""
    passes = by_type(records, "pass")
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    rows = [layers_of_pass(checks_of(records, p["pass"]), p) for p in traced]
    out = {k: median([r[k] for r in rows]) for k in rows[0]}
    out["trace.overhead_ratio"] = ratio(
        median([p["wall_s"] for p in traced]),
        median([p["wall_s"] for p in plain])) - 1.0
    return out


def engine_rows(records):
    """One report row per engine over the run's first pass (timings as
    medians over every pass)."""
    checks = by_type(records, "check")
    first = min(c["pass"] for c in checks)
    rows = []
    for engine in dict.fromkeys(c["engine"] for c in checks):
        mine = [c for c in checks if c["engine"] == engine]
        one = [c for c in mine if c["pass"] == first]
        unsolved, wrong, cert_failures = correctness(one)
        per_pass = {}
        for c in mine:
            per_pass[c["pass"]] = per_pass.get(c["pass"], 0.0) + c["verdict_s"]
        times = {}
        for c in mine:
            times.setdefault(c["case"], []).append(c["verdict_s"])
        verdict_s = [median(v) for v in times.values()]
        check_s = median(list(per_pass.values()))
        rows.append({
            "engine": engine,
            "checks": len(one),
            "unsolved": unsolved,
            "wrong_verdicts": wrong,
            "cert_failures": cert_failures,
            "check_s": check_s,
            "verdict_s_p50": percentile(verdict_s, 50),
            "verdict_s_p90": percentile(verdict_s, 90),
            "sat_solves": _sum(one, "sat_solves"),
            "ic3_s": _sum(one, "ic3_s"),
            "propagate_share": ratio(_sum(one, "propagate_s"),
                                     _sum(one, "ic3_s")),
            "generalize_share": ratio(_sum(one, "generalize_s"),
                                      _sum(one, "ic3_s")),
        })
    return rows
