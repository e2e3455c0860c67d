"""Unit tests of the benchmark's own logic.

    python3 perfbench/test_perfbench.py

The AIGER round of the seed test runs only once run.py has built the
driver (it is skipped otherwise).
"""

import random
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import draws  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402


def check(case=0, engine="ic3-down", verdict="SAFE", expected="SAFE",
          cert="ok", pass_id=0, **counts):
    c = {"type": "check", "pass": pass_id, "traced": 0, "case": case,
         "name": "c%d" % case, "engine": engine, "verdict": verdict,
         "expected": expected, "cert": cert, "verdict_s": 1.0, "make_s": 0.0,
         "engine_s": 0.0, "ic3_s": 0.0, "cert_build_s": 0.0,
         "cert_check_s": 0.0}
    for key in ["frames", "generalizations", "prediction_queries",
                "successful_predictions", "found_failed_parents",
                "obligations", "lemmas", "mic_queries", "mic_drops",
                "push_queries", "push_successes", "solver_rebuilds",
                "batched_drop_solves", "batched_drop_answers",
                "filter_checks", "filter_solves_saved", "sat_solves",
                "sat_propagations", "sat_conflicts", "sat_trail_reuse_hits",
                "block_s", "generalize_s", "predict_s", "propagate_s",
                "lift_s", "sat_solve_s", "sat_inprocess_s"]:
        c[key] = counts.get(key, 0)
    return c


class DrawTest(unittest.TestCase):
    def test_same_seed_same_specs(self):
        for workload in draws.WORKLOADS:
            self.assertEqual(draws.draw(workload, 5), draws.draw(workload, 5))
            self.assertNotEqual(draws.draw(workload, 5),
                                draws.draw(workload, 6))

    def test_gen_heavy_keeps_the_slow_case(self):
        for seed in range(5):
            self.assertIn(draws.GEN_HEAVY_ANCHOR,
                          draws.draw("gen-heavy", seed))

    def test_every_workload_has_enough_checks_for_p90(self):
        for workload, (engines, _, _) in draws.WORKLOADS.items():
            self.assertGreaterEqual(
                len(draws.draw(workload, 1)) * len(engines), 100, workload)

    def test_stratified_takes_one_value_per_slice(self):
        values = sorted(draws.stratified(random.Random(3), 10, 49, 4))
        for i, v in enumerate(values):
            self.assertTrue(10 + 10 * i <= v <= 19 + 10 * i, values)
        self.assertEqual(draws.stratified(random.Random(3), 7, 7, 3),
                         [7, 7, 7])
        self.assertEqual(draws.stratified(random.Random(3), 1, 5, 0), [])

    @unittest.skipUnless(run.BUILD_DIR.joinpath("perfbench").exists(),
                         "driver not built; run perfbench/run.py once")
    def test_same_seed_same_aiger_files(self):
        binary = run.BUILD_DIR / "perfbench"
        specs = "\n".join(draws.draw("shallow-breadth", 11))
        outs = []
        for _ in range(2):
            with tempfile.TemporaryDirectory(dir=run.BUILD_DIR) as d:
                subprocess.run([str(binary), "gen", d], input=specs,
                               text=True, check=True)
                outs.append({p.name: p.read_bytes()
                             for p in sorted(Path(d).iterdir())})
        self.assertEqual(outs[0], outs[1])
        self.assertEqual(len(outs[0]), len(specs.splitlines()) + 1)


class StatsTest(unittest.TestCase):
    def test_percentile(self):
        self.assertIsNone(metrics.percentile([], 50))
        self.assertEqual(metrics.percentile([4.0], 90), 4.0)
        self.assertEqual(metrics.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertAlmostEqual(metrics.percentile(list(range(101)), 90), 90)
        self.assertEqual(metrics.percentile([1, 2], 100), 2)
        self.assertEqual(metrics.percentile([1, 2], 0), 1)

    def test_ratio_with_zero_base(self):
        self.assertEqual(metrics.ratio(0, 0), 0.0)
        self.assertEqual(metrics.ratio(5, 0), 0.0)
        self.assertEqual(metrics.ratio(1, 4), 0.25)

    def test_layers_with_zero_bases(self):
        # A pass whose checks did no SAT work, no generalization and no
        # prediction must give 0 for every ratio, not raise.
        layers = metrics.layers_of_pass(
            [check(), check(engine="ic3-down-pl")],
            {"parse_s": 0.0, "build_s": 0.0})
        for name in ["ic3.push_success_ratio", "ic3.mic_queries_per_gen",
                     "ic3.mic_drop_ratio", "ic3.sr_lp", "ic3.sr_fp",
                     "ic3.sr_adv", "ic3.filter_saved_ratio",
                     "ic3.batch_answers_per_solve", "sat.us_per_solve",
                     "sat.props_per_s", "sat.trail_reuse_ratio"]:
            self.assertEqual(layers[name], 0.0, name)
        self.assertEqual(layers["cert.checks"], 2)

    def test_success_rates_count_only_pl_checks(self):
        layers = metrics.layers_of_pass(
            [check(generalizations=10),
             check(engine="ic3-down-pl", generalizations=4,
                   prediction_queries=2, successful_predictions=1,
                   found_failed_parents=2)],
            {"parse_s": 0.0, "build_s": 0.0})
        self.assertEqual(layers["ic3.sr_lp"], 0.5)
        self.assertEqual(layers["ic3.sr_fp"], 0.5)
        self.assertEqual(layers["ic3.sr_adv"], 0.25)
        self.assertEqual(layers["ic3.generalizations"], 14)


class GateTest(unittest.TestCase):
    def test_correctness_counts(self):
        checks = [check(), check(verdict="UNSAFE"),
                  check(verdict="UNKNOWN", cert="none"),
                  check(cert="rejected"), check(cert="missing")]
        self.assertEqual(metrics.correctness(checks), (1, 1, 2))

    def test_work_counts_must_repeat(self):
        same = [check(pass_id=p, sat_solves=7) for p in range(3)]
        self.assertEqual(metrics.determinism_mismatches(same), [])
        differ = same + [check(pass_id=3, sat_solves=8)]
        self.assertEqual(len(metrics.determinism_mismatches(differ)), 1)

    def test_unknown_verdicts_are_not_compared(self):
        records = [check(sat_solves=7),
                   check(pass_id=1, verdict="UNKNOWN", sat_solves=3)]
        self.assertEqual(metrics.determinism_mismatches(records), [])


if __name__ == "__main__":
    unittest.main()
