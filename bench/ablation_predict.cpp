/// \file ablation_predict.cpp
/// Ablations for the design choices DESIGN.md calls out (not a paper table;
/// supports the analysis in §4.3 and the future-work discussion):
///   A. diff-set refinement on failed candidates (line 27) vs naive retry
///   B. single-literal candidates (Eq. 6) vs up-to-two-literal extensions
///   C. core-shrinking validated predictions vs taking them verbatim
/// Each variant runs the suite on top of the IC3ref-style (ctg) baseline.
#include "bench/bench_common.hpp"
#include "engine/backend.hpp"

using namespace pilot;
using namespace pilot::bench;

namespace {

struct Variant {
  const char* name;
  ic3::Config cfg;
};

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args;
  if (!parse_bench_args(argc, argv,
                        "ablation_predict — prediction design ablations",
                        &args)) {
    return 1;
  }

  ic3::Config base = engine::ic3_config_for("ic3-ctg-pl", args.seed);
  std::vector<Variant> variants;
  variants.push_back({"pl (paper)", base});
  {
    ic3::Config c = base;
    c.predict_refine_diff = false;
    variants.push_back({"A: no diff refine", c});
  }
  {
    ic3::Config c = base;
    c.predict_max_extra_lits = 2;
    variants.push_back({"B: 2-lit candidates", c});
  }
  {
    ic3::Config c = base;
    c.predict_core_shrink = true;
    variants.push_back({"C: core-shrink preds", c});
  }

  const std::vector<circuits::CircuitCase> cases =
      circuits::make_suite(args.suite);
  std::printf("Prediction ablations (%zu cases, %lld ms budget)\n\n",
              cases.size(), static_cast<long long>(args.budget_ms));
  std::printf("%-22s %8s %10s %10s %10s %12s\n", "variant", "solved",
              "SR_lp%", "SR_fp%", "SR_adv%", "total-s");

  for (const Variant& v : variants) {
    check::RunMatrixOptions options;
    options.budget_ms = args.budget_ms;
    options.jobs = static_cast<std::size_t>(args.jobs);
    options.seed = args.seed;

    // Overrides vary per variant, so drive check_aig per case instead of
    // run_matrix.
    int solved = 0;
    double sum_lp = 0.0;
    double sum_fp = 0.0;
    double sum_adv = 0.0;
    double total_s = 0.0;
    int counted = 0;
    for (const auto& cc : cases) {
      check::CheckOptions co;
      co.engine_spec = "ic3-ctg-pl";
      co.budget_ms = args.budget_ms;
      co.seed = args.seed;
      co.ic3_overrides = v.cfg;
      const check::CheckResult r = check::check_aig(cc.aig, co);
      if (r.verdict != ic3::Verdict::kUnknown) {
        ++solved;
        const bool got_safe = r.verdict == ic3::Verdict::kSafe;
        if (got_safe != cc.expected_safe) {
          std::fprintf(stderr, "SOUNDNESS VIOLATION in ablation on %s\n",
                       cc.name.c_str());
          return 2;
        }
      }
      total_s += r.seconds;
      if (r.stats.num_generalizations > 0) {
        sum_lp += r.stats.sr_lp();
        sum_fp += r.stats.sr_fp();
        sum_adv += r.stats.sr_adv();
        ++counted;
      }
    }
    if (counted == 0) counted = 1;
    std::printf("%-22s %8d %10.2f %10.2f %10.2f %12.2f\n", v.name, solved,
                100.0 * sum_lp / counted, 100.0 * sum_fp / counted,
                100.0 * sum_adv / counted, total_s);
  }
  std::printf(
      "\nReading: variant A shows the refinement's query savings; B/C probe\n"
      "the paper's future-work axis (raising prediction rate).\n");
  return 0;
}
