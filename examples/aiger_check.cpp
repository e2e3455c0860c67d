/// \file aiger_check.cpp
/// A command-line hardware model checker over AIGER files — the tool a
/// downstream user would actually run on HWMCC-style inputs.
///
///   aiger_check [options] model.aag|model.aig
///     --engine {ic3-down,ic3-down-pl,ic3-ctg,ic3-ctg-pl,ic3-cav23,pdr,bmc,kind}
///     --budget-ms N       per-run wall clock budget (0 = unlimited)
///     --property N        index of the bad/output property to check
///     --no-verify-witness skip certificate re-checking
///     --stats             print engine statistics
///
/// Exit code: 0 = SAFE, 1 = UNSAFE, 2 = UNKNOWN, 3 = usage/parse error
/// (following the HWMCC convention of 0/1 verdict codes).
#include <cstdio>
#include <exception>
#include <string>

#include "aig/aiger_io.hpp"
#include "check/checker.hpp"
#include "util/options.hpp"

using namespace pilot;

int main(int argc, char** argv) {
  std::string engine = "ic3-ctg-pl";
  std::int64_t budget_ms = 0;
  std::int64_t property = 0;
  bool verify_witness = true;
  bool show_stats = false;
  bool print_witness = false;

  OptionParser parser(
      "aiger_check — SAT-based safety model checker (IC3 + predicted "
      "lemmas)");
  parser.add_choice("engine", &engine,
                    {"ic3-down", "ic3-down-pl", "ic3-ctg", "ic3-ctg-pl",
                     "ic3-cav23", "pdr", "bmc", "kind"},
                    "engine configuration (see docs/ARCHITECTURE.md)");
  parser.add_int("budget-ms", &budget_ms, "wall-clock budget, 0 = unlimited");
  parser.add_int("property", &property, "property index (bad array / output)");
  parser.add_flag("verify-witness", &verify_witness,
                  "re-check the produced witness (default on)");
  parser.add_flag("stats", &show_stats, "print engine statistics");
  parser.add_flag("witness", &print_witness,
                  "print the counterexample in AIGER/HWMCC witness format");
  if (!parser.parse(argc, argv)) return 3;
  if (parser.positional().size() != 1) {
    std::fprintf(stderr, "usage: aiger_check [options] <model.aag|aig>\n%s",
                 parser.help_text().c_str());
    return 3;
  }

  try {
    const aig::Aig model = aig::read_aiger_file(parser.positional()[0]);
    std::fprintf(stderr,
                 "[aiger_check] %zu inputs, %zu latches, %zu ands, %zu bad, "
                 "%zu constraints\n",
                 model.num_inputs(), model.num_latches(), model.num_ands(),
                 model.bads().size(), model.constraints().size());

    check::CheckOptions opts;
    opts.engine_spec = engine;  // resolved against the backend registry
    opts.budget_ms = budget_ms;
    opts.property_index = static_cast<std::size_t>(property);
    opts.verify_witness = verify_witness;
    const check::CheckResult r = check::check_aig(model, opts);

    std::printf("%s\n", ic3::to_string(r.verdict));
    if (print_witness && r.verdict == ic3::Verdict::kUnsafe &&
        r.trace.has_value()) {
      const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(
          model, opts.property_index);
      std::fputs(ic3::to_aiger_witness(ts, *r.trace,
                                       opts.property_index)
                     .c_str(),
                 stdout);
    }
    std::fprintf(stderr, "[aiger_check] %.3fs, frames=%zu%s\n", r.seconds,
                 r.frames,
                 r.witness_checked ? ", witness verified" : "");
    if (!r.witness_error.empty()) {
      std::fprintf(stderr, "[aiger_check] WITNESS ERROR: %s\n",
                   r.witness_error.c_str());
      return 3;
    }
    if (show_stats) {
      std::fprintf(stderr, "[aiger_check] %s\n", r.stats.summary().c_str());
    }
    switch (r.verdict) {
      case ic3::Verdict::kSafe: return 0;
      case ic3::Verdict::kUnsafe: return 1;
      default: return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aiger_check: %s\n", e.what());
    return 3;
  }
}
