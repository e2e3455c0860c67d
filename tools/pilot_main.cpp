/// \file pilot_main.cpp
/// `pilot` — the top-level command-line model checker built on pilot_core.
///
///   pilot [options] model.aag|model.aig        check an AIGER file
///   pilot [options] m1.aag m2.aig ...          batch-check several files
///   pilot --corpus <manifest|dir> [options]    batch-check a corpus
///   pilot --family FAMILY [options]            check a built-in circuit
///   pilot --family FAMILY --family-out out.aag write the circuit, don't check
///
/// Engine selection: `--engine` picks a backend (or portfolio[:a+b+c] /
/// portfolio-x[:a+b+c] with lemma exchange); `--gen` overrides the
/// generalization strategy of IC3-family engines (down / ctg / cav23 /
/// predict / dynamic[:window,threshold] — see ic3/gen_strategy.hpp).
///
/// Single-file mode prints the verdict as one line (SAFE / UNSAFE /
/// UNKNOWN) on stdout; diagnostics go to stderr.  With --witness, UNSAFE
/// runs print the counterexample in the AIGER/HWMCC witness format and SAFE
/// runs print the "0\nb<index>\n." certificate header.
///
/// Batch mode (--corpus, or more than one input file) runs every case with
/// the selected engine and emits one results-db JSONL row per case — the
/// same schema `pilot-bench run` writes (corpus/results_db.hpp) — to --out,
/// or to stdout when --out is not given.
///
/// Exit codes (HWMCC convention, shared with examples/aiger_check):
///   0 = SAFE, 1 = UNSAFE, 2 = UNKNOWN, 3 = usage/parse/internal error
/// Batch mode: 0 = completed, 1 = a verdict contradicted the manifest's
/// expected status, 3 = a case failed to load or a usage/internal error.
#include <cstdio>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "aig/aiger_io.hpp"
#include "cert/certificate.hpp"
#include "check/checker.hpp"
#include "check/runner.hpp"
#include "circuits/families.hpp"
#include "corpus/corpus.hpp"
#include "corpus/results_db.hpp"
#include "engine/backend.hpp"
#include "engine/portfolio.hpp"
#include "ic3/gen_strategy.hpp"
#include "ic3/witness.hpp"
#include "obs/trace.hpp"
#include "ts/transition_system.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/options.hpp"

using namespace pilot;

namespace {

using FamilyFn = circuits::CircuitCase (*)(std::int64_t n);

/// Built-in circuits from circuits/families, each scaled by a single `--gen-n`
/// knob (0 → the family's default size).  SAFE and UNSAFE variants are both
/// exposed so smoke tests can exercise every verdict without input files.
const std::map<std::string, FamilyFn>& family_registry() {
  static const std::map<std::string, FamilyFn> kRegistry = {
      {"counter-unsafe",
       [](std::int64_t n) {
         const std::uint64_t target = n > 0 ? static_cast<std::uint64_t>(n) : 10;
         return circuits::counter_unsafe(6, target);
       }},
      {"counter-wrap-safe",
       [](std::int64_t n) {
         const std::uint64_t limit = n > 0 ? static_cast<std::uint64_t>(n) : 10;
         return circuits::counter_wrap_safe(6, limit, limit + 5);
       }},
      {"lock-unsafe",
       [](std::int64_t n) {
         const std::size_t stages = n > 0 ? static_cast<std::size_t>(n) : 6;
         std::vector<std::uint64_t> digits;
         for (std::size_t i = 0; i < stages; ++i) digits.push_back(i % 4);
         return circuits::combination_lock_unsafe(2, digits);
       }},
      {"lock-safe",
       [](std::int64_t n) {
         const std::size_t stages = n > 0 ? static_cast<std::size_t>(n) : 6;
         std::vector<std::uint64_t> digits;
         for (std::size_t i = 0; i < stages; ++i) digits.push_back(i % 4);
         return circuits::combination_lock_safe(2, digits, stages / 2);
       }},
      {"token-ring-safe",
       [](std::int64_t n) {
         return circuits::token_ring_safe(n > 0 ? static_cast<std::size_t>(n)
                                                : 6);
       }},
      {"token-ring-unsafe",
       [](std::int64_t n) {
         return circuits::token_ring_unsafe(n > 0 ? static_cast<std::size_t>(n)
                                                  : 6);
       }},
      {"shift-register-unsafe",
       [](std::int64_t n) {
         return circuits::shift_register(
             n > 0 ? static_cast<std::size_t>(n) : 8, false);
       }},
      {"shift-register-safe",
       [](std::int64_t n) {
         return circuits::shift_register(
             n > 0 ? static_cast<std::size_t>(n) : 8, true);
       }},
      {"fifo-safe",
       [](std::int64_t n) {
         const std::uint64_t cap = n > 0 ? static_cast<std::uint64_t>(n) : 10;
         return circuits::fifo_safe(6, cap);
       }},
      {"fifo-unsafe",
       [](std::int64_t n) {
         const std::uint64_t cap = n > 0 ? static_cast<std::uint64_t>(n) : 10;
         return circuits::fifo_unsafe(6, cap);
       }},
      {"mutex-safe", [](std::int64_t) { return circuits::mutex_safe(); }},
      {"mutex-unsafe", [](std::int64_t) { return circuits::mutex_unsafe(); }},
  };
  return kRegistry;
}

std::vector<std::string> family_names() {
  std::vector<std::string> names;
  for (const auto& [name, fn] : family_registry()) names.push_back(name);
  return names;
}

/// `pilot certify <model> <certificate>` — the independent checker.
/// argv[0] is "certify" (main() shifts the program name off).
int run_certify(int argc, char** argv) {
  std::int64_t seed = 0;
  std::string log_level;
  OptionParser parser(
      "pilot certify — independently re-check a saved verdict certificate "
      "against its model.\n"
      "usage: pilot certify <model.aag|model.aig> <certificate>\n"
      "The checker deliberately uses a different solver configuration than "
      "the engines (trail reuse off, fresh variable order), so a bug in the "
      "optimized hot path cannot vouch for itself.\n"
      "exit codes: 0 = certificate valid, 3 = usage/parse error, "
      "4 = certificate rejected");
  parser.add_int("seed", &seed, "checker randomization seed");
  parser.add_choice("log-level", &log_level,
                    {"silent", "error", "warn", "info", "debug"},
                    "log verbosity (overrides the PILOT_LOG environment "
                    "variable)");
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(parser.help_text().c_str(), stdout);
      return 0;
    }
  }
  if (!parser.parse(argc, argv)) return 3;
  logcfg::init_from_env();
  if (!log_level.empty()) {
    logcfg::set_level(*logcfg::level_from_string(log_level));
  }

  if (parser.positional().size() != 2) {
    std::fprintf(stderr,
                 "pilot certify: expected exactly 2 arguments "
                 "(<model.aag|model.aig> <certificate>), got %zu\n"
                 "(try `pilot certify --help`)\n",
                 parser.positional().size());
    return 3;
  }
  const std::string& model_path = parser.positional()[0];
  const std::string& cert_path = parser.positional()[1];

  try {
    const aig::Aig model = aig::read_aiger_file(model_path);
    std::string error;
    const std::optional<cert::Certificate> c = cert::load(cert_path, &error);
    if (!c.has_value()) {
      std::fprintf(stderr, "pilot certify: %s: %s\n", cert_path.c_str(),
                   error.c_str());
      return 3;
    }
    const ts::TransitionSystem ts =
        ts::TransitionSystem::from_aig(model, c->property_index);
    const ic3::CheckOutcome outcome =
        cert::check(ts, *c, static_cast<std::uint64_t>(seed));
    if (!outcome.ok) {
      std::printf("REJECTED\n");
      std::fprintf(stderr, "[pilot] certificate (%s) rejected: %s\n",
                   cert::to_string(c->kind), outcome.reason.c_str());
      return 4;
    }
    std::printf("CERTIFIED\n");
    std::fprintf(stderr,
                 "[pilot] certificate (%s, property %zu) independently "
                 "checked against %s\n",
                 cert::to_string(c->kind), c->property_index,
                 model_path.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pilot certify: %s\n", e.what());
    return 3;
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Subcommand dispatch before flag parsing: `pilot certify <aig> <cert>`.
  if (argc > 1 && std::string(argv[1]) == "certify") {
    return run_certify(argc - 1, argv + 1);
  }

  std::string engine = "ic3-ctg-pl";
  std::string gen_spec;
  std::string lift_sim;
  std::string ternary_filter;
  std::int64_t gen_batch = -1;
  std::string gen_batch_adaptive;
  bool exchange = false;
  std::int64_t budget_ms = 0;
  std::int64_t seed = 0;
  std::int64_t property = 0;
  bool verify_witness = true;
  bool show_stats = false;
  bool print_witness = false;
  bool list_families = false;
  std::string family;
  std::string family_out;
  std::string corpus_spec;
  std::int64_t jobs = 0;
  std::string out_path;
  std::string trace_path;
  double progress_secs = 0.0;
  std::string stats_json_path;
  std::string log_level;

  OptionParser parser(
      "pilot — SAT-based safety model checker: IC3 with lemma prediction "
      "from counterexamples to propagation (DAC'24).\n"
      "usage: pilot [options] <model.aag|model.aig>\n"
      "   or: pilot --family FAMILY [--family-out FILE] [options]\n"
      "   or: pilot certify <model.aag|model.aig> <certificate>\n"
      "exit codes: 0 = SAFE, 1 = UNSAFE, 2 = UNKNOWN, 3 = usage/internal "
      "error, 4 = certification failure");
  std::string engine_help = "engine configuration (-pl = predicted lemmas):";
  for (const std::string& name : engine::backend_names()) {
    engine_help += " " + name;
  }
  engine_help +=
      "; or portfolio[:a+b+c] to race several backends (first verdict "
      "wins), portfolio-x[:a+b+c] to race with lemma exchange";
  parser.add_string("engine", &engine, engine_help);
  std::string gen_help =
      "generalization strategy override for IC3-family engines:";
  for (const std::string& name : ic3::gen_strategy_names()) {
    gen_help += " " + name;
  }
  gen_help += "; dynamic takes ':window,threshold' (e.g. dynamic:16,0.4)";
  parser.add_string("gen", &gen_spec, gen_help);
  parser.add_choice("lift-sim", &lift_sim, {"packed", "byte"},
                    "ternary-simulation backend for the lifter: bit-packed "
                    "(32 patterns/word, default) or the byte-wise reference "
                    "simulator (A/B)");
  parser.add_choice("gen-ternary-filter", &ternary_filter, {"on", "off"},
                    "ternary drop-filter in the MIC core: skip "
                    "relative-induction solves a cached counterexample "
                    "already defeats (default on; off for A/B)");
  parser.add_int("gen-batch", &gen_batch,
                 "batched generalization probes: MIC candidate drops "
                 "answered per SAT solve (1 = sequential, default 4; ctg "
                 "generalization is never batched)");
  parser.add_choice("gen-batch-adaptive", &gen_batch_adaptive, {"on", "off"},
                    "size MIC probe batches from the observed probe failure "
                    "rate instead of the fixed --gen-batch width (default "
                    "off)");
  parser.add_flag("exchange", &exchange,
                  "portfolio runs: share validated lemmas between the "
                  "racing IC3 backends (same as the portfolio-x spec)");
  parser.add_int("budget-ms", &budget_ms, "wall-clock budget, 0 = unlimited");
  parser.add_int("seed", &seed, "engine randomization seed");
  parser.add_int("property", &property, "property index (bad array / output)");
  parser.add_flag("verify-witness", &verify_witness,
                  "re-check the produced certificate (default on; "
                  "--no-verify-witness to skip)");
  std::string certify_out;
  parser.add_string("certify", &certify_out,
                    "emit the verdict's certificate and independently "
                    "re-check it (exit 4 on failure).  Single-file mode: "
                    "certificate file path (invariant certificates also "
                    "write a <path>.aag certificate circuit); batch mode: "
                    "existing directory for per-case certificates");
  parser.add_flag("stats", &show_stats, "print engine statistics to stderr");
  parser.add_flag("witness", &print_witness,
                  "print the certificate in AIGER/HWMCC witness format");
  parser.add_choice("family", &family, family_names(),
                    "check a built-in circuit family instead of a file");
  std::int64_t family_n = 0;
  parser.add_int("family-n", &family_n,
                 "size parameter for --family (0 = default)");
  parser.add_string("family-out", &family_out,
                    "write the generated circuit as AIGER to this path and "
                    "exit without checking");
  parser.add_flag("list-families", &list_families,
                  "list built-in circuit families");
  parser.add_string("corpus", &corpus_spec,
                    "batch-check a corpus: a manifest.json, a directory of "
                    ".aig/.aag files, or suite:tiny|quick|full");
  parser.add_int("jobs", &jobs,
                 "batch mode: worker threads (0 = hardware concurrency)");
  parser.add_string("out", &out_path,
                    "batch mode: append results-db JSONL rows to this file "
                    "(default: stdout)");
  parser.add_string("trace", &trace_path,
                    "write a Chrome trace-event JSON of the run to this "
                    "path (open in Perfetto / chrome://tracing)");
  parser.add_opt_double("progress", &progress_secs, 2.0,
                        "print a live-progress heartbeat to stderr every "
                        "<double> seconds (bare --progress = every 2s); "
                        "portfolio runs print one line per backend");
  parser.add_string("stats-json", &stats_json_path,
                    "write the run's verdict, timing, and engine statistics "
                    "(including per-phase times) as JSON to this path");
  parser.add_choice("log-level", &log_level,
                    {"silent", "error", "warn", "info", "debug"},
                    "log verbosity (overrides the PILOT_LOG environment "
                    "variable)");

  // OptionParser::parse returns false for both --help and errors; handle
  // --help up front so `pilot --help` exits 0.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(parser.help_text().c_str(), stdout);
      return 0;
    }
  }
  if (!parser.parse(argc, argv)) return 3;

  // PILOT_LOG from the environment first; an explicit --log-level wins.
  logcfg::init_from_env();
  if (!log_level.empty()) {
    logcfg::set_level(*logcfg::level_from_string(log_level));
  }
  if (!trace_path.empty()) obs::set_trace_enabled(true);

  if (list_families) {
    for (const auto& name : family_names()) std::printf("%s\n", name.c_str());
    return 0;
  }

  // Exports the (process-global) trace once the run is over; shared by the
  // batch and single-check paths.
  const auto dump_trace = [&trace_path]() {
    if (trace_path.empty()) return true;
    if (!obs::write_chrome_trace(trace_path)) {
      std::fprintf(stderr, "pilot: cannot write trace to %s\n",
                   trace_path.c_str());
      return false;
    }
    std::fprintf(stderr,
                 "[pilot] trace written to %s (open in Perfetto or "
                 "chrome://tracing)\n",
                 trace_path.c_str());
    return true;
  };

  try {
    // Validate the strategy spec before any work: an unknown name or a
    // malformed ':args' suffix names the offending token and lists the
    // registered strategies.
    if (!gen_spec.empty()) ic3::validate_gen_spec(gen_spec);

    if (gen_batch == 0 || gen_batch < -1) {
      std::fprintf(stderr,
                   "pilot: --gen-batch must be >= 1 (1 = sequential)\n");
      return 3;
    }

    // --exchange only changes portfolio races; say so instead of silently
    // running a single engine the user believes is sharing lemmas.
    if (exchange && !engine::match_portfolio_spec(engine).has_value()) {
      std::fprintf(stderr,
                   "pilot: --exchange has no effect on single engine '%s'; "
                   "use --engine portfolio[:a+b+c] or portfolio-x[:a+b+c]\n",
                   engine.c_str());
    }

    // --- batch mode: --corpus and/or several input files -------------------
    if (!corpus_spec.empty() || parser.positional().size() > 1) {
      if (!family.empty() || !family_out.empty()) {
        std::fprintf(stderr, "pilot: --family and batch mode are exclusive\n");
        return 3;
      }
      std::vector<corpus::Case> cases;
      if (!corpus_spec.empty()) {
        cases = corpus::resolve_corpus(corpus_spec);
      }
      for (const std::string& path : parser.positional()) {
        corpus::Case c;
        const std::size_t slash = path.find_last_of("/\\");
        const std::string base =
            slash == std::string::npos ? path : path.substr(slash + 1);
        const std::size_t dot = base.find_last_of('.');
        c.name = dot == std::string::npos ? base : base.substr(0, dot);
        c.family = "aiger";
        c.source = path;
        c.load = [path]() { return aig::read_aiger_file(path); };
        cases.push_back(std::move(c));
      }
      if (cases.empty()) {
        std::fprintf(stderr, "pilot: corpus '%s' has no cases\n",
                     corpus_spec.c_str());
        return 3;
      }

      check::RunMatrixOptions mo;
      mo.budget_ms = budget_ms;
      mo.gen_spec = gen_spec;
      if (!lift_sim.empty()) {
        mo.lift_sim = lift_sim == "byte" ? ic3::Config::LiftSim::kByte
                                         : ic3::Config::LiftSim::kPacked;
      }
      if (!ternary_filter.empty()) {
        mo.gen_ternary_filter = ternary_filter == "on";
      }
      if (gen_batch >= 1) mo.gen_batch = static_cast<int>(gen_batch);
      if (!gen_batch_adaptive.empty()) {
        mo.gen_batch_adaptive = gen_batch_adaptive == "on";
      }
      mo.share_lemmas = exchange;
      mo.seed = static_cast<std::uint64_t>(seed);
      mo.jobs = static_cast<std::size_t>(jobs);
      mo.verify_witness = verify_witness;
      if (!certify_out.empty()) {
        mo.certify = true;
        mo.cert_dir = certify_out;
      }
      mo.strict = false;  // report mismatches via the exit code instead
      const std::vector<check::RunRecord> records =
          check::run_matrix(cases, {engine}, mo);

      const corpus::RunContext ctx = corpus::make_run_context(
          corpus_spec.empty() ? "files" : corpus_spec, budget_ms,
          static_cast<std::uint64_t>(seed), gen_spec);
      corpus::ResultsDb::Writer writer(out_path);
      for (const check::RunRecord& r : records) {
        writer.append({r, ctx});
        if (!r.error.empty()) {
          std::fprintf(stderr, "[pilot] %s: ERROR %s\n", r.case_name.c_str(),
                       r.error.c_str());
        }
      }
      if (!dump_trace()) return 3;
      std::size_t cert_failures = 0;
      for (const check::RunRecord& r : records) {
        if (!r.cert_status.empty() && r.cert_status != "ok") ++cert_failures;
      }
      const corpus::CampaignSummary s = corpus::summarize_campaign(records);
      std::fprintf(stderr,
                   "[pilot] %zu cases with %s: %zu solved, %zu unknown, "
                   "%zu mismatches, %zu errors%s%s\n",
                   s.total, engine.c_str(), s.solved, s.unknown,
                   s.mismatches, s.errors,
                   out_path.empty() ? "" : ", rows appended to ",
                   out_path.c_str());
      if (cert_failures > 0) {
        std::fprintf(stderr, "[pilot] %zu certificate check failure%s\n",
                     cert_failures, cert_failures == 1 ? "" : "s");
        return 4;
      }
      return s.exit_code();
    }

    aig::Aig model;
    std::string source;
    if (!family.empty()) {
      if (!parser.positional().empty()) {
        std::fprintf(stderr,
                     "pilot: --family and a model file are exclusive\n");
        return 3;
      }
      const circuits::CircuitCase c = family_registry().at(family)(family_n);
      model = c.aig;
      source = "family:" + c.name;
      if (!family_out.empty()) {
        aig::write_aiger_file(model, family_out);
        std::fprintf(stderr, "pilot: wrote %s (%s, expected %s)\n",
                     family_out.c_str(), c.name.c_str(),
                     c.expected_safe ? "SAFE" : "UNSAFE");
        return 0;
      }
    } else {
      if (!family_out.empty()) {
        std::fprintf(stderr, "pilot: --family-out requires --family\n");
        return 3;
      }
      if (parser.positional().size() != 1) {
        std::fprintf(stderr,
                     "usage: pilot [options] <model.aag|model.aig>\n"
                     "(try `pilot --help`)\n");
        return 3;
      }
      source = parser.positional()[0];
      model = aig::read_aiger_file(source);
    }

    std::fprintf(stderr,
                 "[pilot] %s: %zu inputs, %zu latches, %zu ands, %zu bad, "
                 "%zu constraints\n",
                 source.c_str(), model.num_inputs(), model.num_latches(),
                 model.num_ands(), model.bads().size(),
                 model.constraints().size());

    check::CheckOptions opts;
    opts.engine_spec = engine;  // resolved against the backend registry
    opts.gen_spec = gen_spec;
    if (!lift_sim.empty()) {
      opts.lift_sim = lift_sim == "byte" ? ic3::Config::LiftSim::kByte
                                         : ic3::Config::LiftSim::kPacked;
    }
    if (!ternary_filter.empty()) {
      opts.gen_ternary_filter = ternary_filter == "on";
    }
    if (gen_batch >= 1) opts.gen_batch = static_cast<int>(gen_batch);
    if (!gen_batch_adaptive.empty()) {
      opts.gen_batch_adaptive = gen_batch_adaptive == "on";
    }
    opts.share_lemmas = exchange;
    opts.budget_ms = budget_ms;
    opts.seed = static_cast<std::uint64_t>(seed);
    opts.property_index = static_cast<std::size_t>(property);
    opts.verify_witness = verify_witness;
    opts.progress_interval = progress_secs;
    // Build the transition system once; witness rendering reuses it.
    const ts::TransitionSystem ts =
        ts::TransitionSystem::from_aig(model, opts.property_index);

    const check::CheckResult r = check::check_ts(ts, opts);

    std::printf("%s\n", ic3::to_string(r.verdict));
    if (print_witness) {
      if (r.verdict == ic3::Verdict::kUnsafe && r.trace.has_value()) {
        std::fputs(
            ic3::to_aiger_witness(ts, *r.trace, opts.property_index).c_str(),
            stdout);
      } else if (r.verdict == ic3::Verdict::kSafe) {
        std::printf("0\nb%zu\n.\n", opts.property_index);
      }
    }
    std::fprintf(stderr, "[pilot] %.3fs, frames=%zu%s\n", r.seconds, r.frames,
                 r.witness_checked ? ", witness verified" : "");
    if (!r.backend_timings.empty()) {
      std::fprintf(stderr, "[pilot] portfolio winner: %s\n",
                   r.winner.empty() ? "(none)" : r.winner.c_str());
      for (const engine::BackendTiming& t : r.backend_timings) {
        std::fprintf(stderr, "[pilot]   %-12s %-7s %8.3fs%s\n", t.name.c_str(),
                     ic3::to_string(t.verdict), t.seconds,
                     t.winner ? "  << winner" : (t.cancelled ? "  (cancelled)"
                                                             : ""));
        if (t.lemmas_published + t.lemmas_imported + t.lemmas_rejected > 0) {
          std::fprintf(stderr,
                       "[pilot]     exchange: published=%llu imported=%llu "
                       "rejected=%llu\n",
                       static_cast<unsigned long long>(t.lemmas_published),
                       static_cast<unsigned long long>(t.lemmas_imported),
                       static_cast<unsigned long long>(t.lemmas_rejected));
        }
      }
      if (r.exchange.published + r.exchange.deduped + r.exchange.delivered >
          0) {
        std::fprintf(stderr,
                     "[pilot] exchange hub: published=%llu deduped=%llu "
                     "delivered=%llu\n",
                     static_cast<unsigned long long>(r.exchange.published),
                     static_cast<unsigned long long>(r.exchange.deduped),
                     static_cast<unsigned long long>(r.exchange.delivered));
      }
    }
    // A produced-but-invalid witness/invariant is a certification failure
    // (exit 4), distinct from usage/internal errors (exit 3).
    if (!r.witness_error.empty()) {
      std::fprintf(stderr, "[pilot] WITNESS ERROR: %s\n",
                   r.witness_error.c_str());
      return 4;
    }
    if (!certify_out.empty()) {
      if (r.verdict == ic3::Verdict::kUnknown) {
        std::fprintf(stderr,
                     "[pilot] no certificate written: verdict is UNKNOWN\n");
      } else {
        std::string why;
        const std::optional<cert::Certificate> c = cert::from_verdict(
            ts, r.verdict, r.invariant, r.trace, r.kind_k, r.kind_simple_path,
            opts.property_index, &why);
        if (!c.has_value()) {
          std::fprintf(stderr, "[pilot] CERTIFICATION FAILED: %s\n",
                       why.c_str());
          return 4;
        }
        const ic3::CheckOutcome outcome = cert::check(ts, *c, opts.seed);
        if (!outcome.ok) {
          std::fprintf(stderr, "[pilot] CERTIFICATION FAILED: %s\n",
                       outcome.reason.c_str());
          return 4;
        }
        if (!cert::save(*c, certify_out)) {
          std::fprintf(stderr, "pilot: cannot write certificate to %s\n",
                       certify_out.c_str());
          return 3;
        }
        std::fprintf(stderr,
                     "[pilot] certificate (%s) independently checked, "
                     "written to %s\n",
                     cert::to_string(c->kind), certify_out.c_str());
        if (c->kind == cert::Certificate::Kind::kInvariant) {
          const std::string circuit_path = certify_out + ".aag";
          aig::write_aiger_file(cert::certificate_circuit(ts, *c),
                                circuit_path);
          std::fprintf(stderr,
                       "[pilot] certificate circuit written to %s (3 bad "
                       "outputs; all must be unsatisfiable)\n",
                       circuit_path.c_str());
        }
      }
    }
    if (show_stats) {
      std::fprintf(stderr, "[pilot] %s\n", r.stats.summary().c_str());
      if (!r.stats.phases.empty()) {
        std::fputs(r.stats.phases.table(r.stats.time_total).c_str(), stderr);
      }
    }
    if (!dump_trace()) return 3;
    if (!stats_json_path.empty()) {
      json::Object o;
      o["engine"] = engine;
      o["verdict"] = ic3::to_string(r.verdict);
      o["seconds"] = r.seconds;
      o["frames"] = r.frames;
      if (!r.winner.empty()) o["winner"] = r.winner;
      o["stats"] = corpus::stats_to_json(r.stats);
      const std::string text = json::Value(std::move(o)).dump() + "\n";
      std::FILE* f = std::fopen(stats_json_path.c_str(), "wb");
      const bool wrote =
          f != nullptr &&
          std::fwrite(text.data(), 1, text.size(), f) == text.size();
      const bool closed = f != nullptr && std::fclose(f) == 0;
      if (!wrote || !closed) {
        std::fprintf(stderr, "pilot: cannot write stats to %s\n",
                     stats_json_path.c_str());
        return 3;
      }
      std::fprintf(stderr, "[pilot] stats written to %s\n",
                   stats_json_path.c_str());
    }
    switch (r.verdict) {
      case ic3::Verdict::kSafe: return 0;
      case ic3::Verdict::kUnsafe: return 1;
      default: return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pilot: %s\n", e.what());
    return 3;
  }
}
