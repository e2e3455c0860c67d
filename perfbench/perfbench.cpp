/// perfbench — the driver binary of pilot's benchmark (see README.md).
///
///   perfbench gen OUT_DIR < specs
///       Builds one circuit per spec line ("family p1 p2 ...") from the
///       circuits:: families, writes it as binary AIGER to OUT_DIR/NNNN.aig
///       and lists it with its known-by-construction status in
///       OUT_DIR/manifest.tsv.
///
///   perfbench run --dir DIR --engines a,b --seconds S --trace 0|1
///                 --budget-ms B --out FILE [--spans FILE]
///       Reads the manifest, then repeats whole passes of the workload
///       (setup, then every case × engine check, one at a time) until S
///       seconds are spent.  Every definitive verdict is certified with
///       cert::check.  With --trace 1 passes alternate untraced/traced; a
///       traced pass records a span around each call into a layer's public
///       function.  Raw records go to FILE as JSON lines; run.py turns them
///       into metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "aig/aiger_io.hpp"
#include "cert/certificate.hpp"
#include "circuits/families.hpp"
#include "engine/backend.hpp"
#include "ts/transition_system.hpp"
#include "util/timer.hpp"

namespace {

using namespace pilot;

// ----- gen -------------------------------------------------------------------

std::uint64_t bit(std::size_t width) { return 1ULL << width; }

void require(bool ok, const std::string& what) {
  if (!ok) throw std::invalid_argument("bad parameters: " + what);
}

/// Families whose only parameter is a size (at least 2).
const std::map<std::string, circuits::CircuitCase (*)(std::size_t)>&
sized_families() {
  using namespace circuits;
  static const std::map<std::string, CircuitCase (*)(std::size_t)> kFamilies{
      {"token_ring_safe", token_ring_safe},
      {"token_ring_unsafe", token_ring_unsafe},
      {"arbiter_safe", arbiter_safe},
      {"arbiter_unsafe", arbiter_unsafe},
      {"gray_counter_safe", gray_counter_safe},
      {"ring_parity_safe", ring_parity_safe},
      {"twin_counters_safe", twin_counters_safe},
      {"twin_counters_unsafe", twin_counters_unsafe},
  };
  return kFamilies;
}

/// The family generators assert their preconditions only in debug builds,
/// so every precondition is checked here before the call.
circuits::CircuitCase make_case(const std::string& family,
                                const std::vector<std::uint64_t>& p) {
  using namespace circuits;
  require(!p.empty() && p[0] >= 2 && p[0] < 63, family);
  // `n` parameters at least; the checks after it may then read p[n - 1].
  const auto args = [&](std::size_t n) { return p.size() >= n; };
  const auto need = [&](bool ok) { require(ok, family); };
  const auto below_width = [&](std::uint64_t v) { return v < bit(p[0]); };
  if (const auto it = sized_families().find(family);
      it != sized_families().end()) {
    return it->second(p[0]);
  }
  if (family == "counter_unsafe" || family == "counter_enable_unsafe") {
    need(args(2) && p[1] >= 1 && below_width(p[1]));
    return family == "counter_unsafe" ? counter_unsafe(p[0], p[1])
                                      : counter_enable_unsafe(p[0], p[1]);
  }
  if (family == "counter_wrap_safe") {
    need(args(3) && p[1] >= 1 && p[1] <= p[2] && below_width(p[2]));
    return counter_wrap_safe(p[0], p[1], p[2]);
  }
  if (family == "combination_lock_unsafe") {  // width digit...
    need(args(2) && std::all_of(p.begin() + 1, p.end(), below_width));
    return combination_lock_unsafe(p[0], {p.begin() + 1, p.end()});
  }
  if (family == "combination_lock_safe") {  // width broken digit...
    need(args(3) && p[1] + 2 < p.size() &&
         std::all_of(p.begin() + 2, p.end(), below_width));
    return combination_lock_safe(p[0], {p.begin() + 2, p.end()}, p[1]);
  }
  if (family == "shift_register") {
    need(args(2));
    return shift_register(p[0], p[1] != 0);
  }
  if (family == "gray_counter_unsafe") {
    need(p[0] >= 3);
    return gray_counter_unsafe(p[0]);
  }
  if (family == "lfsr_unsafe") {
    need(args(3) && below_width(p[1]) && p[2] >= 1 && p[2] < 100000);
    return lfsr_unsafe(p[0], p[1], static_cast<int>(p[2]));
  }
  if (family == "fifo_safe" || family == "fifo_unsafe") {
    need(args(2) && p[1] >= 1 && below_width(p[1] + 1));
    return family == "fifo_safe" ? fifo_safe(p[0], p[1])
                                 : fifo_unsafe(p[0], p[1]);
  }
  if (family == "saturating_accumulator_safe" ||
      family == "saturating_accumulator_unsafe") {
    need(args(2) && p[1] >= 1 && below_width(p[1] + 1));
    return family == "saturating_accumulator_safe"
               ? saturating_accumulator_safe(p[0], p[1])
               : saturating_accumulator_unsafe(p[0], p[1]);
  }
  throw std::invalid_argument("unknown family '" + family + "'");
}

int cmd_gen(const std::string& out_dir) {
  std::ofstream manifest(out_dir + "/manifest.tsv");
  if (!manifest) throw std::runtime_error("cannot write " + out_dir);
  std::string line;
  int index = 0;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string family;
    if (!(in >> family)) continue;
    std::vector<std::uint64_t> params;
    for (std::uint64_t v = 0; in >> v;) params.push_back(v);
    const circuits::CircuitCase c = make_case(family, params);
    char file[32];
    std::snprintf(file, sizeof file, "%04d.aig", index++);
    aig::write_aiger_file(c.aig, out_dir + "/" + file);
    manifest << file << '\t' << c.name << '\t' << family << '\t'
             << (c.expected_safe ? "SAFE" : "UNSAFE") << '\n';
  }
  return 0;
}

// ----- run -------------------------------------------------------------------

struct Case {
  std::string file, name, family, expected;
};

std::vector<Case> read_manifest(const std::string& dir) {
  std::ifstream in(dir + "/manifest.tsv");
  if (!in) throw std::runtime_error("cannot read " + dir + "/manifest.tsv");
  std::vector<Case> cases;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream row(line);
    Case c;
    if (std::getline(row, c.file, '\t') && std::getline(row, c.name, '\t') &&
        std::getline(row, c.family, '\t') && std::getline(row, c.expected)) {
      cases.push_back(std::move(c));
    }
  }
  if (cases.empty()) throw std::runtime_error("empty manifest in " + dir);
  return cases;
}

using Clock = std::chrono::steady_clock;

/// Spans of the traced passes, kept in memory and written at exit in the
/// Chrome trace-event format.  A span's parent is the span open around it;
/// spans of one check share the check's id, set-up spans carry the case
/// index, and pass-level spans -1.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  /// Opens a span; returns its index for close().
  std::size_t open(const char* name, std::int64_t check) {
    const std::size_t parent = stack_.empty() ? kNone : stack_.back();
    spans_.push_back({name, Clock::now(), {}, parent, check});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  /// Closes span `i`; returns its duration in seconds.
  double close(std::size_t i) {
    spans_[i].end = Clock::now();
    stack_.pop_back();
    return std::chrono::duration<double>(spans_[i].end - spans_[i].start)
        .count();
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << us(s.start)
          << ",\"dur\":" << us(s.end) - us(s.start) << ",\"args\":{\"id\":"
          << i << ",\"parent\":"
          << (s.parent == kNone ? -1 : static_cast<std::int64_t>(s.parent))
          << ",\"check\":" << s.check << "}}";
    }
    out << "]}\n";
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  struct Span {
    const char* name;
    Clock::time_point start, end;
    std::size_t parent;
    std::int64_t check;
  };
  [[nodiscard]] double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// Times one call into a layer.  In a traced pass it is a span; in an
/// untraced pass it does nothing and reports 0.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::int64_t check)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->open(name, check) : 0) {}
  double close() { return tracer_ != nullptr ? tracer_->close(index_) : 0.0; }

 private:
  Tracer* tracer_;
  std::size_t index_;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

struct Loaded {
  std::vector<ts::TransitionSystem> systems;
  double parse_s = 0.0, build_s = 0.0;
};

/// The workload's setup: read every AIGER file and build its transition
/// system.
Loaded load(const std::string& dir, const std::vector<Case>& cases,
            Tracer* tracer) {
  Loaded out;
  out.systems.reserve(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto id = static_cast<std::int64_t>(i);
    Timer t;
    Scope parse(tracer, "aig::read_aiger_file", id);
    const aig::Aig model = aig::read_aiger_file(dir + "/" + cases[i].file);
    parse.close();
    out.parse_s += t.seconds();
    t.reset();
    Scope build(tracer, "ts::TransitionSystem::from_aig", id);
    out.systems.push_back(ts::TransitionSystem::from_aig(model, 0));
    build.close();
    out.build_s += t.seconds();
  }
  return out;
}

struct RunOptions {
  std::string dir, out, spans;
  std::vector<std::string> engines;
  double seconds = 10.0;
  bool trace = false;
  std::int64_t budget_ms = 10000;
};

/// One check: backend construction, check(), certificate emission and the
/// independent certificate check.  Writes one JSON record.
void run_check(std::FILE* out, int pass, bool traced, std::int64_t id,
               std::size_t case_index, const Case& c,
               const ts::TransitionSystem& ts,
               const std::string& engine, std::int64_t budget_ms,
               Tracer* tracer) {
  engine::BackendContext ctx;
  Timer verdict_timer;
  Scope check_span(tracer, "check", id);
  Scope make(tracer, "engine::make_backend", id);
  std::unique_ptr<engine::Backend> backend =
      engine::make_backend(engine, ts, ctx);
  const double make_s = make.close();
  Scope run(tracer, "Backend::check", id);
  const engine::EngineResult r =
      backend->check(Deadline::in_milliseconds(budget_ms), nullptr);
  const double engine_s = run.close();
  backend.reset();

  std::string cert = "none";
  std::string reason;
  double cert_build_s = 0.0, cert_check_s = 0.0;
  if (r.verdict != ic3::Verdict::kUnknown) {
    Scope build(tracer, "cert::from_verdict", id);
    const std::optional<cert::Certificate> certificate =
        cert::from_verdict(ts, r.verdict, r.invariant, r.trace, r.kind_k,
                           r.kind_simple_path, 0, &reason);
    cert_build_s = build.close();
    if (certificate.has_value()) {
      Scope checked(tracer, "cert::check", id);
      const ic3::CheckOutcome outcome = cert::check(ts, *certificate, 17);
      cert_check_s = checked.close();
      cert = outcome.ok ? "ok" : "rejected";
      reason = outcome.reason;
    } else {
      cert = "missing";
    }
  }
  check_span.close();
  const double verdict_s = verdict_timer.seconds();

  const ic3::Ic3Stats& s = r.stats;
  const obs::PhaseProfile& ph = s.phases;
  using obs::Phase;
  std::fprintf(
      out,
      "{\"type\":\"check\",\"pass\":%d,\"traced\":%d,\"check\":%lld,"
      "\"case\":%zu,"
      "\"name\":\"%s\",\"family\":\"%s\",\"engine\":\"%s\","
      "\"expected\":\"%s\",\"verdict\":\"%s\",\"cert\":\"%s\","
      "\"reason\":\"%s\",\"verdict_s\":%.9f,\"make_s\":%.9f,"
      "\"engine_s\":%.9f,\"ic3_s\":%.9f,\"cert_build_s\":%.9f,"
      "\"cert_check_s\":%.9f,"
      "\"frames\":%zu,\"generalizations\":%llu,\"prediction_queries\":%llu,"
      "\"successful_predictions\":%llu,\"found_failed_parents\":%llu,"
      "\"obligations\":%llu,\"lemmas\":%llu,\"mic_queries\":%llu,"
      "\"mic_drops\":%llu,\"push_queries\":%llu,\"push_successes\":%llu,"
      "\"solver_rebuilds\":%llu,\"batched_drop_solves\":%llu,"
      "\"batched_drop_answers\":%llu,\"filter_checks\":%llu,"
      "\"filter_solves_saved\":%llu,\"sat_solves\":%llu,"
      "\"sat_propagations\":%llu,\"sat_conflicts\":%llu,"
      "\"sat_trail_reuse_hits\":%llu,\"block_s\":%.9f,"
      "\"generalize_s\":%.9f,\"predict_s\":%.9f,\"propagate_s\":%.9f,"
      "\"lift_s\":%.9f,\"sat_solve_s\":%.9f,\"sat_inprocess_s\":%.9f}\n",
      pass, traced ? 1 : 0, static_cast<long long>(id), case_index,
      c.name.c_str(),
      c.family.c_str(), engine.c_str(), c.expected.c_str(),
      ic3::to_string(r.verdict), cert.c_str(), json_escape(reason).c_str(),
      verdict_s, make_s, engine_s, r.seconds, cert_build_s, cert_check_s,
      r.frames,
      static_cast<unsigned long long>(s.num_generalizations),
      static_cast<unsigned long long>(s.num_prediction_queries),
      static_cast<unsigned long long>(s.num_successful_predictions),
      static_cast<unsigned long long>(s.num_found_failed_parents),
      static_cast<unsigned long long>(s.num_obligations),
      static_cast<unsigned long long>(s.num_lemmas),
      static_cast<unsigned long long>(s.num_mic_queries),
      static_cast<unsigned long long>(s.num_mic_drops),
      static_cast<unsigned long long>(s.num_push_queries),
      static_cast<unsigned long long>(s.num_push_successes),
      static_cast<unsigned long long>(s.num_solver_rebuilds),
      static_cast<unsigned long long>(s.num_batched_drop_solves),
      static_cast<unsigned long long>(s.num_batched_drop_answers),
      static_cast<unsigned long long>(s.num_filter_checks),
      static_cast<unsigned long long>(s.num_filter_solves_saved),
      static_cast<unsigned long long>(s.sat_solve_calls),
      static_cast<unsigned long long>(s.sat_propagations),
      static_cast<unsigned long long>(s.sat_conflicts),
      static_cast<unsigned long long>(s.sat_trail_reuse_hits),
      ph.seconds_of(Phase::kBlock), ph.seconds_of(Phase::kGeneralize),
      ph.seconds_of(Phase::kPredict), ph.seconds_of(Phase::kPropagate),
      ph.seconds_of(Phase::kLift), ph.seconds_of(Phase::kSatSolve),
      ph.seconds_of(Phase::kSatInprocess) + ph.seconds_of(Phase::kSatVivify));
}

/// Setup-only repetitions before the passes, so the set-up median rests on
/// many samples even when a run fits few passes.
constexpr int kMinSetupReps = 10;
constexpr int kMaxSetupReps = 200;
constexpr double kSetupRepSeconds = 0.5;

int cmd_run(const RunOptions& opt) {
  const std::vector<Case> cases = read_manifest(opt.dir);
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(opt.out.c_str(), "w"), &std::fclose);
  if (file == nullptr) throw std::runtime_error("cannot write " + opt.out);
  std::FILE* out = file.get();
  const Timer run_timer;

  for (int rep = 0; rep < kMaxSetupReps; ++rep) {
    if (rep >= kMinSetupReps && run_timer.seconds() > kSetupRepSeconds) break;
    Timer t;
    const Loaded l = load(opt.dir, cases, nullptr);
    std::fprintf(out,
                 "{\"type\":\"setup\",\"setup_s\":%.9f,\"parse_s\":%.9f,"
                 "\"build_s\":%.9f}\n",
                 t.seconds(), l.parse_s, l.build_s);
  }

  Tracer tracer(Clock::now());
  std::vector<double> pass_seconds;
  for (int pass = 0;; ++pass) {
    // With --trace 1 passes alternate untraced / traced, so the tracing
    // overhead compares neighbours and the work counts of both can be
    // matched check by check.
    const bool traced = opt.trace && pass % 2 == 1;
    Tracer* t = traced ? &tracer : nullptr;
    Timer wall;
    Scope pass_span(t, "pass", -1);
    Scope setup_span(t, "setup", -1);
    const Loaded l = load(opt.dir, cases, t);
    setup_span.close();
    const double setup_s = wall.seconds();
    std::int64_t id = 0;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      for (const std::string& engine : opt.engines) {
        run_check(out, pass, traced, id++, i, cases[i], l.systems[i], engine,
                  opt.budget_ms, t);
      }
    }
    pass_span.close();
    const double wall_s = wall.seconds();
    pass_seconds.push_back(wall_s);
    std::fprintf(out,
                 "{\"type\":\"pass\",\"pass\":%d,\"traced\":%d,"
                 "\"wall_s\":%.9f,\"setup_s\":%.9f,\"parse_s\":%.9f,"
                 "\"build_s\":%.9f}\n",
                 pass, traced ? 1 : 0, wall_s, setup_s, l.parse_s, l.build_s);
    std::fflush(out);

    // Stop once another pass would overrun the time budget; a pass is
    // never cut short, and a traced run keeps at least one of each kind.
    const int min_passes = opt.trace ? 2 : 1;
    const double longest =
        *std::max_element(pass_seconds.begin(), pass_seconds.end());
    if (pass + 1 >= min_passes &&
        run_timer.seconds() + longest > opt.seconds) {
      break;
    }
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::fprintf(out, "{\"type\":\"end\",\"peak_rss_kb\":%ld,\"passes\":%zu}\n",
               usage.ru_maxrss, pass_seconds.size());
  if (std::fflush(out) != 0 || std::ferror(out) != 0) {
    throw std::runtime_error("write failed: " + opt.out);
  }
  if (opt.trace && !opt.spans.empty()) tracer.write(opt.spans);
  return 0;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::istringstream in(s);
  for (std::string part; std::getline(in, part, sep);) {
    if (!part.empty()) parts.push_back(part);
  }
  return parts;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench gen OUT_DIR < specs\n"
               "       perfbench run --dir DIR --engines a,b --seconds S "
               "--trace 0|1 --budget-ms B --out FILE [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 2 && args[0] == "gen") return cmd_gen(args[1]);
    if (args.empty() || args[0] != "run" || args.size() % 2 != 1) {
      return usage();
    }
    RunOptions opt;
    for (std::size_t i = 1; i < args.size(); i += 2) {
      const std::string& key = args[i];
      const std::string& value = args[i + 1];
      if (key == "--dir") {
        opt.dir = value;
      } else if (key == "--engines") {
        opt.engines = split(value, ',');
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        opt.trace = value == "1";
      } else if (key == "--budget-ms") {
        opt.budget_ms = std::stoll(value);
      } else if (key == "--out") {
        opt.out = value;
      } else if (key == "--spans") {
        opt.spans = value;
      } else {
        return usage();
      }
    }
    if (opt.dir.empty() || opt.out.empty() || opt.engines.empty()) {
      return usage();
    }
    return cmd_run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
