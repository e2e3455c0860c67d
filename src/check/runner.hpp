/// \file runner.hpp
/// Batch experiment runner: (benchmark case × engine spec) matrix with
/// per-case wall-clock budgets, thread-level parallelism, cooperative
/// cancellation, and a hard soundness gate (a solved verdict that
/// contradicts the case's expected status aborts the run).
///
/// Cases come from the corpus layer (corpus/corpus.hpp), which unifies the
/// synthetic `circuits::` families and on-disk AIGER corpora; engines are
/// registry `engine_spec` strings (any backend name, or
/// "portfolio[:a+b+c]").  The scheduler orders jobs largest-case-first so
/// heterogeneous corpora keep every worker busy, but records are returned
/// in deterministic case-major order regardless.
///
/// The bench harness binaries (Table 1/2, Figures 2/3/4) and the
/// `pilot-bench` campaign runner are thin aggregations over the RunRecord
/// rows this produces; corpus::ResultsDb persists them as JSONL.
#pragma once

#include <string>
#include <vector>

#include "check/checker.hpp"
#include "circuits/suite.hpp"
#include "corpus/corpus.hpp"
#include "util/cancel.hpp"

namespace pilot::serve {
class VerdictCache;
class Advisor;
}  // namespace pilot::serve

namespace pilot::check {

struct RunRecord {
  std::string case_name;
  std::string family;
  std::vector<std::string> tags;
  /// Registry engine spec that produced this record ("ic3-ctg-pl",
  /// "portfolio:bmc+kind", ...).
  std::string engine;
  corpus::Expected expected = corpus::Expected::kUnknown;
  ic3::Verdict verdict = ic3::Verdict::kUnknown;
  bool solved = false;
  double seconds = 0.0;
  std::size_t frames = 0;
  /// Non-empty when the case failed to load (missing/malformed AIGER) —
  /// the verdict stays kUnknown and no engine ran.
  std::string error;
  /// Certification outcome when RunMatrixOptions::certify was on and the
  /// verdict was definitive: "ok", or "failed: <reason>".  Empty when
  /// certification did not run (off, or no verdict).
  std::string cert_status;
  /// Path of the saved certificate file (only with certify + cert_dir).
  std::string cert_path;
  /// Canonical AIG structure hash (aig::canonical_hash_hex) — the verdict
  /// cache / advisor key.  Empty when the case failed to load.
  std::string content_hash;
  /// Circuit shape (advisor nearest-neighbour features), recorded for
  /// every loaded case.
  std::size_t num_inputs = 0;
  std::size_t num_latches = 0;
  std::size_t num_ands = 0;
  /// Verdict-cache outcome for this record: "hit" (served from cache after
  /// revalidation), "miss" (solved fresh, stored), or "" (no cache).
  std::string cache_status;
  /// Advisor decision applied on a miss, e.g.
  /// "exact:ring4@150ms" / "near:shift8@300ms" / "fallback" (advised run
  /// returned UNKNOWN, full-budget rerun followed); "" = no advisor.
  std::string advice;
  ic3::Ic3Stats stats;
};

struct RunMatrixOptions {
  std::int64_t budget_ms = 2000;
  std::uint64_t seed = 0;
  /// Generalization-strategy spec applied to every IC3-family engine of
  /// the matrix (CheckOptions::gen_spec); empty = each engine's own.
  std::string gen_spec;
  /// Lifter ternary-simulation backend / MIC drop-filter overrides applied
  /// to every IC3-family engine (CheckOptions::lift_sim /
  /// CheckOptions::gen_ternary_filter); unset = config defaults.
  std::optional<ic3::Config::LiftSim> lift_sim;
  std::optional<bool> gen_ternary_filter;
  /// Batched-probe overrides applied to every IC3-family engine of the
  /// matrix (CheckOptions::gen_batch / CheckOptions::gen_batch_adaptive);
  /// unset = config defaults.
  std::optional<int> gen_batch;
  std::optional<bool> gen_batch_adaptive;
  /// Enable lemma exchange inside portfolio engine specs
  /// (CheckOptions::share_lemmas); "portfolio-x" specs enable it per-spec.
  bool share_lemmas = false;
  /// Worker threads; 0 = hardware concurrency.
  std::size_t jobs = 0;
  bool verify_witness = true;
  /// Emit + independently re-check a certificate for every definitive
  /// verdict (cert/certificate.hpp); outcomes land in
  /// RunRecord::cert_status and the cert_* stats counters.
  bool certify = false;
  /// When non-empty (and certify is on), certificates are saved as
  /// "<cert_dir>/<case>__<engine>.cert" and the path recorded in
  /// RunRecord::cert_path.  The directory must already exist.
  std::string cert_dir;
  /// Verdict cache (nullable, shared across jobs): each job looks its
  /// canonical hash up first — a revalidated hit skips the engine entirely
  /// — and stores its certified verdict back on a miss.  Implies building
  /// a certificate per solved miss even when `certify` is off.
  serve::VerdictCache* cache = nullptr;
  /// Budget advisor (nullable): on a cache miss, the advised engine runs
  /// first under the advised (~1.5× neighbour) budget; UNKNOWN falls back
  /// to the job's own engine spec and full budget.
  const serve::Advisor* advisor = nullptr;
  /// Abort on verdict/expectation mismatch (soundness gate).  Cases with
  /// expected == kUnknown are exempt.
  bool strict = true;
  /// External abort (nullable): remaining jobs return immediately with
  /// kUnknown records once the token stops; the running engines observe it
  /// at their next deadline poll.
  const CancelToken* cancel = nullptr;
};

/// Runs every (case, engine) pair and returns one record per pair, in
/// deterministic case-major order.  Engine specs are validated against the
/// backend registry up front; an unknown spec throws std::invalid_argument
/// before any work starts.
std::vector<RunRecord> run_matrix(const std::vector<corpus::Case>& cases,
                                  const std::vector<std::string>& engines,
                                  const RunMatrixOptions& options);

/// Convenience overload for the synthetic families.
std::vector<RunRecord> run_matrix(const std::vector<circuits::CircuitCase>& cases,
                                  const std::vector<std::string>& engines,
                                  const RunMatrixOptions& options);

}  // namespace pilot::check
