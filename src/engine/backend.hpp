/// \file backend.hpp
/// The unified solving-engine abstraction every checker frontend dispatches
/// through.
///
/// A `Backend` is one engine configuration (an IC3 variant, BMC,
/// k-induction, …) bound to a shared, immutable `TransitionSystem`.  All
/// backends answer the same question — is bad reachable? — through one
/// polymorphic entry point:
///
///   std::unique_ptr<Backend> b = engine::make_backend("ic3-ctg-pl", ts, ctx);
///   engine::EngineResult r = b->check(deadline, &cancel);
///
/// Construction goes through a string-keyed registry (name → factory), so
/// new engines plug in without touching the dispatch layer, and the
/// portfolio scheduler (portfolio.hpp) can race an arbitrary mix of them.
/// The `CancelToken` is the cancellation protocol of that race: backends
/// must poll it (directly or via Deadline::with_cancel) and return
/// Verdict::kUnknown promptly once it stops.
///
/// Thread-ownership rules: a Backend instance is owned and driven by
/// exactly one thread; the registry and the TransitionSystem are shared and
/// read-only after construction.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ic3/config.hpp"
#include "ic3/engine.hpp"
#include "ic3/stats.hpp"
#include "ic3/witness.hpp"
#include "ts/transition_system.hpp"
#include "util/cancel.hpp"
#include "util/timer.hpp"

namespace pilot::engine {

/// Uniform outcome of a backend run: verdict, timing, engine statistics
/// (meaningful for IC3-family backends, zeroed otherwise) and the
/// certificate, when the engine produces one.
struct EngineResult {
  ic3::Verdict verdict = ic3::Verdict::kUnknown;
  double seconds = 0.0;
  std::size_t frames = 0;  // IC3: max frame; BMC/k-ind: bound reached
  ic3::Ic3Stats stats;
  /// kUnknown because the run was cut short (deadline or cancellation), as
  /// opposed to the engine completing on its own without a verdict (e.g.
  /// BMC exhausting its bound).  Lets the portfolio tell cancelled losers
  /// from backends that finished inconclusively.
  bool interrupted = false;
  std::optional<ic3::Trace> trace;                   // UNSAFE certificate
  std::optional<ic3::InductiveInvariant> invariant;  // SAFE certificate
  /// k-induction SAFE payload (cert/certificate.hpp): the bound the step
  /// query closed at (< 0 when not a k-induction proof) and whether the
  /// simple-path strengthening was in force.
  int kind_k = -1;
  bool kind_simple_path = true;
};

/// Per-run knobs shared by every backend of one check.
struct BackendContext {
  std::uint64_t seed = 0;
  /// Extra IC3 knobs forwarded verbatim to IC3-family backends (ablations).
  std::optional<ic3::Config> ic3_overrides;
  /// Generalization-strategy spec override ("dynamic:16,0.4", …; see
  /// ic3/gen_strategy.hpp) applied on top of the name-derived config of
  /// IC3-family backends; empty = keep the backend's own strategy.
  std::string gen_spec;
  /// Ternary-simulation backend override for the lifter (--lift-sim);
  /// unset = the config default (packed).
  std::optional<ic3::Config::LiftSim> lift_sim;
  /// Ternary drop-filter override for the MIC core (--gen-ternary-filter);
  /// unset = the config default (on).
  std::optional<bool> gen_ternary_filter;
  /// Batched generalization probe width override (--gen-batch); 1 disables
  /// batching, unset = the config default.
  std::optional<int> gen_batch;
  /// Adaptive batch-width override (--gen-batch-adaptive): scale the probe
  /// group size from the observed candidate failure rate; unset = the
  /// config default (off).
  std::optional<bool> gen_batch_adaptive;
  /// Portfolio lemma exchange endpoint for this backend (non-owning, may
  /// be null; engine/lemma_exchange.hpp).  IC3-family backends publish
  /// installed lemmas and import validated peer lemmas through it.
  ic3::LemmaBus* lemma_bus = nullptr;
  /// Live-progress channel for this backend (non-owning, may be null;
  /// obs/progress.hpp).  Engines publish frame/lemma/SAT counters into it
  /// for the `--progress` heartbeat.
  obs::ProgressSink* progress = nullptr;
};

class Backend {
 public:
  virtual ~Backend() = default;

  /// Registry name of this engine configuration (e.g. "ic3-ctg-pl").
  [[nodiscard]] virtual const std::string& name() const = 0;

  /// Solves until a verdict, the deadline, or a stop request on `cancel`
  /// (nullable).  Must be prompt about cancellation: a stopped loser
  /// returns Verdict::kUnknown within a few SAT restarts.
  virtual EngineResult check(const Deadline& deadline,
                             const CancelToken* cancel) = 0;
};

using BackendFactory = std::function<std::unique_ptr<Backend>(
    const ts::TransitionSystem& ts, const BackendContext& ctx)>;

/// Registers a backend under `name`.  Throws std::invalid_argument on a
/// duplicate name.  Thread-safe; typically called at startup or from tests.
void register_backend(const std::string& name, BackendFactory factory);

/// True when `name` is a registered backend.
[[nodiscard]] bool backend_registered(const std::string& name);

/// All registered backend names, sorted.
[[nodiscard]] std::vector<std::string> backend_names();

/// Instantiates the named backend over `ts`.  Throws std::invalid_argument
/// for unknown names.
[[nodiscard]] std::unique_ptr<Backend> make_backend(const std::string& name,
                                                    const ts::TransitionSystem& ts,
                                                    const BackendContext& ctx);

/// The ic3::Config behind an IC3-family backend name ("ic3-down",
/// "ic3-down-pl", "ic3-ctg", "ic3-ctg-pl", "ic3-cav23", "ic3-dyn",
/// "pdr").  Throws std::invalid_argument for non-IC3 names.
[[nodiscard]] ic3::Config ic3_config_for(const std::string& name,
                                         std::uint64_t seed);

/// The error text for an unrecognized engine token: names the token and
/// lists every registered backend plus the portfolio spec forms — shared
/// by the registry, the portfolio spec parser, and the batch runner so
/// every CLI surfaces the same actionable message.
[[nodiscard]] std::string unknown_engine_message(const std::string& token);

}  // namespace pilot::engine
