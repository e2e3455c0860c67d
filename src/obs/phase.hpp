#pragma once

/// Per-phase wall-time profiling.
///
/// A PhaseProfile is a pair of fixed arrays (seconds, call counts) indexed by
/// the Phase enum — no maps, no allocation, cheap enough to keep always on.
/// PhaseScope is the RAII accumulator; it also opens a trace zone named after
/// the phase, so the `--stats` breakdown table and the `--trace` timeline
/// share one taxonomy.
///
/// Phases nest by design: kBlock covers the whole blocking loop, which
/// contains kGeneralize and kLift, which in turn contain kSatSolve — the rows
/// of the breakdown table overlap and do not sum to the total.

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace pilot::obs {

enum class Phase : std::uint8_t {
  kBlock = 0,      // IC3 blocking loop (obligation queue)
  kGeneralize,     // lemma generalization (MIC / ctgDown / prediction)
  kPredict,        // the paper's lemma-prediction pass (inside generalize)
  kPropagate,      // frame propagation / lemma pushing
  kLift,           // predecessor lifting (ternary sim + SAT)
  kRebuild,        // SAT solver rebuild at frame boundaries
  kSatSolve,       // SAT queries (solve_bad / relative induction / probes)
  kSatInprocess,   // always 0 (no inprocessing); perfbench still reads it
  kSatVivify,      // always 0 (no vivification); perfbench still reads it
  kUnroll,         // BMC / k-induction transition unrolling
  kExchange,       // portfolio lemma-exchange import/validate
};

inline constexpr std::size_t kPhaseCount = 11;

[[nodiscard]] const char* phase_name(Phase phase);
[[nodiscard]] std::optional<Phase> phase_from_name(const std::string& name);

struct PhaseProfile {
  std::array<double, kPhaseCount> seconds{};
  std::array<std::uint64_t, kPhaseCount> calls{};

  void add(Phase phase, double secs, std::uint64_t n = 1) {
    seconds[static_cast<std::size_t>(phase)] += secs;
    calls[static_cast<std::size_t>(phase)] += n;
  }
  [[nodiscard]] double seconds_of(Phase phase) const {
    return seconds[static_cast<std::size_t>(phase)];
  }
  [[nodiscard]] std::uint64_t calls_of(Phase phase) const {
    return calls[static_cast<std::size_t>(phase)];
  }
  PhaseProfile& operator+=(const PhaseProfile& other);
  [[nodiscard]] bool empty() const;

  /// Aligned per-phase breakdown (name, calls, seconds, % of total_seconds).
  /// Skips phases that never ran; notes that rows overlap.
  [[nodiscard]] std::string table(double total_seconds) const;
};

/// Times the enclosing scope into `profile` (which may be null — e.g. a
/// stats-less caller) and opens a trace zone named after the phase.
class PhaseScope {
 public:
  PhaseScope(PhaseProfile* profile, Phase phase)
      : profile_(profile),
        phase_(phase)
#if !defined(PILOT_TRACE_DISABLED)
        ,
        zone_(phase_zone_id(phase))
#endif
  {
  }
  ~PhaseScope() {
    if (profile_ != nullptr) profile_->add(phase_, timer_.seconds());
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  static std::uint32_t phase_zone_id(Phase phase);

  PhaseProfile* profile_;
  Phase phase_;
  Timer timer_;
#if !defined(PILOT_TRACE_DISABLED)
  ScopedZone zone_;
#endif
};

}  // namespace pilot::obs
