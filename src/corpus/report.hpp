/// \file report.hpp
/// Campaign-level phase aggregation behind `pilot-bench report`: folds a
/// ResultsDb into one row per engine — cases run, cases solved, total
/// wall-clock, propagation push counts, and the summed per-phase profile —
/// and renders the
/// per-engine phase tables.  Rows written by builds that predate phase
/// profiling simply contribute zeros, so any existing campaign db reports
/// cleanly (its phase tables are just empty).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "corpus/results_db.hpp"
#include "obs/phase.hpp"

namespace pilot::corpus {

/// One engine's aggregate across a campaign.
struct EnginePhaseReport {
  std::string engine;
  std::size_t cases = 0;
  std::size_t solved = 0;
  /// Sum of per-case wall-clock seconds (RunRecord::seconds).
  double total_seconds = 0.0;
  /// Summed propagation counters: push solves issued, pushes that
  /// succeeded, and pushes skipped because a stored CTP still held.
  std::uint64_t push_queries = 0;
  std::uint64_t push_successes = 0;
  std::uint64_t push_skips = 0;
  obs::PhaseProfile phases;
};

/// Aggregates `db` (dedup the db first if it may hold superseded rows)
/// into one report per engine, in the db's first-seen engine order.
[[nodiscard]] std::vector<EnginePhaseReport> aggregate_phase_report(
    const ResultsDb& db);

/// Renders the per-engine summary lines and phase tables as one
/// multi-line string.
[[nodiscard]] std::string render_phase_report(
    const std::vector<EnginePhaseReport>& rows);

}  // namespace pilot::corpus
