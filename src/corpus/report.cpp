#include "corpus/report.hpp"

#include <cstdio>
#include <sstream>

namespace pilot::corpus {

std::vector<EnginePhaseReport> aggregate_phase_report(const ResultsDb& db) {
  std::vector<EnginePhaseReport> out;
  for (const std::string& engine : db.engines()) {
    EnginePhaseReport row;
    row.engine = engine;
    out.push_back(std::move(row));
  }
  for (const RunRow& r : db.rows()) {
    for (EnginePhaseReport& row : out) {
      if (row.engine != r.record.engine) continue;
      ++row.cases;
      if (r.record.solved) ++row.solved;
      row.total_seconds += r.record.seconds;
      row.push_queries += r.record.stats.num_push_queries;
      row.push_successes += r.record.stats.num_push_successes;
      row.push_skips += r.record.stats.num_push_skips;
      row.phases += r.record.stats.phases;
      break;
    }
  }
  return out;
}

std::string render_phase_report(
    const std::vector<EnginePhaseReport>& rows) {
  std::ostringstream out;
  for (const EnginePhaseReport& row : rows) {
    char head[256];
    std::snprintf(head, sizeof(head),
                  "%s: %zu/%zu solved, %.3fs total, push_queries=%llu "
                  "push_successes=%llu push_skips=%llu\n",
                  row.engine.c_str(), row.solved, row.cases,
                  row.total_seconds,
                  static_cast<unsigned long long>(row.push_queries),
                  static_cast<unsigned long long>(row.push_successes),
                  static_cast<unsigned long long>(row.push_skips));
    out << head;
    if (row.phases.empty()) {
      out << "  (no phase data recorded)\n";
    } else {
      // Indent the phase table under the engine heading.
      std::istringstream table(row.phases.table(row.total_seconds));
      std::string line;
      while (std::getline(table, line)) out << "  " << line << "\n";
    }
  }
  if (rows.empty()) out << "no rows\n";
  return out.str();
}

}  // namespace pilot::corpus
