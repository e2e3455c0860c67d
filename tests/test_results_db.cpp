/// Results-database tests: JSONL round trips (write → load), rows written
/// by older builds, append-only writer semantics, merge/dedup keying, query
/// filters, and the full diff matrix — identical, verdict flip, newly
/// unsolved/solved, time regression, missing rows.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "corpus/results_db.hpp"
#include "obs/phase.hpp"
#include "util/json.hpp"

namespace fs = std::filesystem;

namespace pilot::corpus {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name) {
    path_ = (fs::temp_directory_path() /
             ("pilot_results_test_" + name + "_" +
              std::to_string(
                  ::testing::UnitTest::GetInstance()->random_seed()) +
              ".jsonl"))
                .string();
    fs::remove(path_);
  }
  ~TempFile() { fs::remove(path_); }
  [[nodiscard]] const std::string& str() const { return path_; }

 private:
  std::string path_;
};

RunRow make_row(const std::string& case_name, const std::string& engine,
                ic3::Verdict verdict, double seconds) {
  RunRow row;
  row.record.case_name = case_name;
  row.record.family = "aiger";
  row.record.tags = {"t1", "t2"};
  row.record.engine = engine;
  row.record.expected = Expected::kSafe;
  row.record.verdict = verdict;
  row.record.solved = verdict != ic3::Verdict::kUnknown;
  row.record.seconds = seconds;
  row.record.frames = 7;
  row.record.stats.num_generalizations = 42;
  row.record.stats.num_prediction_queries = 17;
  row.record.stats.num_successful_predictions = 9;
  row.record.stats.num_push_queries = 31;
  row.record.stats.num_push_successes = 12;
  row.record.stats.num_push_skips = 55;
  row.record.stats.num_ctis = 8;
  row.record.stats.num_blocked_cubes = 6;
  row.record.stats.num_mic_drops = 21;
  row.record.stats.num_ctg_blocked = 3;
  row.record.stats.num_subsumed_lemmas = 4;
  row.record.stats.num_rebuild_carried_phases = 77;
  row.record.stats.max_frame = 7;
  row.context.corpus = "suite:tiny";
  row.context.commit = "deadbeef";
  row.context.timestamp = "2026-07-28T00:00:00Z";
  row.context.budget_ms = 2000;
  row.context.seed = 3;
  return row;
}

TEST(ResultsDb, JsonRoundTripPreservesEveryField) {
  const RunRow row = make_row("ring_7", "ic3-ctg-pl", ic3::Verdict::kSafe,
                              1.25);
  const RunRow back = row_from_json(json::parse(to_json(row).dump()));
  EXPECT_EQ(back.record.case_name, "ring_7");
  EXPECT_EQ(back.record.family, "aiger");
  EXPECT_EQ(back.record.tags, row.record.tags);
  EXPECT_EQ(back.record.engine, "ic3-ctg-pl");
  EXPECT_EQ(back.record.expected, Expected::kSafe);
  EXPECT_EQ(back.record.verdict, ic3::Verdict::kSafe);
  EXPECT_TRUE(back.record.solved);
  EXPECT_DOUBLE_EQ(back.record.seconds, 1.25);
  EXPECT_EQ(back.record.frames, 7u);
  EXPECT_EQ(back.record.stats.num_generalizations, 42u);
  EXPECT_EQ(back.record.stats.num_prediction_queries, 17u);
  EXPECT_EQ(back.record.stats.num_successful_predictions, 9u);
  EXPECT_EQ(back.record.stats.num_push_queries, 31u);
  EXPECT_EQ(back.record.stats.num_push_successes, 12u);
  EXPECT_EQ(back.record.stats.num_push_skips, 55u);
  EXPECT_EQ(back.record.stats.num_ctis, 8u);
  EXPECT_EQ(back.record.stats.num_blocked_cubes, 6u);
  EXPECT_EQ(back.record.stats.num_mic_drops, 21u);
  EXPECT_EQ(back.record.stats.num_ctg_blocked, 3u);
  EXPECT_EQ(back.record.stats.num_subsumed_lemmas, 4u);
  EXPECT_EQ(back.record.stats.num_rebuild_carried_phases, 77u);
  EXPECT_EQ(back.record.stats.max_frame, 7u);
  EXPECT_EQ(back.context.corpus, "suite:tiny");
  EXPECT_EQ(back.context.commit, "deadbeef");
  EXPECT_EQ(back.context.timestamp, "2026-07-28T00:00:00Z");
  EXPECT_EQ(back.context.budget_ms, 2000);
  EXPECT_EQ(back.context.seed, 3u);
}

TEST(ResultsDb, EngineCountersAbsentFromOlderRowsReadAsZero) {
  // A row written before the push/CTI/drop counters were persisted.
  json::Object stats =
      stats_to_json(make_row("old", "ic3-ctg", ic3::Verdict::kSafe, 0.5)
                        .record.stats)
          .as_object();
  for (const char* field :
       {"push_successes", "push_skips", "ctis", "blocked_cubes", "mic_drops",
        "ctg_blocked", "subsumed_lemmas", "rebuild_carried_phases"}) {
    ASSERT_EQ(stats.erase(field), 1u) << field;
  }
  const ic3::Ic3Stats back = stats_from_json(json::Value(std::move(stats)));
  EXPECT_EQ(back.num_push_queries, 31u);
  EXPECT_EQ(back.num_push_successes, 0u);
  EXPECT_EQ(back.num_push_skips, 0u);
  EXPECT_EQ(back.num_ctis, 0u);
  EXPECT_EQ(back.num_blocked_cubes, 0u);
  EXPECT_EQ(back.num_mic_drops, 0u);
  EXPECT_EQ(back.num_ctg_blocked, 0u);
  EXPECT_EQ(back.num_subsumed_lemmas, 0u);
  EXPECT_EQ(back.num_rebuild_carried_phases, 0u);
}

/// A row as older builds wrote it: it carries the SAT simplification
/// counters sat_subsumed, sat_strengthened, sat_vivified_lits,
/// sat_probe_failed_lits and sat_scc_merged, the coarse timers
/// time_generalize, time_predict and time_propagate, phase rows for the
/// SAT simplification phases, and the verdict-cache columns content_hash,
/// inputs, latches, ands, cache and advice.
constexpr const char* kOlderBuildRow =
    R"({"advice":"near:ring4@150ms","ands":24,"budget_ms":2000,"cache":"hit",)"
    R"("case":"counter10_unsafe","commit":"","content_hash":"c2dc4859d0dc0391",)"
    R"("corpus":"tests/corpus","engine":"ic3-ctg","expected":"unsafe",)"
    R"("family":"aiger","frames":5,"inputs":0,"latches":6,"seconds":0.00066,)"
    R"("seed":0,"solved":true,"stats":{"batched_drop_answers":0,)"
    R"("batched_drop_solves":0,"blocked_cubes":11,"cert_checks":0,)"
    R"("cert_failures":0,"ctg_blocked":1,"ctis":11,"exchange_imported":0,)"
    R"("exchange_published":0,"exchange_rejected":0,"exchange_skipped":0,)"
    R"("filter_blocking_witnesses":0,"filter_checks":0,)"
    R"("filter_solves_saved":0,"filter_witnesses":0,"found_failed_parents":0,)"
    R"("gen_strategies":[{"attempts":11,"dropped_lits":8,"name":"ctg",)"
    R"("queries":19,"successes":5,"switches":0}],"generalizations":11,)"
    R"("lemmas":12,"max_frame":5,"mic_drops":6,"mic_queries":19,)"
    R"("obligations":16,"packed_sim_words":0,"phases":{)"
    R"("block":{"calls":5,"seconds":0.0006},)"
    R"("generalize":{"calls":11,"seconds":0.00021},)"
    R"("lift":{"calls":16,"seconds":0.000078},)"
    R"("propagate":{"calls":4,"seconds":0.000034},)"
    R"("sat_inprocess":{"calls":12,"seconds":0.000027},)"
    R"("sat_solve":{"calls":76,"seconds":0.00045},)"
    R"("sat_vivify":{"calls":4,"seconds":0.0000014}},)"
    R"("prediction_queries":0,"push_queries":5,"push_skips":5,)"
    R"("push_successes":0,"rebuild_carried_phases":0,"rebuild_subsumed":0,)"
    R"("sat_binary_propagations":1748,"sat_conflicts":6,"sat_db_reductions":0,)"
    R"("sat_decisions":453,"sat_glue_learnts":4,"sat_probe_failed_lits":2,)"
    R"("sat_propagations":2535,"sat_saved_propagations":472,)"
    R"("sat_scc_merged":1,"sat_solve_calls":76,"sat_strengthened":4,)"
    R"("sat_subsumed":3,"sat_trail_reuse_hits":42,"sat_vivified_lits":7,)"
    R"("solver_rebuilds":0,"strategy_switches":0,"subsumed_lemmas":6,)"
    R"("successful_predictions":0,"time_generalize":0.00021,)"
    R"("time_predict":0,"time_propagate":0.000034,"time_total":0.00066},)"
    R"("tags":["smoke","counter"],"timestamp":"2026-10-17T08:34:02Z",)"
    R"("verdict":"UNSAFE"})";

TEST(ResultsDb, OlderBuildRowLoadsAndRoundTripsWithoutRemovedFields) {
  const RunRow row = row_from_json(json::parse(kOlderBuildRow));
  EXPECT_EQ(row.record.case_name, "counter10_unsafe");
  EXPECT_EQ(row.record.engine, "ic3-ctg");
  EXPECT_EQ(row.record.verdict, ic3::Verdict::kUnsafe);
  EXPECT_EQ(row.record.stats.num_push_queries, 5u);
  EXPECT_EQ(row.record.stats.num_push_skips, 5u);
  EXPECT_EQ(row.record.stats.sat_solve_calls, 76u);
  EXPECT_DOUBLE_EQ(row.record.stats.time_total, 0.00066);
  EXPECT_EQ(row.record.stats.phases.calls_of(obs::Phase::kGeneralize), 11u);
  EXPECT_EQ(row.record.stats.phases.calls_of(obs::Phase::kSatInprocess), 12u);

  // Written back, the row drops every removed field and is then stable.
  const std::string written = to_json(row).dump();
  const json::Value stats = json::parse(written).at("stats");
  for (const char* field :
       {"sat_subsumed", "sat_strengthened", "sat_vivified_lits",
        "sat_probe_failed_lits", "sat_scc_merged", "time_generalize",
        "time_predict", "time_propagate"}) {
    EXPECT_FALSE(stats.contains(field)) << field;
  }
  const json::Value top = json::parse(written);
  for (const char* field :
       {"content_hash", "inputs", "latches", "ands", "cache", "advice"}) {
    EXPECT_FALSE(top.contains(field)) << field;
  }
  EXPECT_EQ(to_json(row_from_json(json::parse(written))).dump(), written);

  // The old row and its rewrite diff clean against each other.
  ResultsDb old_db;
  old_db.add(row);
  ResultsDb new_db;
  new_db.add(row_from_json(top));
  const DiffOptions options;
  const DiffReport report = diff_runs(old_db, new_db, options);
  EXPECT_FALSE(report.failed(options));
  EXPECT_TRUE(report.verdict_flips.empty());
  EXPECT_TRUE(report.only_in_baseline.empty());
}

TEST(ResultsDb, CommittedBaselineLoadsAndDiffsCleanAfterRewrite) {
  const ResultsDb baseline =
      ResultsDb::load(PILOT_TEST_CORPUS_DIR "/baseline.jsonl");
  ASSERT_FALSE(baseline.rows().empty());
  TempFile rewritten("baseline_rewrite");
  {
    ResultsDb::Writer writer(rewritten.str());
    for (const RunRow& row : baseline.rows()) writer.append(row);
  }
  const ResultsDb reloaded = ResultsDb::load(rewritten.str());
  ASSERT_EQ(reloaded.rows().size(), baseline.rows().size());
  const DiffOptions options;
  const DiffReport report = diff_runs(baseline, reloaded, options);
  EXPECT_FALSE(report.failed(options));
  EXPECT_TRUE(report.verdict_flips.empty());
  EXPECT_TRUE(report.newly_unsolved.empty());
  EXPECT_TRUE(report.only_in_baseline.empty());
}

TEST(ResultsDb, WriterAppendsAndLoadReadsBack) {
  TempFile file("roundtrip");
  {
    ResultsDb::Writer writer(file.str());
    writer.append(make_row("a", "ic3-ctg", ic3::Verdict::kSafe, 0.5));
    writer.append(make_row("b", "ic3-ctg", ic3::Verdict::kUnsafe, 0.7));
    EXPECT_EQ(writer.rows_written(), 2u);
  }
  {
    // Append mode: a second writer extends, not truncates.
    ResultsDb::Writer writer(file.str());
    writer.append(make_row("c", "bmc", ic3::Verdict::kUnknown, 2.0));
  }
  const ResultsDb db = ResultsDb::load(file.str());
  ASSERT_EQ(db.rows().size(), 3u);
  EXPECT_EQ(db.rows()[0].record.case_name, "a");
  EXPECT_EQ(db.rows()[2].record.engine, "bmc");

  const auto engines = db.engines();
  ASSERT_EQ(engines.size(), 2u);
  EXPECT_EQ(engines[0], "ic3-ctg");
  EXPECT_EQ(engines[1], "bmc");
}

TEST(ResultsDb, LoadRejectsCorruptRows) {
  TempFile file("corrupt");
  std::ofstream out(file.str(), std::ios::binary);
  out << to_json(make_row("a", "bmc", ic3::Verdict::kSafe, 0.1)).dump()
      << "\n"
      << "{this is not json}\n";
  out.close();
  EXPECT_THROW((void)ResultsDb::load(file.str()), std::runtime_error);
  EXPECT_THROW((void)ResultsDb::load("/no/such/file.jsonl"),
               std::runtime_error);
}

TEST(ResultsDb, MergeKeepsLastRowPerCaseEngineKey) {
  ResultsDb db;
  db.add(make_row("a", "ic3-ctg", ic3::Verdict::kSafe, 0.5));
  db.add(make_row("b", "ic3-ctg", ic3::Verdict::kSafe, 0.6));

  ResultsDb newer;
  newer.add(make_row("a", "ic3-ctg", ic3::Verdict::kSafe, 0.1));  // re-run
  newer.add(make_row("a", "bmc", ic3::Verdict::kUnknown, 2.0));   // new key

  db.merge(newer);
  ASSERT_EQ(db.rows().size(), 3u);
  // The re-run superseded the original "a × ic3-ctg" row.
  const auto rows = db.query("ic3-ctg", "a");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].record.seconds, 0.1);
}

TEST(ResultsDb, QueryFiltersByEngineAndSubstring) {
  ResultsDb db;
  db.add(make_row("ring_4", "ic3-ctg", ic3::Verdict::kSafe, 0.1));
  db.add(make_row("ring_8", "ic3-ctg", ic3::Verdict::kSafe, 0.2));
  db.add(make_row("ring_4", "bmc", ic3::Verdict::kUnknown, 1.0));
  EXPECT_EQ(db.query("ic3-ctg", "").size(), 2u);
  EXPECT_EQ(db.query("", "ring_4").size(), 2u);
  EXPECT_EQ(db.query("bmc", "ring_4").size(), 1u);
  EXPECT_EQ(db.query("pdr", "").size(), 0u);
}

TEST(Diff, IdenticalRunsAreClean) {
  ResultsDb db;
  db.add(make_row("a", "ic3-ctg", ic3::Verdict::kSafe, 0.5));
  db.add(make_row("b", "bmc", ic3::Verdict::kUnknown, 2.0));
  const DiffOptions options;
  const DiffReport report = diff_runs(db, db, options);
  EXPECT_FALSE(report.failed(options));
  EXPECT_FALSE(report.hard_failure());
  EXPECT_TRUE(report.verdict_flips.empty());
  EXPECT_TRUE(report.newly_unsolved.empty());
  EXPECT_TRUE(report.time_regressions.empty());
  EXPECT_NE(report.summary(options).find("RESULT: OK"), std::string::npos);
}

TEST(Diff, VerdictFlipIsAHardFailure) {
  ResultsDb base;
  base.add(make_row("a", "ic3-ctg", ic3::Verdict::kSafe, 0.5));
  ResultsDb cur;
  cur.add(make_row("a", "ic3-ctg", ic3::Verdict::kUnsafe, 0.5));
  const DiffOptions options;
  const DiffReport report = diff_runs(base, cur, options);
  ASSERT_EQ(report.verdict_flips.size(), 1u);
  EXPECT_EQ(report.verdict_flips[0].case_name, "a");
  EXPECT_TRUE(report.hard_failure());
  EXPECT_TRUE(report.failed(options));
  EXPECT_NE(report.summary(options).find("REGRESSION"), std::string::npos);
}

TEST(Diff, NewlyUnsolvedFailsNewlySolvedDoesNot) {
  ResultsDb base;
  base.add(make_row("a", "ic3-ctg", ic3::Verdict::kSafe, 0.5));
  base.add(make_row("b", "ic3-ctg", ic3::Verdict::kUnknown, 2.0));
  ResultsDb cur;
  cur.add(make_row("a", "ic3-ctg", ic3::Verdict::kUnknown, 2.0));
  cur.add(make_row("b", "ic3-ctg", ic3::Verdict::kSafe, 0.5));
  const DiffOptions options;
  const DiffReport report = diff_runs(base, cur, options);
  ASSERT_EQ(report.newly_unsolved.size(), 1u);
  EXPECT_EQ(report.newly_unsolved[0].case_name, "a");
  ASSERT_EQ(report.newly_solved.size(), 1u);
  EXPECT_EQ(report.newly_solved[0].case_name, "b");
  EXPECT_TRUE(report.failed(options));

  // The improvement alone is not a failure.
  ResultsDb cur2;
  cur2.add(make_row("a", "ic3-ctg", ic3::Verdict::kSafe, 0.5));
  cur2.add(make_row("b", "ic3-ctg", ic3::Verdict::kSafe, 0.5));
  EXPECT_FALSE(diff_runs(base, cur2, options).failed(options));
}

TEST(Diff, TimeRegressionRespectsThresholdAndFloor) {
  ResultsDb base;
  base.add(make_row("slow", "ic3-ctg", ic3::Verdict::kSafe, 1.0));
  base.add(make_row("tiny", "ic3-ctg", ic3::Verdict::kSafe, 0.01));
  ResultsDb cur;
  cur.add(make_row("slow", "ic3-ctg", ic3::Verdict::kSafe, 2.0));
  cur.add(make_row("tiny", "ic3-ctg", ic3::Verdict::kSafe, 0.05));  // 5× but tiny

  DiffOptions options;
  options.time_ratio = 1.5;
  options.min_seconds = 0.25;
  const DiffReport report = diff_runs(base, cur, options);
  ASSERT_EQ(report.time_regressions.size(), 1u);  // floor filtered "tiny"
  EXPECT_EQ(report.time_regressions[0].case_name, "slow");
  EXPECT_FALSE(report.failed(options));  // reported, not failed

  options.fail_on_time = true;
  EXPECT_TRUE(report.failed(options));

  options.fail_on_time = false;
  options.time_ratio = 3.0;
  EXPECT_TRUE(diff_runs(base, cur, options).time_regressions.empty());
}

TEST(Diff, MissingRowsAreReportedInformationally) {
  ResultsDb base;
  base.add(make_row("a", "ic3-ctg", ic3::Verdict::kSafe, 0.5));
  base.add(make_row("gone", "ic3-ctg", ic3::Verdict::kSafe, 0.5));
  ResultsDb cur;
  cur.add(make_row("a", "ic3-ctg", ic3::Verdict::kSafe, 0.5));
  cur.add(make_row("new", "ic3-ctg", ic3::Verdict::kSafe, 0.5));
  const DiffOptions options;
  const DiffReport report = diff_runs(base, cur, options);
  ASSERT_EQ(report.only_in_baseline.size(), 1u);
  ASSERT_EQ(report.only_in_current.size(), 1u);
  EXPECT_FALSE(report.failed(options));
}

TEST(Diff, FullPipelineWriteLoadMergeDiff) {
  // The satellite round trip in one flow: write two campaign files, load,
  // merge (second supersedes), diff against the first.
  TempFile base_file("base");
  TempFile fix_file("fix");
  {
    ResultsDb::Writer writer(base_file.str());
    writer.append(make_row("a", "ic3-ctg", ic3::Verdict::kSafe, 0.5));
    writer.append(make_row("b", "ic3-ctg", ic3::Verdict::kUnknown, 2.0));
  }
  {
    ResultsDb::Writer writer(fix_file.str());
    writer.append(make_row("b", "ic3-ctg", ic3::Verdict::kSafe, 0.4));
  }
  ResultsDb merged = ResultsDb::load(base_file.str());
  merged.merge(ResultsDb::load(fix_file.str()));
  ASSERT_EQ(merged.rows().size(), 2u);

  const DiffOptions options;
  const DiffReport report =
      diff_runs(ResultsDb::load(base_file.str()), merged, options);
  EXPECT_EQ(report.newly_solved.size(), 1u);
  EXPECT_FALSE(report.failed(options));
}

}  // namespace
}  // namespace pilot::corpus
