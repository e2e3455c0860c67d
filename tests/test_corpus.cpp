/// Corpus-subsystem tests: the Case bridge over synthetic suites, manifest
/// loading, directory scanning with the parse-metadata cache (cold, warm,
/// stale, malformed), suite export round trips, and run_matrix over a mixed
/// synthetic + on-disk corpus, and the deterministic shard partition with
/// its merge-equivalence.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>

#include "aig/aiger_io.hpp"
#include "check/runner.hpp"
#include "circuits/families.hpp"
#include "corpus/corpus.hpp"
#include "corpus/manifest.hpp"
#include "corpus/results_db.hpp"

namespace fs = std::filesystem;

namespace pilot::corpus {
namespace {

class TempDir {
 public:
  explicit TempDir(const std::string& name) {
    path_ = fs::temp_directory_path() /
            ("pilot_corpus_test_" + name + "_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] std::string str() const { return path_.string(); }
  [[nodiscard]] fs::path path() const { return path_; }

 private:
  fs::path path_;
};

void write_file(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

TEST(Corpus, ExpectedStringsRoundTrip) {
  EXPECT_EQ(expected_from_string("safe"), Expected::kSafe);
  EXPECT_EQ(expected_from_string("unsat"), Expected::kSafe);
  EXPECT_EQ(expected_from_string("unsafe"), Expected::kUnsafe);
  EXPECT_EQ(expected_from_string("sat"), Expected::kUnsafe);
  EXPECT_EQ(expected_from_string("unknown"), Expected::kUnknown);
  EXPECT_EQ(expected_from_string(""), Expected::kUnknown);
  EXPECT_THROW((void)expected_from_string("maybe"), std::invalid_argument);
  for (const Expected e :
       {Expected::kSafe, Expected::kUnsafe, Expected::kUnknown}) {
    EXPECT_EQ(expected_from_string(to_string(e)), e);
  }
}

TEST(Corpus, FromCircuitCarriesVerdictAndMetadata) {
  const circuits::CircuitCase cc = circuits::counter_unsafe(4, 6);
  const Case c = from_circuit(cc);
  EXPECT_EQ(c.name, cc.name);
  EXPECT_EQ(c.family, "counter");
  EXPECT_EQ(c.expected, Expected::kUnsafe);
  EXPECT_EQ(c.expected_cex_length, cc.expected_cex_length);
  EXPECT_TRUE(c.source.empty());
  EXPECT_EQ(c.num_latches, cc.aig.num_latches());
  EXPECT_EQ(c.size_estimate, cc.aig.num_ands() + cc.aig.num_latches());
  const aig::Aig loaded = c.load();
  EXPECT_EQ(loaded.num_latches(), cc.aig.num_latches());
  EXPECT_EQ(loaded.num_ands(), cc.aig.num_ands());
}

TEST(Corpus, SuiteCasesMirrorTheSuite) {
  const auto suite = circuits::make_suite(circuits::SuiteSize::kTiny);
  const auto cases = suite_cases(circuits::SuiteSize::kTiny);
  ASSERT_EQ(cases.size(), suite.size());
  for (std::size_t i = 0; i < suite.size(); ++i) {
    EXPECT_EQ(cases[i].name, suite[i].name);
    EXPECT_EQ(cases[i].expected, expected_from_safe(suite[i].expected_safe));
  }
}

TEST(Corpus, ResolveCorpusUnderstandsSuiteSpecs) {
  EXPECT_EQ(resolve_corpus("suite:tiny").size(),
            circuits::make_suite(circuits::SuiteSize::kTiny).size());
  EXPECT_THROW((void)resolve_corpus("suite:giant"), std::invalid_argument);
  EXPECT_THROW((void)resolve_corpus("/no/such/path"), std::runtime_error);
}

TEST(Manifest, ExportSuiteRoundTrips) {
  TempDir dir("export");
  const Manifest written =
      export_suite(circuits::SuiteSize::kTiny, dir.str());
  EXPECT_TRUE(fs::exists(dir.path() / kManifestFilename));

  const ScanReport report = load_corpus(dir.str());
  EXPECT_TRUE(report.errors.empty());
  ASSERT_EQ(report.cases.size(), written.entries.size());
  EXPECT_EQ(report.parsed, written.entries.size());  // cold cache
  for (std::size_t i = 0; i < report.cases.size(); ++i) {
    EXPECT_EQ(report.cases[i].name, written.entries[i].name);
    EXPECT_EQ(report.cases[i].expected, written.entries[i].expected);
    EXPECT_EQ(report.cases[i].family, "aiger");
    EXPECT_FALSE(report.cases[i].content_hash.empty());
  }
  // A case materializes to the same circuit shape it was exported from.
  const auto suite = circuits::make_suite(circuits::SuiteSize::kTiny);
  const aig::Aig loaded = report.cases[0].load();
  EXPECT_EQ(loaded.num_latches(), suite[0].aig.num_latches());
}

TEST(Manifest, CacheSkipsUnchangedAndReparsesStaleEntries) {
  TempDir dir("cache");
  const circuits::CircuitCase a = circuits::token_ring_safe(4);
  const circuits::CircuitCase b = circuits::counter_unsafe(4, 6);
  aig::write_aiger_file(a.aig, (dir.path() / "a.aag").string());
  aig::write_aiger_file(b.aig, (dir.path() / "b.aag").string());

  const ScanReport cold = load_corpus(dir.str());
  EXPECT_EQ(cold.parsed, 2u);
  EXPECT_EQ(cold.cached, 0u);
  ASSERT_EQ(cold.cases.size(), 2u);
  EXPECT_TRUE(fs::exists(dir.path() / kCacheFilename));

  const ScanReport warm = load_corpus(dir.str());
  EXPECT_EQ(warm.parsed, 0u);
  EXPECT_EQ(warm.cached, 2u);
  ASSERT_EQ(warm.cases.size(), 2u);
  EXPECT_EQ(warm.cases[0].content_hash, cold.cases[0].content_hash);
  EXPECT_EQ(warm.cases[0].num_latches, cold.cases[0].num_latches);

  // Stale entry: replace a.aag with a different circuit (different size,
  // so the size+mtime check must miss) — only it is re-parsed.
  const circuits::CircuitCase bigger = circuits::token_ring_safe(7);
  aig::write_aiger_file(bigger.aig, (dir.path() / "a.aag").string());
  const ScanReport stale = load_corpus(dir.str());
  EXPECT_EQ(stale.parsed, 1u);
  EXPECT_EQ(stale.cached, 1u);
  ASSERT_EQ(stale.cases.size(), 2u);
  EXPECT_EQ(stale.cases[0].num_latches, bigger.aig.num_latches());
  EXPECT_NE(stale.cases[0].content_hash, cold.cases[0].content_hash);
}

TEST(Manifest, MalformedAagIsReportedAndSkipped) {
  TempDir dir("malformed");
  aig::write_aiger_file(circuits::mutex_safe().aig,
                        (dir.path() / "good.aag").string());
  write_file(dir.path() / "broken.aag", "aag 1 2 3\nnot an aiger file\n");

  const ScanReport report = load_corpus(dir.str());
  ASSERT_EQ(report.cases.size(), 1u);
  EXPECT_EQ(report.cases[0].name, "good");
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_NE(report.errors[0].find("broken.aag"), std::string::npos);

  // The malformed file must not poison the cache: a re-scan still reports
  // it and still serves the good file from cache.
  const ScanReport again = load_corpus(dir.str());
  EXPECT_EQ(again.cached, 1u);
  EXPECT_EQ(again.errors.size(), 1u);
}

TEST(Manifest, ManifestSelectsAndAnnotatesCases) {
  TempDir dir("manifest");
  aig::write_aiger_file(circuits::token_ring_safe(4).aig,
                        (dir.path() / "ring.aag").string());
  aig::write_aiger_file(circuits::counter_unsafe(4, 6).aig,
                        (dir.path() / "cnt.aag").string());
  aig::write_aiger_file(circuits::mutex_safe().aig,
                        (dir.path() / "ignored.aag").string());
  write_file(dir.path() / kManifestFilename,
             R"({"version":1,"cases":[)"
             R"({"name":"ring","path":"ring.aag","expect":"safe",)"
             R"("tags":["ring","hwmcc"]},)"
             R"({"path":"cnt.aag","expect":"unsafe","cex_depth":6}]})");

  const ScanReport report = load_corpus(dir.str());
  EXPECT_TRUE(report.errors.empty());
  ASSERT_EQ(report.cases.size(), 2u);  // ignored.aag not in the manifest
  EXPECT_EQ(report.cases[0].name, "ring");
  EXPECT_EQ(report.cases[0].expected, Expected::kSafe);
  ASSERT_EQ(report.cases[0].tags.size(), 2u);
  EXPECT_EQ(report.cases[0].tags[1], "hwmcc");
  EXPECT_EQ(report.cases[1].name, "cnt");  // name defaults to the stem
  EXPECT_EQ(report.cases[1].expected, Expected::kUnsafe);
  EXPECT_EQ(report.cases[1].expected_cex_length, 6);
}

TEST(Manifest, MissingFileIsAnErrorNotACrash) {
  TempDir dir("missing");
  write_file(dir.path() / kManifestFilename,
             R"({"version":1,"cases":[{"path":"gone.aag","expect":"safe"}]})");
  const ScanReport report = load_corpus(dir.str());
  EXPECT_TRUE(report.cases.empty());
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_NE(report.errors[0].find("gone.aag"), std::string::npos);
}

TEST(Manifest, MalformedManifestThrows) {
  TempDir dir("badmanifest");
  write_file(dir.path() / kManifestFilename, "{not json");
  EXPECT_THROW((void)load_corpus(dir.str()), std::runtime_error);
  write_file(dir.path() / kManifestFilename, R"({"cases":[]})");
  EXPECT_THROW((void)load_corpus(dir.str()), std::runtime_error);
}

TEST(RunMatrix, MixedSyntheticAndOnDiskCorpus) {
  TempDir dir("mixed");
  const circuits::CircuitCase disk_case = circuits::counter_unsafe(4, 6);
  aig::write_aiger_file(disk_case.aig, (dir.path() / "cnt.aag").string());
  write_file(dir.path() / kManifestFilename,
             R"({"version":1,"cases":[)"
             R"({"path":"cnt.aag","expect":"unsafe","cex_depth":6}]})");

  std::vector<Case> cases = load_corpus(dir.str()).cases;
  cases.push_back(from_circuit(circuits::token_ring_safe(4)));
  ASSERT_EQ(cases.size(), 2u);

  check::RunMatrixOptions options;
  options.budget_ms = 30000;
  options.strict = true;  // construction-known verdicts: gate must hold
  const std::vector<std::string> engines{"ic3-ctg", "bmc"};
  const auto records = check::run_matrix(cases, engines, options);
  ASSERT_EQ(records.size(), 4u);

  // Case-major deterministic order: (cnt × ic3-ctg), (cnt × bmc), ...
  EXPECT_EQ(records[0].case_name, "cnt");
  EXPECT_EQ(records[0].engine, "ic3-ctg");
  EXPECT_EQ(records[0].verdict, ic3::Verdict::kUnsafe);
  EXPECT_EQ(records[1].engine, "bmc");
  EXPECT_EQ(records[1].verdict, ic3::Verdict::kUnsafe);
  EXPECT_EQ(records[2].case_name, cases[1].name);
  EXPECT_EQ(records[2].verdict, ic3::Verdict::kSafe);
  // BMC cannot prove the safe ring; it must finish without a verdict.
  EXPECT_EQ(records[3].verdict, ic3::Verdict::kUnknown);
  for (const auto& r : records) EXPECT_TRUE(r.error.empty());
}

TEST(RunMatrix, LoadFailureBecomesAnErrorRecord) {
  Case broken;
  broken.name = "broken";
  broken.family = "aiger";
  broken.source = "/no/such/file.aag";
  broken.load = []() { return aig::read_aiger_file("/no/such/file.aag"); };

  check::RunMatrixOptions options;
  options.budget_ms = 1000;
  options.strict = true;  // errors are not soundness violations
  const auto records =
      check::run_matrix(std::vector<Case>{broken},
                        std::vector<std::string>{"ic3-ctg", "bmc"}, options);
  ASSERT_EQ(records.size(), 2u);
  for (const auto& r : records) {
    EXPECT_FALSE(r.error.empty());
    EXPECT_FALSE(r.solved);
    EXPECT_EQ(r.verdict, ic3::Verdict::kUnknown);
  }
}

TEST(RunMatrix, UnknownEngineSpecThrowsUpFront) {
  const std::vector<Case> cases{from_circuit(circuits::mutex_safe())};
  check::RunMatrixOptions options;
  EXPECT_THROW((void)check::run_matrix(
                   cases, std::vector<std::string>{"no-such-engine"},
                   options),
               std::invalid_argument);
  EXPECT_THROW((void)check::run_matrix(
                   cases, std::vector<std::string>{"portfolio:bad+mix"},
                   options),
               std::invalid_argument);
}

TEST(RunMatrix, ExternalCancelShortCircuitsRemainingJobs) {
  // A pre-stopped token: every job must come back kUnknown immediately.
  CancelToken cancel;
  cancel.request_stop();
  check::RunMatrixOptions options;
  options.budget_ms = 60000;
  options.cancel = &cancel;
  options.jobs = 2;
  const auto records = check::run_matrix(
      suite_cases(circuits::SuiteSize::kTiny),
      std::vector<std::string>{"ic3-ctg"}, options);
  for (const auto& r : records) {
    EXPECT_FALSE(r.solved);
    EXPECT_EQ(r.verdict, ic3::Verdict::kUnknown);
  }
}

// ----- sharding --------------------------------------------------------------

TEST(ShardSpec, ParsesAndRejects) {
  const corpus::ShardSpec s = corpus::parse_shard_spec("2/5");
  EXPECT_EQ(s.index, 2u);
  EXPECT_EQ(s.count, 5u);
  EXPECT_THROW((void)corpus::parse_shard_spec(""), std::invalid_argument);
  EXPECT_THROW((void)corpus::parse_shard_spec("3"), std::invalid_argument);
  EXPECT_THROW((void)corpus::parse_shard_spec("5/5"), std::invalid_argument);
  EXPECT_THROW((void)corpus::parse_shard_spec("0/0"), std::invalid_argument);
  EXPECT_THROW((void)corpus::parse_shard_spec("a/b"), std::invalid_argument);
}

TEST(ShardCases, PartitionIsDisjointCompleteAndOrderIndependent) {
  const std::vector<corpus::Case> cases =
      corpus::suite_cases(circuits::SuiteSize::kTiny);
  ASSERT_FALSE(cases.empty());
  for (const std::size_t n : {2u, 3u, 5u}) {
    std::multiset<std::string> reassembled;
    std::set<std::string> seen;
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<corpus::Case> shard =
          corpus::shard_cases(cases, {i, n});
      for (const corpus::Case& c : shard) {
        reassembled.insert(c.name);
        EXPECT_TRUE(seen.insert(c.name).second)
            << c.name << " landed in two shards (n=" << n << ")";
      }
    }
    EXPECT_EQ(reassembled.size(), cases.size()) << "n=" << n;
  }

  // Membership is keyed by the case, not its position: a reversed corpus
  // shards identically.
  std::vector<corpus::Case> reversed(cases.rbegin(), cases.rend());
  const auto names = [](const std::vector<corpus::Case>& v) {
    std::set<std::string> out;
    for (const corpus::Case& c : v) out.insert(c.name);
    return out;
  };
  EXPECT_EQ(names(corpus::shard_cases(cases, {0, 3})),
            names(corpus::shard_cases(reversed, {0, 3})));
}

TEST(ShardCases, MergedShardCampaignMatchesUnsharded) {
  const std::vector<corpus::Case> cases =
      corpus::suite_cases(circuits::SuiteSize::kTiny);
  check::RunMatrixOptions mo;
  mo.budget_ms = 60000;
  mo.jobs = 2;
  mo.strict = false;
  const std::vector<check::RunRecord> all =
      check::run_matrix(cases, {"ic3-ctg"}, mo);

  corpus::ResultsDb merged;
  const corpus::RunContext ctx;
  for (const std::size_t i : {0u, 1u}) {
    const std::vector<check::RunRecord> part = check::run_matrix(
        corpus::shard_cases(cases, {i, 2}), {"ic3-ctg"}, mo);
    for (const check::RunRecord& r : part) merged.add({r, ctx});
  }
  merged.dedup();
  ASSERT_EQ(merged.rows().size(), all.size());
  std::map<std::string, ic3::Verdict> by_name;
  for (const corpus::RunRow& row : merged.rows()) {
    by_name[row.record.case_name] = row.record.verdict;
  }
  for (const check::RunRecord& r : all) {
    ASSERT_TRUE(by_name.count(r.case_name)) << r.case_name;
    EXPECT_EQ(by_name[r.case_name], r.verdict) << r.case_name;
  }
}

}  // namespace
}  // namespace pilot::corpus
