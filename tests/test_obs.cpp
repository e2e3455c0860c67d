/// Observability tests: the trace ring buffers (wrap-around drop
/// accounting, concurrent writers), Chrome trace-event export
/// well-formedness over a real portfolio run, engine-trajectory identity
/// with tracing on vs off (tracing must observe, never steer), the
/// PhaseProfile arithmetic and name round-trips, the progress
/// sink/monitor, per-phase ResultsDb persistence, and the campaign phase
/// report.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "check/checker.hpp"
#include "circuits/families.hpp"
#include "corpus/corpus.hpp"
#include "corpus/report.hpp"
#include "corpus/results_db.hpp"
#include "engine/portfolio.hpp"
#include "ic3/engine.hpp"
#include "obs/phase.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "ts/transition_system.hpp"
#include "util/json.hpp"

namespace pilot {
namespace {

/// Restores the global trace state around every test that touches it, so
/// suite order cannot leak an enabled collector into unrelated tests.
class TraceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_trace_enabled(false);
    obs::reset_trace();
  }
  void TearDown() override {
    obs::set_trace_enabled(false);
    obs::set_ring_capacity(1 << 16);
    obs::reset_trace();
  }
};

using TraceRing = TraceFixture;
using TraceExport = TraceFixture;
using TraceIdentity = TraceFixture;

TEST_F(TraceRing, WrapAroundKeepsNewestAndCountsDrops) {
  obs::set_ring_capacity(8);
  obs::reset_trace();
  obs::set_trace_enabled(true);
  const std::uint32_t id = obs::intern_name("wrap-test");
  for (std::uint64_t i = 0; i < 20; ++i) {
    obs::record_event(obs::EventType::kInstant, id, /*a0=*/i);
  }
  obs::set_trace_enabled(false);

  const std::vector<obs::StreamSnapshot> streams = obs::snapshot_streams();
  ASSERT_EQ(streams.size(), 1u);
  const obs::StreamSnapshot& s = streams[0];
  EXPECT_EQ(s.recorded, 20u);
  EXPECT_EQ(s.dropped, 12u);  // exactly recorded - capacity
  ASSERT_EQ(s.events.size(), 8u);
  // Drop-oldest: the survivors are the last `capacity` events, in order.
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    EXPECT_EQ(s.events[i].a0, 12u + i);
    EXPECT_EQ(s.events[i].name_id, id);
  }
}

TEST_F(TraceRing, UnderCapacityDropsNothing) {
  obs::set_ring_capacity(64);
  obs::reset_trace();
  obs::set_trace_enabled(true);
  const std::uint32_t id = obs::intern_name("no-drop");
  for (int i = 0; i < 10; ++i) {
    obs::record_event(obs::EventType::kInstant, id);
  }
  const std::vector<obs::StreamSnapshot> streams = obs::snapshot_streams();
  ASSERT_EQ(streams.size(), 1u);
  EXPECT_EQ(streams[0].recorded, 10u);
  EXPECT_EQ(streams[0].dropped, 0u);
  EXPECT_EQ(streams[0].events.size(), 10u);
}

TEST_F(TraceRing, ConcurrentWritersGetIndependentStreams) {
  obs::set_ring_capacity(1 << 12);
  obs::reset_trace();
  obs::set_trace_enabled(true);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kEvents = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      obs::name_current_thread("writer-" + std::to_string(t));
      const std::uint32_t id =
          obs::intern_name("evt-" + std::to_string(t));
      for (std::uint64_t i = 0; i < kEvents; ++i) {
        obs::record_event(obs::EventType::kInstant, id, i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  obs::set_trace_enabled(false);

  const std::vector<obs::StreamSnapshot> streams = obs::snapshot_streams();
  ASSERT_EQ(streams.size(), static_cast<std::size_t>(kThreads));
  std::uint64_t total = 0;
  std::set<std::string> names;
  for (const obs::StreamSnapshot& s : streams) {
    total += s.recorded;
    EXPECT_EQ(s.dropped, 0u);
    names.insert(s.thread_name);
    // Single-writer rings: each stream's events are in program order.
    for (std::size_t i = 1; i < s.events.size(); ++i) {
      EXPECT_EQ(s.events[i].a0, s.events[i - 1].a0 + 1);
    }
  }
  EXPECT_EQ(total, kThreads * kEvents);
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kThreads));
}

TEST_F(TraceExport, PortfolioTraceIsWellFormedChromeJson) {
  obs::reset_trace();
  obs::set_trace_enabled(true);
  const circuits::CircuitCase cc = circuits::token_ring_safe(8);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  engine::PortfolioOptions po;
  po.backends = {"ic3-ctg-pl", "ic3-down"};
  const engine::PortfolioResult pr = engine::run_portfolio(ts, po);
  obs::set_trace_enabled(false);
  EXPECT_EQ(pr.result.verdict, ic3::Verdict::kSafe);

  const json::Value trace = json::parse(obs::export_chrome_trace());
  ASSERT_TRUE(trace.at("traceEvents").is_array());
  const json::Array& events = trace.at("traceEvents").as_array();

  std::set<std::uint64_t> zone_tids;
  std::set<std::string> zone_names;
  std::map<std::uint64_t, std::int64_t> depth;  // B/E balance per track
  std::set<std::string> thread_names;
  for (const json::Value& e : events) {
    const std::string ph = e.at("ph").as_string();
    const std::uint64_t tid = e.at("tid").as_uint();
    if (ph == "B") {
      zone_tids.insert(tid);
      zone_names.insert(e.at("name").as_string());
      ++depth[tid];
    } else if (ph == "E") {
      --depth[tid];
      EXPECT_GE(depth[tid], 0) << "E without matching B on tid " << tid;
    } else if (ph == "M" && e.at("name").as_string() == "thread_name") {
      thread_names.insert(e.at("args").at("name").as_string());
    }
  }
  // Two racing backends → at least two thread tracks with zones.
  EXPECT_GE(zone_tids.size(), 2u);
  for (const auto& [tid, d] : depth) {
    EXPECT_EQ(d, 0) << "unbalanced zones on tid " << tid;
  }
  // The core engine taxonomy must be present.
  for (const char* required :
       {"block", "generalize", "propagate", "sat_solve"}) {
    EXPECT_TRUE(zone_names.count(required) == 1) << required;
  }
  // Portfolio workers name their tracks after the backend.
  EXPECT_TRUE(thread_names.count("ic3-ctg-pl") == 1);
  EXPECT_TRUE(thread_names.count("ic3-down") == 1);
}

/// Tracing must be a pure observer: the engine's trajectory — verdict,
/// frame count, lemma counts, and the invariant itself — is bit-identical
/// with tracing on and off, across the whole fixture corpus.
TEST_F(TraceIdentity, EngineTrajectoryIsIdenticalTracingOnVsOff) {
  const std::vector<corpus::Case> cases =
      corpus::resolve_corpus(PILOT_TEST_CORPUS_DIR);
  ASSERT_FALSE(cases.empty());
  for (const corpus::Case& c : cases) {
    const ts::TransitionSystem ts =
        ts::TransitionSystem::from_aig(c.load());
    auto run = [&](bool traced) {
      obs::reset_trace();
      obs::set_trace_enabled(traced);
      ic3::Config cfg;
      cfg.predict_lemmas = true;
      ic3::Engine engine(ts, cfg);
      const ic3::Result r = engine.check(Deadline::in_seconds(120));
      obs::set_trace_enabled(false);
      return r;
    };
    const ic3::Result off = run(false);
    const ic3::Result on = run(true);
    EXPECT_EQ(on.verdict, off.verdict) << c.name;
    EXPECT_EQ(on.frames, off.frames) << c.name;
    EXPECT_EQ(on.stats.num_lemmas, off.stats.num_lemmas) << c.name;
    EXPECT_EQ(on.stats.num_obligations, off.stats.num_obligations) << c.name;
    EXPECT_EQ(on.stats.sat_solve_calls, off.stats.sat_solve_calls) << c.name;
    ASSERT_EQ(on.invariant.has_value(), off.invariant.has_value()) << c.name;
    if (on.invariant.has_value()) {
      ASSERT_EQ(on.invariant->lemma_cubes.size(),
                off.invariant->lemma_cubes.size())
          << c.name;
      for (std::size_t i = 0; i < on.invariant->lemma_cubes.size(); ++i) {
        EXPECT_EQ(on.invariant->lemma_cubes[i], off.invariant->lemma_cubes[i])
            << c.name << " cube " << i;
      }
    }
  }
}

TEST(PhaseProfile, NamesRoundTrip) {
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
    const auto p = static_cast<obs::Phase>(i);
    const std::optional<obs::Phase> back =
        obs::phase_from_name(obs::phase_name(p));
    ASSERT_TRUE(back.has_value()) << obs::phase_name(p);
    EXPECT_EQ(*back, p);
  }
  EXPECT_FALSE(obs::phase_from_name("no-such-phase").has_value());
}

TEST(PhaseProfile, AccumulatesAndMerges) {
  obs::PhaseProfile a;
  EXPECT_TRUE(a.empty());
  a.add(obs::Phase::kBlock, 1.0);
  a.add(obs::Phase::kSatSolve, 0.25, 10);
  EXPECT_FALSE(a.empty());
  obs::PhaseProfile b;
  b.add(obs::Phase::kSatSolve, 0.75, 30);
  a += b;
  EXPECT_DOUBLE_EQ(a.seconds_of(obs::Phase::kSatSolve), 1.0);
  EXPECT_EQ(a.calls_of(obs::Phase::kSatSolve), 40u);
  EXPECT_EQ(a.calls_of(obs::Phase::kBlock), 1u);

  const std::string table = a.table(2.0);
  EXPECT_NE(table.find("block"), std::string::npos);
  EXPECT_NE(table.find("sat_solve"), std::string::npos);
  // Phases that never ran are skipped.
  EXPECT_EQ(table.find("exchange"), std::string::npos);
}

TEST(PhaseProfile, ScopeAccumulatesIntoProfile) {
  obs::PhaseProfile p;
  { obs::PhaseScope scope(&p, obs::Phase::kPropagate); }
  { obs::PhaseScope scope(&p, obs::Phase::kPropagate); }
  { obs::PhaseScope scope(nullptr, obs::Phase::kBlock); }  // null-safe
  EXPECT_EQ(p.calls_of(obs::Phase::kPropagate), 2u);
  EXPECT_GE(p.seconds_of(obs::Phase::kPropagate), 0.0);
  EXPECT_EQ(p.calls_of(obs::Phase::kBlock), 0u);
}

TEST(Progress, SinkPublishReadAndLineFormat) {
  obs::ProgressSink sink("ic3-ctg");
  obs::ProgressSnapshot s;
  s.frames = 7;
  s.lemmas = 42;
  s.sat_solves = 300;
  sink.publish(s);
  const obs::ProgressSnapshot r = sink.read();
  EXPECT_EQ(r.frames, 7u);
  EXPECT_EQ(r.lemmas, 42u);

  obs::ProgressSnapshot prev;
  prev.sat_solves = 100;
  const std::string line =
      obs::format_progress_line("ic3-ctg", 1.5, r, prev, 2.0);
  EXPECT_NE(line.find("ic3-ctg"), std::string::npos);
  EXPECT_NE(line.find("frame=7"), std::string::npos);
  EXPECT_NE(line.find("lemmas=42"), std::string::npos);
  EXPECT_NE(line.find("sat=300"), std::string::npos);
  EXPECT_NE(line.find("(100 q/s)"), std::string::npos);  // (300-100)/2.0
}

TEST(Progress, MonitorStartStopIsSafe) {
  obs::ProgressMonitor monitor(0.01);
  monitor.start();
  obs::ProgressSink* a = monitor.add_channel("a");  // while running
  ASSERT_NE(a, nullptr);
  obs::ProgressSnapshot s;
  s.frames = 1;
  for (int i = 0; i < 50; ++i) {
    ++s.sat_solves;
    a->publish(s);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  monitor.stop();
  monitor.stop();  // idempotent
}

TEST(StatsJson, PhasesAndTimesRoundTrip) {
  ic3::Ic3Stats s;
  s.num_lemmas = 9;
  s.time_total = 2.5;
  s.phases.add(obs::Phase::kBlock, 1.5, 3);
  s.phases.add(obs::Phase::kGeneralize, 0.5, 7);
  s.phases.add(obs::Phase::kSatSolve, 0.75, 120);
  const json::Value v = corpus::stats_to_json(s);
  const ic3::Ic3Stats back = corpus::stats_from_json(v);
  EXPECT_EQ(back.num_lemmas, 9u);
  EXPECT_DOUBLE_EQ(back.time_total, 2.5);
  EXPECT_DOUBLE_EQ(back.phases.seconds_of(obs::Phase::kGeneralize), 0.5);
  EXPECT_EQ(back.phases.calls_of(obs::Phase::kGeneralize), 7u);
  EXPECT_DOUBLE_EQ(back.phases.seconds_of(obs::Phase::kBlock), 1.5);
  EXPECT_EQ(back.phases.calls_of(obs::Phase::kBlock), 3u);
  EXPECT_EQ(back.phases.calls_of(obs::Phase::kSatSolve), 120u);
  // Phases that never ran are not serialized at all.
  EXPECT_FALSE(v.at("phases").contains("exchange"));
}

TEST(StatsJson, LoaderToleratesRowsWithoutPhases) {
  // A minimal pre-PR8 row shape: no time_* fields, no "phases" object.
  const json::Value v = json::parse(R"({"lemmas": 4, "max_frame": 2})");
  const ic3::Ic3Stats s = corpus::stats_from_json(v);
  EXPECT_EQ(s.num_lemmas, 4u);
  EXPECT_DOUBLE_EQ(s.time_total, 0.0);
  EXPECT_TRUE(s.phases.empty());
}

TEST(PhaseReport, AggregatesPerEngine) {
  corpus::ResultsDb db;
  auto make_row = [](const std::string& case_name, const std::string& engine,
                     bool solved, double seconds, double block_secs) {
    corpus::RunRow row;
    row.record.case_name = case_name;
    row.record.engine = engine;
    row.record.solved = solved;
    row.record.seconds = seconds;
    row.record.stats.num_push_queries = 10;
    row.record.stats.num_push_successes = 4;
    row.record.stats.num_push_skips = 30;
    if (block_secs > 0.0) {
      row.record.stats.phases.add(obs::Phase::kBlock, block_secs, 1);
    }
    return row;
  };
  db.add(make_row("a", "ic3-ctg", true, 1.0, 0.5));
  db.add(make_row("b", "ic3-ctg", false, 2.0, 1.0));
  db.add(make_row("a", "bmc", true, 0.5, 0.0));  // pre-PR8 row: no phases

  const std::vector<corpus::EnginePhaseReport> rows =
      corpus::aggregate_phase_report(db);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].engine, "ic3-ctg");
  EXPECT_EQ(rows[0].cases, 2u);
  EXPECT_EQ(rows[0].solved, 1u);
  EXPECT_DOUBLE_EQ(rows[0].total_seconds, 3.0);
  EXPECT_DOUBLE_EQ(rows[0].phases.seconds_of(obs::Phase::kBlock), 1.5);
  EXPECT_EQ(rows[0].push_queries, 20u);
  EXPECT_EQ(rows[0].push_successes, 8u);
  EXPECT_EQ(rows[0].push_skips, 60u);
  EXPECT_EQ(rows[1].engine, "bmc");
  EXPECT_TRUE(rows[1].phases.empty());

  const std::string report = corpus::render_phase_report(rows);
  EXPECT_NE(report.find("ic3-ctg: 1/2 solved"), std::string::npos);
  EXPECT_NE(report.find("push_queries=20 push_successes=8 push_skips=60"),
            std::string::npos);
  EXPECT_NE(report.find("block"), std::string::npos);
  EXPECT_NE(report.find("no phase data"), std::string::npos);
}

/// End-to-end: a single-engine check with a progress interval publishes
/// real counters through the checker's own monitor without disturbing the
/// verdict.
TEST(Progress, CheckerHeartbeatDoesNotDisturbVerdict) {
  const circuits::CircuitCase cc = circuits::token_ring_safe(6);
  check::CheckOptions opts;
  opts.engine_spec = "ic3-ctg";
  opts.progress_interval = 0.005;
  const check::CheckResult r = check::check_aig(cc.aig, opts);
  EXPECT_EQ(r.verdict, ic3::Verdict::kSafe);
  EXPECT_TRUE(r.witness_checked);
}

}  // namespace
}  // namespace pilot
